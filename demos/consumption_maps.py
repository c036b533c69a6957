"""Consumption spaces of a single link over a 4.3 km x 3.7 km region.

The region tiles into 676 hexagonal unit regions (side 100 m).  The
scenario holds one strong link: the transmitter occupies a vanishing
slice of the space while its receiver forbids a wide disk of it.  The
per-cell map goes to CSV (and a gnuplot matrix) for external plotting.
"""

from pathlib import Path

from muse import compute_maps, entity_consumption, load_scenario, system_report, write_map_csv
from muse.scenario_io import heatmap_chunks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the paths printed are relative to the repository
OUT = HERE / "output"
OUT.mkdir(exist_ok=True)

system = load_scenario(HERE / "scenarios" / "region_with_link.yaml")
grid = system.grid
print(f"grid: {grid.region_count} unit regions x {grid.horizon} time quanta x {grid.band_count} bands")

report = system_report(system)
print(f"total spectrum space: {report.psi_total:.1f} W*m^2")
print(f"  utilized  {report.psi_utilized:12.4g} W*m^2  ({100 * report.utilized_fraction:.2g} %)")
print(f"  forbidden {report.psi_forbidden:12.4g} W*m^2  ({100 * report.forbidden_fraction:.1f} %)")
print(f"  available {report.psi_available:12.4g} W*m^2  ({100 * report.available_fraction:.1f} %)")
print(f"  conservation residual {report.conservation_residual:.2e}")

print("\nper-entity consumption:")
for entity in ("tx-1", "rx-1", "link-1"):
    print(f"  {entity:8}: {entity_consumption(system, entity):.6g} W*m^2")

maps = compute_maps(system)
csv_path = OUT / "region_with_link_map.csv"
write_map_csv(csv_path, maps)
print(f"\nwrote per-cell map to {csv_path.relative_to(ROOT)}")

mat_path = OUT / "region_with_link_opportunity.mat"
mat_path.write_text("".join(heatmap_chunks(maps, "opportunity", 0, 0)))
print(f"wrote opportunity matrix (gnuplot 'plot ... matrix with image') to {mat_path.relative_to(ROOT)}")

row = maps.liability[:, 0, 0]
print(f"\nliability spans {row.min():.3g} .. {row.max():.3g} W across cells;")
print(f"{(row > 0.5).sum()} of {grid.region_count} cells lose more than half the budget to the receiver.")
