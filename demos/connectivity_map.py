"""Which band connects neighboring regions best.

Two campuses occupy different channels of a three-band range; a third
band stays quiet.  For every ordered pair of adjacent hexagons the
candidate link budget (opportunity-limited transmit power at the source
against occupancy at the destination) picks a best band, so the map
shows where each channel still carries a new hop and how the busy bands
lose ground near the protected receivers.
"""

from collections import Counter
from pathlib import Path

from muse import build_connectivity_map, db_to_linear, load_scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the paths printed are relative to the repository
OUT = HERE / "output"
OUT.mkdir(exist_ok=True)

system = load_scenario(HERE / "scenarios" / "three_band_campus.yaml")
grid = system.grid
print(f"{grid.region_count} regions, {grid.band_count} bands")

cmap = build_connectivity_map(system, candidate_beta=db_to_linear(10.0))
_, _, feasible, _, best = cmap.pairs()  # best band of each ordered pair, -1 where none is feasible
print(f"{feasible.size} directed pair-band assessments, {feasible.sum()} feasible")

counts = Counter(best.tolist())
print("\nbest band per adjacency:")
for band in range(grid.band_count):
    print(f"  band {band}: {counts.get(band, 0):4d} pairs")
print(f"  none  : {counts.get(-1, 0):4d} pairs")

def describe(point, label):
    cell = grid.locate(point)
    choices = cmap.pairs(cell, cell + 1)[4]  # the hops out of one cell, destination ascending
    text = ", ".join("none" if c < 0 else str(c) for c in choices.tolist())
    print(f"  {label} (cell {cell}): best bands {text}")


print("\nbest band for each hop out of a cell:")
describe(system.receiver("rx-a").position, "at the band-0 receiver")
describe((400.0, 1300.0), "far northwest corner   ")
describe((1800.0, 1300.0), "far northeast corner   ")
print("Every protected receiver suppresses all nearby hops; away from the")
print("receivers the best channel flips with the bearing of the neighbor.")

path = OUT / "three_band_campus_edges.csv"
path.write_text("".join(cmap.csv_chunks()))
print(f"\nwrote the edge list to {path.relative_to(ROOT)}")
