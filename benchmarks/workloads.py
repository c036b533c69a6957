"""The four benchmark workloads: the CLI commands of one op and the
checks its outputs must pass.

Every check reads the files the op wrote and raises ``CheckFailed`` when
an output is wrong.  The checks use nothing of the program: grid sizes
are the constants of ``scenarios.SHAPES``, and every reported value is
compared with the one ``reference.py`` recomputes from the op's
scenario.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference
import scenarios

MAP_HEADER = (
    "region_index,time_index,band_index,centroid_x_m,centroid_y_m,"
    "occupancy_w,opportunity_w,raw_opportunity_w,liability_w"
)
EDGE_HEADER = "cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band"
SWEEP_HEADER = "hex_side_m,cells,psi_total,psi_utilized,psi_forbidden,psi_available"
DEMOS = Path("demos") / "scenarios"


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _check_totals(ref: reference.Reference, payload: dict, what: str):
    """The psi_* totals of a report or sweep row against the reference's."""
    fields = {"psi_total": 0.0, "psi_utilized": 0.0, "psi_forbidden": 0.0, "psi_available": 0.0}
    for _, (occupancy, _, opportunity, liability) in ref.slices():
        fields["psi_total"] += ref.p_cmax * len(occupancy)
        fields["psi_utilized"] += float(np.sum(occupancy))
        fields["psi_forbidden"] += float(np.sum(liability))
        fields["psi_available"] += float(np.sum(opportunity))
    cells = len(ref.centroids) * ref.horizon * ref.bands
    for name, expected in fields.items():
        summed = 0 if name in ("psi_total", "psi_utilized") else cells
        _require(ref.close(payload[name], expected, summed), f"{what}: {name} {payload[name]!r}, expected {expected!r}")
    residual = abs(payload["psi_utilized"] + payload["psi_forbidden"] + payload["psi_available"]
                   - payload["psi_total"]) / payload["psi_total"]
    _require(residual <= 1e-9, f"{what}: conservation residual {residual!r} > 1e-9")


class Workload:
    """One workload: its op commands, set-up command and output checks."""

    name: str
    demo: str  # committed demo scenario used for set-up time

    def __init__(self, shape: scenarios.Shape):
        self.shape = shape
        self.regions = shape.region_counts[-1]
        self.cells_per_op = sum(shape.region_counts) * shape.horizon * shape.bands

    def commands(self, scenario: str, out: Path, prev: Path) -> list[list[str]]:
        raise NotImplementedError

    def setup_commands(self, out: Path) -> list[list[str]]:
        return self.commands(str(DEMOS / self.demo), out, out)

    def reference(self, doc: dict, side: float | None = None) -> reference.Reference:
        ref = reference.Reference(doc, side)
        expected = self.shape.region_counts[self.shape.sides.index(ref.side)]
        _require(len(ref.centroids) == expected, f"reference lattice has {len(ref.centroids)} regions, not {expected}")
        return ref

    def check(self, out: Path, prev: Path, doc: dict):
        """Check the outputs the op wrote to ``out``; ``prev`` holds the
        previous op's outputs and ``doc`` is the op's scenario."""
        raise NotImplementedError


class FieldReport(Workload):
    name = "field_report"
    demo = "region_with_link.yaml"

    def commands(self, scenario, out, prev):
        return [["report", "--scenario", scenario, "--out", str(out / "report.json")]]

    def check(self, out, prev, doc):
        payload = json.loads((out / "report.json").read_text())
        residual = payload["conservation_residual"]
        _require(residual <= 1e-9, f"reported conservation residual {residual!r} > 1e-9")
        ref = self.reference(doc)
        _check_totals(ref, payload, "report")
        entities = payload["entity_consumption"]
        expected = ref.entity_consumption()
        _require(set(entities) == set(expected), "entity ids differ from the scenario's transceivers")
        for entity, value in expected.items():
            summed = self.regions if entity.startswith("rx") else 0
            _require(math.isfinite(entities[entity]) and ref.close(entities[entity], value, summed),
                     f"{entity} consumed {entities[entity]!r}, expected {value!r}")


class FineSweep(Workload):
    name = "fine_sweep"
    demo = "region_with_link.yaml"

    def commands(self, scenario, out, prev):
        sides = ",".join(f"{s:g}" for s in self.shape.hex_sides)
        return [["sweep", "--scenario", scenario, "--hex-sides", sides, "--out", str(out / "sweep.csv")]]

    def setup_commands(self, out):
        return [["sweep", "--scenario", str(DEMOS / self.demo), "--hex-sides", "100", "--out", str(out / "sweep.csv")]]

    def check(self, out, prev, doc):
        lines = (out / "sweep.csv").read_text().splitlines()
        _require(lines[0] == SWEEP_HEADER, "unexpected sweep CSV header")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        _require(len(rows) == len(self.shape.hex_sides), f"{len(rows)} sweep rows for {len(self.shape.hex_sides)} sides")
        for side, regions, row in zip(self.shape.hex_sides, self.shape.region_counts, rows):
            _require(row[:2] == [side, regions], f"sweep row for side {side:g} names {row[:2]}")
            totals = dict(zip(SWEEP_HEADER.split(",")[2:], row[2:]))
            _check_totals(self.reference(doc, side), totals, f"side {side:g}")


class MapExport(Workload):
    name = "map_export"
    demo = "three_band_campus.yaml"

    def commands(self, scenario, out, prev):
        csv = str(out / "map.csv")
        return [
            ["map", "--scenario", scenario, "--out", csv, "--heatmap", "opportunity"],
            ["smf", "--scenario", scenario, "--truth-map", csv, "--other-map", str(prev / "map.csv"),
             "--out", str(out / "smf.json")],
        ]

    def check(self, out, prev, doc):
        path = out / "map.csv"
        with path.open(encoding="utf-8") as fh:
            _require(fh.readline().rstrip("\n") == MAP_HEADER, "unexpected map CSV header")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        horizon, bands = self.shape.horizon, self.shape.bands
        _require(data.shape == (self.cells_per_op, 9), f"map CSV has shape {data.shape}, expected ({self.cells_per_op}, 9)")
        canonical = np.stack([
            np.repeat(np.arange(self.regions), horizon * bands),
            np.tile(np.repeat(np.arange(horizon), bands), self.regions),
            np.tile(np.arange(bands), self.regions * horizon),
        ], axis=1)
        _require(np.array_equal(data[:, :3], canonical), "map CSV rows are not in canonical order")
        ref = self.reference(doc)
        imbalance = np.max(np.abs(data[:, 5] + data[:, 6] + data[:, 8] - ref.p_cmax))
        _require(imbalance <= 1e-12, f"per-cell conservation off by {imbalance!r} W")
        cells = data.reshape(self.regions, horizon, bands, 9)
        for (tau, nu), fields in ref.slices():
            written = cells[:, tau, nu]
            _require(ref.close(written[:, 3:5], ref.centroids), f"slice ({tau}, {nu}): centroids differ")
            for column, expected in zip((5, 7, 6, 8), fields):  # occupancy, raw, clamped, liability
                _require(ref.close(written[:, column], expected, int(column != 5)),
                         f"slice ({tau}, {nu}): {MAP_HEADER.split(',')[column]} differs from the reference")
        heatmaps = sorted(out.glob("map-opportunity-t*b*.mat"))
        _require(len(heatmaps) == horizon * bands, f"{len(heatmaps)} heatmap files, expected {horizon * bands}")
        line_counts = {len(p.read_text().splitlines()) for p in heatmaps}
        _require(len(line_counts) == 1 and min(line_counts) > 0, "heatmap files differ in row count")

        report = json.loads((out / "smf.json").read_text())
        truth = data[:, 6]
        other = np.loadtxt(prev / "map.csv", delimiter=",", skiprows=1, usecols=6)
        expected = {
            "truth_total": float(np.sum(truth)),
            "recovered_available": float(np.sum(np.minimum(truth, other))),
            "lost_available": float(np.sum(np.maximum(0.0, truth - other))),
            "potentially_incursed": float(np.sum(np.maximum(0.0, other - truth))),
        }
        for name, value in expected.items():
            _require(ref.close(report[name], value, len(truth)), f"smf {name} {report[name]!r}, expected {value!r}")
        _require(ref.close(report["recovered_available"] + report["lost_available"], report["truth_total"], len(truth)),
                 "smf recovered + lost != truth")


class CampusConnectivity(Workload):
    name = "campus_connectivity"
    demo = "three_band_campus.yaml"
    beta_db = 10.0

    def __init__(self, shape):
        super().__init__(shape)
        # Hex centroids sit on a lattice: x in half column pitches, y in row pitches.
        s = shape.hex_side_m
        centroids = reference.lattice(shape.width_m, shape.height_m, s)
        self.lattice = np.stack([
            np.rint(centroids[:, 0] / (math.sqrt(3.0) * s / 2.0)),
            np.rint(centroids[:, 1] / (1.5 * s)),
        ], axis=1).astype(np.int64)
        keys = set(map(tuple, self.lattice.tolist()))
        self.neighbor_total = sum(
            (x + dx, y + dy) in keys for x, y in self.lattice.tolist() for dx, dy in _HEX_STEPS
        )

    def commands(self, scenario, out, prev):
        return [["connectivity", "--scenario", scenario, "--beta-db", f"{self.beta_db:g}", "--out", str(out / "edges.csv")]]

    def check(self, out, prev, doc):
        lines = (out / "edges.csv").read_text().splitlines()
        _require(lines[0] == EDGE_HEADER, "unexpected edge CSV header")
        bands = self.shape.bands
        rows = [line.split(",") for line in lines[1:]]
        _require(len(rows) == self.neighbor_total * bands,
                 f"{len(rows)} edges, expected {self.neighbor_total} neighbour pairs x {bands} bands")
        a = np.array([int(r[0]) for r in rows]).reshape(-1, bands)
        b = np.array([int(r[1]) for r in rows]).reshape(-1, bands)
        band = np.array([int(r[2]) for r in rows]).reshape(-1, bands)
        feasible = np.array([r[3] == "1" for r in rows]).reshape(-1, bands)
        power_dbm = np.array([float(r[4]) for r in rows]).reshape(-1, bands)
        sinr_db = np.array([float(r[5]) for r in rows]).reshape(-1, bands)
        best = np.array([int(r[6]) if r[6] else -1 for r in rows]).reshape(-1, bands)

        _require(np.all(band == np.arange(bands)), "bands of a pair are not 0..B-1 in order")
        for column in (a, b, best):
            _require(np.all(column == column[:, :1]), "a pair's rows disagree on cells or best band")
        a, b, best = a[:, 0], b[:, 0], best[:, 0]
        pair = a * self.regions + b
        _require(np.all(np.diff(pair) > 0), "pairs are not strictly ascending")
        step = self.lattice[b] - self.lattice[a]
        adjacent = np.zeros(len(a), dtype=bool)
        for dx, dy in _HEX_STEPS:
            adjacent |= (step[:, 0] == dx) & (step[:, 1] == dy)
        _require(bool(np.all(adjacent)), "an edge joins regions that are not adjacent")

        # The candidate link from a to b: the opportunity at a as power, path loss, occupancy at b.
        ref = self.reference(doc)
        d = np.hypot(*(ref.centroids[b] - ref.centroids[a]).T)
        path = np.where(d <= ref.d0, 1.0, (d / ref.d0) ** -ref.alpha)
        for nu in range(bands):
            occupancy, raw, _, _ = ref.slice(0, nu)
            power = np.minimum(np.maximum(raw[a], 0.0), ref.p_max)
            sinr = power * path / occupancy[b]
            with np.errstate(divide="ignore"):
                for name, written, expected in (("max_power_dbm", power_dbm[:, nu], 10.0 * np.log10(power) + 30.0),
                                                ("sinr_db", sinr_db[:, nu], 10.0 * np.log10(sinr))):
                    finite = np.isfinite(expected)
                    written, expected = written[finite], expected[finite]
                    _require(np.array_equal(np.isfinite(written), finite[finite]) and np.all(
                        np.abs(written - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected))),
                             f"band {nu}: {name} differs from the reference")
            tied = np.abs(10.0 * np.log10(np.maximum(sinr, 1e-300)) - self.beta_db) <= 1e-9
            _require(np.array_equal(feasible[:, nu] | tied, (sinr >= 10.0 ** (self.beta_db / 10.0)) | tied),
                     f"band {nu}: feasibility differs from the reference")
        # np.argmax returns the first maximum, i.e. the lowest band index on ties.
        expected = np.where(feasible.any(axis=1), np.argmax(np.where(feasible, sinr_db, -np.inf), axis=1), -1)
        _require(np.array_equal(best, expected), "best_band is not the lowest-index SINR argmax of feasible bands")


_HEX_STEPS = ((2, 0), (-2, 0), (1, 1), (-1, 1), (1, -1), (-1, -1))

WORKLOADS = {cls.name: cls for cls in (FieldReport, FineSweep, MapExport, CampusConnectivity)}
