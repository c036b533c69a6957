"""Seeded scenario generator for the benchmark workloads.

Each workload has a fixed shape (region, grid, link count, bands,
horizon, share of sector antennas, schedule rule).  Only positions,
powers, antenna bearings and schedules vary, and they are drawn from
``(workload, seed, op index)`` alone, so one seed always yields the same
files.  Scenarios are plain YAML documents in the public schema
(``muse_scenario: 1``); the program under test only ever sees the files.

Run ``python3 benchmarks/scenarios.py`` to print each workload's shape
and its repeated-slice share.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import yaml

P_MAX_DBM = 30.0
P_MIN_DBM = -200.0
NOISE_DBM = -106.0
BAND_MHZ = (600.0, 606.0, 612.0)

# Schedule groups of fine_sweep: quanta are split into two phases, so a
# band's active set depends only on the phase of the quantum.
_PHASE_GROUPS = ("all", "even", "odd")


@dataclass(frozen=True)
class Shape:
    """Everything about a workload's scenarios that does not vary."""

    width_m: float
    height_m: float
    hex_side_m: float
    links: int
    bands: int
    horizon: int
    sector_share: float
    schedule: str  # "static" | "phased" | "random"
    # Regions of the grid at each side swept (or at hex_side_m), as the
    # program tessellated them when the benchmark was defined.
    region_counts: tuple[int, ...]
    worst_case_placement: bool = False
    hex_sides: tuple[float, ...] = ()  # sweep sides, finest first

    @property
    def sides(self) -> tuple[float, ...]:
        return self.hex_sides or (self.hex_side_m,)


SHAPES = {
    "field_report": Shape(
        4300.0, 3700.0, 100.0, links=40, bands=1, horizon=1, sector_share=0.25, schedule="static",
        region_counts=(676,),
    ),
    "fine_sweep": Shape(
        4300.0, 3700.0, 32.0, links=8, bands=2, horizon=4, sector_share=0.25, schedule="phased",
        region_counts=(384396, 96565, 24257, 6162), worst_case_placement=True, hex_sides=(4.0, 8.0, 16.0, 32.0),
    ),
    "map_export": Shape(
        4300.0, 3700.0, 60.0, links=12, bands=3, horizon=4, sector_share=0.25, schedule="random",
        region_counts=(1785,),
    ),
    "campus_connectivity": Shape(
        4300.0, 3700.0, 55.0, links=12, bands=3, horizon=1, sector_share=0.25, schedule="static",
        region_counts=(2139,),
    ),
}

# The same shapes at sizes small enough for the self-test.
TINY_SHAPES = {
    "field_report": Shape(
        1200.0, 1000.0, 200.0, links=4, bands=1, horizon=1, sector_share=0.25, schedule="static", region_counts=(22,),
    ),
    "fine_sweep": Shape(
        1200.0, 1000.0, 100.0, links=3, bands=2, horizon=4, sector_share=0.25, schedule="phased",
        region_counts=(225, 64), worst_case_placement=True, hex_sides=(50.0, 100.0),
    ),
    "map_export": Shape(
        1200.0, 1000.0, 200.0, links=9, bands=3, horizon=4, sector_share=0.25, schedule="random", region_counts=(22,),
    ),
    "campus_connectivity": Shape(
        1200.0, 1000.0, 200.0, links=3, bands=3, horizon=1, sector_share=0.25, schedule="static", region_counts=(22,),
    ),
}


def _rng(workload: str, seed: int, op: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{op}")


def _sector(rng: random.Random, toward: float) -> dict:
    return {
        "kind": "sector",
        "boresight_deg": round(math.degrees(toward) + rng.uniform(-20.0, 20.0), 6),
        "beamwidth_deg": round(rng.uniform(60.0, 120.0), 6),
        "main_gain_db": round(rng.uniform(6.0, 12.0), 6),
        "back_gain_db": round(rng.uniform(-10.0, -3.0), 6),
    }


def _schedules(rng: random.Random, shape: Shape) -> list[tuple[list[int] | str, list[int] | str]]:
    """(active quanta, bands) per link, following the workload's rule.

    Every rule gives each op the same amount of activity; only which link
    is active when varies.
    """
    if shape.schedule == "static":
        # horizon 1; links spread evenly over the bands
        return [("all", [k % shape.bands]) for k in range(shape.links)]
    if shape.schedule == "phased":
        # one phase-bound link per band keeps the two phases of every band
        # distinct; the other links take a fixed mix of groups, shuffled
        first = [(_PHASE_GROUPS[1 + k % 2], [k]) for k in range(shape.bands)]
        band_choices = [[b] for b in range(shape.bands)] + ["all"]
        mix = [(_PHASE_GROUPS[k % 3], band_choices[(k + k // 3) % len(band_choices)])
               for k in range(3 * len(band_choices))]  # every group with every band choice
        rest = [mix[k % len(mix)] for k in range(shape.links - shape.bands)]
        rng.shuffle(rest)
        return [
            ("all" if group == "all" else [t for t in range(shape.horizon) if t % 2 == (group == "odd")], bands)
            for group, bands in first + rest
        ]
    # random: each link on one band, active in half the quanta, redrawn
    # until no band repeats an active set across quanta
    for _ in range(1000):
        out = [(sorted(rng.sample(range(shape.horizon), shape.horizon // 2)), [k % shape.bands])
               for k in range(shape.links)]
        if repeated_slices(shape, out) == 0:
            return out
    raise ValueError(f"{shape}: too few links per band for distinct active sets in every quantum")


def _active_sets(shape: Shape, schedules) -> dict[int, list[frozenset[int]]]:
    """Per band, the set of active links in each quantum."""
    sets = {}
    for band in range(shape.bands):
        per_quantum = []
        for tau in range(shape.horizon):
            per_quantum.append(frozenset(
                k for k, (quanta, bands) in enumerate(schedules)
                if (quanta == "all" or tau in quanta) and (bands == "all" or band in bands)
            ))
        sets[band] = per_quantum
    return sets


def repeated_slices(shape: Shape, schedules) -> int:
    """(time, band) slices whose active set equals an earlier quantum's in the same band."""
    return sum(len(s) - len(set(s)) for s in _active_sets(shape, schedules).values())


@dataclass(frozen=True)
class Scenario:
    text: str  # the YAML document
    doc: dict  # the same document, parsed
    shape: Shape
    distinct_slices: int  # per evaluated grid
    rx_slices: int  # active (receiver, time, band) triples per evaluated grid

    @property
    def slices(self) -> int:
        return self.shape.horizon * self.shape.bands


def generate(workload: str, seed: int, op: int, tiny: bool = False) -> Scenario:
    """The scenario of one op: same ``(workload, seed, op)``, same text."""
    shape = (TINY_SHAPES if tiny else SHAPES)[workload]
    rng = _rng(workload, seed, op)
    w, h = shape.width_m, shape.height_m
    n_sector = round(shape.sector_share * 2 * shape.links)
    sector_slots = set(rng.sample(range(2 * shape.links), n_sector))
    schedules = _schedules(rng, shape)

    networks = []
    rx_slices = 0
    for k, (quanta, bands) in enumerate(schedules):
        tx_pos = (rng.uniform(0.02 * w, 0.98 * w), rng.uniform(0.02 * h, 0.98 * h))
        hop, bearing = rng.uniform(150.0, 600.0), rng.uniform(-math.pi, math.pi)
        rx_pos = (
            min(max(tx_pos[0] + hop * math.cos(bearing), 0.0), w),
            min(max(tx_pos[1] + hop * math.sin(bearing), 0.0), h),
        )
        toward_rx = math.atan2(rx_pos[1] - tx_pos[1], rx_pos[0] - tx_pos[0])
        tx = {"id": f"tx-{k}", "position": [round(tx_pos[0], 3), round(tx_pos[1], 3)],
              "power_dbm": round(rng.uniform(10.0, P_MAX_DBM), 6)}
        rx = {"id": f"rx-{k}", "position": [round(rx_pos[0], 3), round(rx_pos[1], 3)],
              "beta_db": round(rng.uniform(3.0, 10.0), 6)}
        if 2 * k in sector_slots:
            tx["antenna"] = _sector(rng, toward_rx)
        if 2 * k + 1 in sector_slots:
            rx["antenna"] = _sector(rng, toward_rx + math.pi)
        for end in (tx, rx):
            end["active"] = quanta if quanta == "all" else list(quanta)
            end["bands"] = bands if bands == "all" else list(bands)
        rx_slices += (shape.horizon if quanta == "all" else len(quanta)) * (shape.bands if bands == "all" else len(bands))
        networks.append({"id": f"net-{k}", "links": [{"id": f"link-{k}", "transmitter": tx, "receivers": [rx]}]})

    doc = {
        "muse_scenario": 1,
        "system": {"p_max_dbm": P_MAX_DBM, "p_min_dbm": P_MIN_DBM, "noise_dbm": NOISE_DBM},
        "propagation": {"alpha": 3.5, "reference_distance_m": 1.0},
        "grid": {
            "width_m": w,
            "height_m": h,
            "hex_side_m": shape.hex_side_m,
            "time_quantum_s": 10.0,
            "time_quanta": shape.horizon,
            "bands": [{"center_mhz": BAND_MHZ[b], "bandwidth_mhz": 6.0} for b in range(shape.bands)],
            "worst_case_placement": shape.worst_case_placement,
        },
        "networks": networks,
    }
    distinct = shape.horizon * shape.bands - repeated_slices(shape, schedules)
    return Scenario(yaml.safe_dump(doc, sort_keys=False), doc, shape, distinct, rx_slices)


def repeated_share(workload: str, seed: int, ops: int = 8, tiny: bool = False) -> float:
    """Share of (time, band) slices that repeat an earlier active set, over ``ops`` ops."""
    scenarios = [generate(workload, seed, op, tiny) for op in range(ops)]
    return 1.0 - sum(s.distinct_slices for s in scenarios) / sum(s.slices for s in scenarios)


if __name__ == "__main__":
    for name, shape in SHAPES.items():
        print(f"{name}: {shape}")
        print(f"  repeated-slice share (seed 0, 8 ops): {repeated_share(name, 0):.3f}")
