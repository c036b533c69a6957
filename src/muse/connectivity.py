"""RF connectivity between adjacent unit regions.

For every ordered pair of edge-sharing hexagons and every band, a
candidate new link is budgeted from the source cell's sample point to
the destination cell's sample point: the candidate transmit power is the
spectrum opportunity at the source (so no existing receiver is harmed by
construction), and the achievable SINR follows from path loss against
the spectrum occupancy at the destination.  The connectivity degree of a
pair is its achievable SINR; the best band is the SINR argmax, ties
resolved toward the lowest band index.

Feasibility is directional: A->B and B->A are always both evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .consumption import compute_maps
from .grid import Cell
from .model import RFSystem
from .propagation import path_gain
from .units import watts_to_dbm

__all__ = ["LinkAssessment", "ConnectivityMap", "link_feasibility", "build_connectivity_map"]


@dataclass(frozen=True)
class LinkAssessment:
    cell_a: int
    cell_b: int
    band_index: int
    feasible: bool
    max_power: float  # watts a new transmitter at A may radiate
    sinr: float  # linear, at B


@dataclass
class ConnectivityMap:
    candidate_beta: float
    time_index: int
    edges: list[LinkAssessment]
    best_band: dict[tuple[int, int], int | None]

    def to_csv(self) -> str:
        lines = ["cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band"]
        for e in self.edges:
            best = self.best_band[(e.cell_a, e.cell_b)]
            sinr_db = 10.0 * math.log10(e.sinr) if e.sinr > 0.0 else -math.inf
            lines.append(
                f"{e.cell_a},{e.cell_b},{e.band_index},{1 if e.feasible else 0},"
                f"{watts_to_dbm(e.max_power):.12g},{sinr_db:.12g},"
                f"{'' if best is None else best}"
            )
        return "\n".join(lines) + "\n"


def _hop_gains(sys: RFSystem, pairs) -> list[list[float]]:
    """Path gain between the sample points of each ordered (a, b) region
    pair, one list per band."""
    pts = sys.grid.sample_points
    a, b = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    d = np.linalg.norm(pts[b] - pts[a], axis=1)
    return [path_gain(sys.model_for_band(nu), d).tolist() for nu in range(sys.grid.band_count)]


def _assess(sys: RFSystem, a: int, b: int, nu: int, beta: float, gain: float, opportunity_row, occupancy_row) -> LinkAssessment:
    max_power = min(max(float(opportunity_row[a]), 0.0), sys.params.p_max)
    sinr = max_power * gain / float(occupancy_row[b])
    return LinkAssessment(
        cell_a=a,
        cell_b=b,
        band_index=nu,
        feasible=sinr >= beta,
        max_power=max_power,
        sinr=sinr,
    )


def link_feasibility(
    sys: RFSystem,
    cell_a: Cell,
    cell_b: Cell,
    band_index: int,
    candidate_beta: float,
) -> tuple[bool, float, float]:
    """Assess one candidate link between adjacent cells.

    Returns (feasible, max_power_w, sinr_linear).  Raises ValueError for
    non-adjacent regions or a nonpositive SINR requirement.
    """
    if candidate_beta <= 0.0:
        raise ValueError("candidate beta must be positive")
    grid = sys.grid
    if cell_b.region_index not in grid.neighbors(cell_a.region_index):
        raise ValueError(f"regions {cell_a.region_index} and {cell_b.region_index} are not adjacent")
    maps = compute_maps(sys)
    tau = cell_a.time_index
    raw = maps.raw_opportunity[:, tau, band_index]
    occ = maps.occupancy[:, tau, band_index]
    a, b = cell_a.region_index, cell_b.region_index
    gain = _hop_gains(sys, [(a, b)])[band_index][0]
    result = _assess(sys, a, b, band_index, candidate_beta, gain, raw, occ)
    return result.feasible, result.max_power, result.sinr


def build_connectivity_map(sys: RFSystem, candidate_beta: float, time_index: int = 0) -> ConnectivityMap:
    """Evaluate every ordered adjacent pair on every band.

    Edges are emitted in deterministic order: source region ascending,
    destination ascending, band ascending.
    """
    if candidate_beta <= 0.0:
        raise ValueError("candidate beta must be positive")
    grid = sys.grid
    maps = compute_maps(sys)
    raw = maps.raw_opportunity[:, time_index, :]
    occ = maps.occupancy[:, time_index, :]

    pairs = [(a, b) for a in range(grid.region_count) for b in grid.neighbors(a)]
    gains = _hop_gains(sys, pairs)

    edges: list[LinkAssessment] = []
    best_band: dict[tuple[int, int], int | None] = {}
    for k, (a, b) in enumerate(pairs):
        per_band = [
            _assess(sys, a, b, nu, candidate_beta, gains[nu][k], raw[:, nu], occ[:, nu])
            for nu in range(grid.band_count)
        ]
        edges.extend(per_band)
        feasible = [e for e in per_band if e.feasible]
        if feasible:
            sinrs = np.array([e.sinr for e in feasible])
            best_band[(a, b)] = feasible[int(np.argmax(sinrs))].band_index
        else:
            best_band[(a, b)] = None
    return ConnectivityMap(candidate_beta=candidate_beta, time_index=time_index, edges=edges, best_band=best_band)
