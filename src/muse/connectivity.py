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
from functools import cached_property

import numpy as np

from .consumption import _evaluate_grid
from .grid import Cell
from .model import RFSystem
from .propagation import path_gain
from .units import watts_to_dbm

__all__ = ["LinkAssessment", "ConnectivityMap", "link_feasibility", "build_connectivity_map"]

_CSV_CHUNK_ROWS = 4096  # rows formatted per `%` call; bounds the transient objects


@dataclass(frozen=True)
class LinkAssessment:
    cell_a: int
    cell_b: int
    band_index: int
    feasible: bool
    max_power: float  # watts a new transmitter at A may radiate
    sinr: float  # linear, at B


@dataclass(frozen=True, eq=False)
class ConnectivityMap:
    candidate_beta: float
    time_index: int
    cell_a: np.ndarray  # (pairs,) source regions
    cell_b: np.ndarray  # (pairs,) destination regions
    feasible: np.ndarray  # (pairs, bands)
    max_power: np.ndarray  # (pairs, bands), watts a new transmitter at A may radiate
    sinr: np.ndarray  # (pairs, bands), linear, at B
    best: np.ndarray  # (pairs,) best band, -1 where no band is feasible

    @cached_property
    def edges(self) -> list[LinkAssessment]:
        pairs, bands = self.sinr.shape
        a, b = (np.repeat(x, bands).tolist() for x in (self.cell_a, self.cell_b))
        values = (x.ravel().tolist() for x in (self.feasible, self.max_power, self.sinr))
        return list(map(LinkAssessment, a, b, np.tile(np.arange(bands), pairs).tolist(), *values))

    @cached_property
    def best_band(self) -> dict[tuple[int, int], int | None]:
        pairs = zip(self.cell_a.tolist(), self.cell_b.tolist(), self.best.tolist())
        return {(a, b): None if nu < 0 else nu for a, b, nu in pairs}

    def to_csv(self) -> str:
        """The edge list, floats as ``%.12g``: max power is formatted once per
        (source, band), the "a,b," prefix and best band once per pair, and
        each chunk of at most ``_CSV_CHUNK_ROWS`` rows by one ``%`` call."""
        pairs, bands = self.sinr.shape
        first = np.flatnonzero(np.diff(self.cell_a, prepend=-1))  # pairs run source by source
        dbm = map(watts_to_dbm, self.max_power[first].ravel().tolist())
        power = np.array(["%.12g" % p for p in dbm], dtype=object).reshape(-1, bands)
        power = np.repeat(power, np.diff(first, append=pairs), axis=0)
        sinr_db = np.full(self.sinr.shape, -math.inf)
        positive = self.sinr > 0.0
        sinr_db[positive] = [10.0 * math.log10(s) for s in self.sinr[positive].tolist()]
        row = "".join(f"%s{nu},%d,%s,%.12g,%s\n" for nu in range(bands))
        step = max(1, _CSV_CHUNK_ROWS // bands)
        text = ["cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band\n"]
        for lo in range(0, pairs, step):
            hi = min(lo + step, pairs)
            pair = zip(self.cell_a[lo:hi].tolist(), self.cell_b[lo:hi].tolist())
            prefix = np.array([f"{a},{b}," for a, b in pair], dtype=object)
            best = np.array(["" if nu < 0 else str(nu) for nu in self.best[lo:hi].tolist()], dtype=object)
            columns = np.broadcast_arrays(prefix[:, None], self.feasible[lo:hi], power[lo:hi], sinr_db[lo:hi], best[:, None])
            text.append((row * (hi - lo)) % tuple(np.stack(columns, axis=-1).ravel().tolist()))
        return "".join(text)


def _hop_gains(sys: RFSystem, a: np.ndarray, b: np.ndarray, bands) -> np.ndarray:
    """Path gain between the sample points of each ordered (a, b) region
    pair on each of ``bands``, (pairs, bands)."""
    pts = sys.grid.sample_points
    d = np.linalg.norm(pts[b] - pts[a], axis=1)
    return np.stack([path_gain(sys.model_for_band(nu), d) for nu in bands], axis=1)


def _budget(sys: RFSystem, a: np.ndarray, b: np.ndarray, time_index: int, candidate_beta: float, bands):
    """Candidate links a -> b on each of ``bands``: (feasible, max_power,
    sinr), each (pairs, bands).  The power is the opportunity at a, clipped
    to [0, p_max]; the SINR is against the occupancy at b."""
    if not candidate_beta > 0.0:
        raise ValueError("candidate beta must be positive")
    if not 0 <= time_index < sys.grid_spec.horizon:
        raise ValueError(f"time index {time_index} outside the horizon of {sys.grid_spec.horizon} quanta")
    used = np.zeros(sys.grid.region_count, dtype=bool)  # only the regions the pairs touch are evaluated
    used[a] = used[b] = True
    row = np.cumsum(used) - 1  # row[chi]: region chi's row of the maps
    maps, _ = _evaluate_grid(sys, times=[time_index], regions=np.flatnonzero(used), bands=bands)
    max_power = np.minimum(np.maximum(maps.raw_opportunity[row[a], 0], 0.0), sys.params.p_max)
    sinr = max_power * _hop_gains(sys, a, b, bands) / maps.occupancy[row[b], 0]
    return sinr >= candidate_beta, max_power, sinr


def link_feasibility(
    sys: RFSystem,
    cell_a: Cell,
    cell_b: Cell,
    band_index: int,
    candidate_beta: float,
) -> tuple[bool, float, float]:
    """Assess one candidate link between adjacent cells.

    Returns (feasible, max_power_w, sinr_linear).  Raises ValueError for non-adjacent
    regions or a nonpositive SINR requirement, IndexError for a band outside the grid.
    """
    a, b = cell_a.region_index, cell_b.region_index
    if b not in sys.grid.neighbors(a):
        raise ValueError(f"regions {a} and {b} are not adjacent")
    if not 0 <= band_index < sys.grid.band_count:
        raise IndexError(f"band index {band_index} out of range")
    feasible, max_power, sinr = _budget(sys, np.array([a]), np.array([b]), cell_a.time_index, candidate_beta, [band_index])
    return bool(feasible[0, 0]), float(max_power[0, 0]), float(sinr[0, 0])


def build_connectivity_map(sys: RFSystem, candidate_beta: float, time_index: int = 0) -> ConnectivityMap:
    """Evaluate every ordered adjacent pair on every band.

    Pairs run source region ascending, then destination ascending.  The
    best band is the first SINR argmax over the feasible bands, so ties go
    to the lowest band index.  Raises ValueError for a nonpositive or NaN
    SINR requirement or a time index outside the horizon.
    """
    candidates, valid = sys.grid._neighbor_table(np.arange(sys.grid.region_count))
    a, b = np.nonzero(valid)[0], candidates[valid]
    feasible, max_power, sinr = _budget(sys, a, b, time_index, candidate_beta, range(sys.grid.band_count))
    best = np.where(feasible.any(axis=1), np.argmax(np.where(feasible, sinr, -np.inf), axis=1), -1)
    for array in (a, b, feasible, max_power, sinr, best):
        array.setflags(write=False)  # the edges and best_band views are cached
    return ConnectivityMap(candidate_beta, time_index, a, b, feasible, max_power, sinr, best)
