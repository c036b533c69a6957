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
from typing import Iterator

import numpy as np

from .consumption import _evaluate_grid, _point_slice
from .grid import SQRT3, Cell
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
        """The edge list, floats as ``%.12g``."""
        return "".join(self._csv_chunks())

    def _csv_chunks(self) -> Iterator[str]:
        """The edge list as text chunks of at most ``_CSV_CHUNK_ROWS`` rows, each
        formatted by one ``%`` call: max power once per (source, band) of the
        chunk, the "a,b," prefix and best band once per pair."""
        pairs, bands = self.sinr.shape
        row = "".join(f"%s{nu},%d,%s,%.12g,%s\n" for nu in range(bands))
        step = max(1, _CSV_CHUNK_ROWS // bands)
        yield "cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band\n"
        for lo in range(0, pairs, step):
            a, b, sinr = (x[lo : lo + step] for x in (self.cell_a, self.cell_b, self.sinr))
            first = np.flatnonzero(np.diff(a, prepend=-1))  # pairs run source by source
            dbm = map(watts_to_dbm, self.max_power[lo + first].ravel().tolist())
            power = np.array(["%.12g" % p for p in dbm], dtype=object).reshape(-1, bands)
            power = np.repeat(power, np.diff(first, append=len(a)), axis=0)
            sinr_db = np.full(sinr.shape, -math.inf)
            positive = sinr > 0.0
            sinr_db[positive] = [10.0 * math.log10(s) for s in sinr[positive].tolist()]
            prefix = np.array([f"{x},{y}," for x, y in zip(a.tolist(), b.tolist())], dtype=object)
            best = np.array(["" if nu < 0 else str(nu) for nu in self.best[lo : lo + step].tolist()], dtype=object)
            columns = np.broadcast_arrays(prefix[:, None], self.feasible[lo : lo + step], power, sinr_db, best[:, None])
            yield (row * len(a)) % tuple(np.stack(columns, axis=-1).ravel().tolist())


def _hop_gains(sys: RFSystem, bands) -> np.ndarray:
    """Path gain of one hop on each of ``bands``, (bands,).  Adjacent sample
    points, centroid or offset alike, lie one column pitch, sqrt(3) x hex side, apart."""
    pitch = SQRT3 * sys.grid_spec.hex_side
    return np.array([path_gain(sys.model_for_band(nu), pitch) for nu in bands])


def _check_request(sys: RFSystem, candidate_beta: float, time_index: int):
    """Raise ValueError for a nonpositive or NaN beta or a time index outside the horizon."""
    if not candidate_beta > 0.0:
        raise ValueError("candidate beta must be positive")
    if not 0 <= time_index < sys.grid_spec.horizon:
        raise ValueError(f"time index {time_index} outside the horizon of {sys.grid_spec.horizon} quanta")


def _budget(sys: RFSystem, raw_opportunity, occupancy, gains: np.ndarray, candidate_beta: float):
    """Candidate links on each band: (feasible, max_power, sinr), each
    (pairs, bands).  The power is the raw opportunity at the source clipped
    to [0, p_max], computed in place in ``raw_opportunity``; the SINR is
    power x the band's hop gain over the occupancy at the destination."""
    max_power = np.minimum(np.maximum(raw_opportunity, 0.0, out=raw_opportunity), sys.params.p_max, out=raw_opportunity)
    sinr = max_power * gains
    sinr /= occupancy
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
    tau = cell_a.time_index
    _check_request(sys, candidate_beta, tau)
    src, dst = (sys.grid.points(chi, chi + 1) for chi in (a, b))
    source, dest = (_point_slice(sys, p[0], tau, band_index, chi)[2] for p, chi in ((src, a), (dst, b)))
    feasible, max_power, sinr = _budget(sys, source[2:3], dest[0], _hop_gains(sys, [band_index]), candidate_beta)
    return bool(feasible[0]), float(max_power[0]), float(sinr[0])


def build_connectivity_map(sys: RFSystem, candidate_beta: float, time_index: int = 0) -> ConnectivityMap:
    """Evaluate every ordered adjacent pair on every band.

    Pairs run source region ascending, then destination ascending.  The
    best band is the first SINR argmax over the feasible bands, so ties go
    to the lowest band index.  Raises ValueError for a nonpositive or NaN
    SINR requirement or a time index outside the horizon.
    """
    _check_request(sys, candidate_beta, time_index)
    candidates, valid = sys.grid._neighbor_table(np.arange(sys.grid.region_count))
    a, b = np.flatnonzero(valid) // 6, candidates[valid]  # nonzero(valid)[0] would keep both index rows
    maps, _, _ = _evaluate_grid(sys, times=[time_index], keep=("occupancy", "raw_opportunity"))
    gains = _hop_gains(sys, range(sys.grid.band_count))
    feasible, max_power, sinr = _budget(sys, maps["raw_opportunity"][a, 0], maps["occupancy"][b, 0], gains, candidate_beta)
    best = np.where(feasible.any(axis=1), np.argmax(sinr, axis=1), -1)  # a pair's largest SINR is feasible if any is
    for array in (a, b, feasible, max_power, sinr, best):
        array.setflags(write=False)  # the edges and best_band views are cached
    return ConnectivityMap(candidate_beta, time_index, a, b, feasible, max_power, sinr, best)
