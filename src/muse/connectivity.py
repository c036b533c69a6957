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
from itertools import chain
from typing import Iterator

import numpy as np

from . import consumption
from .consumption import _check_cell, _evaluate_grids, _LinkBudget, _point_slice
from .grid import SQRT3, Cell, SpectrumGrid
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


@dataclass(frozen=True, eq=False)
class ConnectivityMap:
    """Every ordered adjacent pair's candidate links in one time quantum,
    generated by ``pairs`` from two per-region arrays for any range of source
    regions: no pair array is kept, and the edge CSV is streamed a chunk of
    source regions at a time."""

    candidate_beta: float
    time_index: int
    grid: SpectrumGrid
    power: np.ndarray  # (regions, bands), watts a new transmitter in the region may radiate
    occupancy: np.ndarray  # (regions, bands), watts
    gains: np.ndarray  # (bands,), path gain of one hop

    def pairs(self, lo: int = 0, hi: int | None = None):
        """The pairs whose source lies in regions [lo, hi) (by default all),
        source then destination ascending: (cell_a, cell_b, feasible, sinr,
        best), the first two and the last (pairs,), the others (pairs, bands).
        ``best`` is the best band, -1 where no band is feasible; the power a
        new transmitter at A may radiate is ``power[cell_a]``.  IndexError for
        a range outside [0, regions]."""
        n = self.grid.region_count
        hi = n if hi is None else hi
        if not 0 <= lo <= hi <= n:
            raise IndexError(f"region range [{lo}, {hi}) outside [0, {n})")
        candidates, valid = self.grid._neighbor_table(np.arange(lo, hi))
        a, b = lo + np.flatnonzero(valid) // 6, candidates[valid]  # nonzero(valid)[0] would keep both index rows
        feasible, sinr = _budget(self.power[a], self.occupancy[b], self.gains, self.candidate_beta)
        best = np.where(feasible.any(axis=1), np.argmax(sinr, axis=1), -1)  # a pair's largest SINR is feasible if any is
        return a, b, feasible, sinr, best

    @cached_property
    def edges(self) -> list[LinkAssessment]:
        a, b, feasible, sinr, _ = self.pairs()
        pairs, bands = sinr.shape
        cells = (np.repeat(x, bands).tolist() for x in (a, b))
        values = (x.ravel().tolist() for x in (feasible, self.power[a], sinr))
        return list(map(LinkAssessment, *cells, np.tile(np.arange(bands), pairs).tolist(), *values))

    def csv_chunks(self, counts: list[int] | None = None) -> Iterator[str]:
        """The edge list, floats as ``%.12g``, as text chunks, each the pairs of
        consumption._TEXT_CHUNK / (6 x bands) source regions (at most six pairs
        each), formatted by one ``%`` call.  A row's fixed text comes from a table over (band, feasible, best
        band); max power is formatted once per (source region, band), the
        "a,b," prefix once per pair.  ``counts``, if given, a two-item list,
        gains each chunk's edge and feasible-edge counts."""
        bands = len(self.gains)
        tails = [f"{nu}\n" for nu in range(bands)] + ["\n"]  # best band -1 reads the last
        rows = [[[f"%s{nu},{flag},%s,%.12g,{t}" for t in tails] for flag in (0, 1)] for nu in range(bands)]
        rows = np.array(rows, dtype=object)
        step = max(1, consumption._TEXT_CHUNK // (6 * bands))
        yield "cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band\n"
        for lo in range(0, self.grid.region_count, step):
            a, b, feasible, sinr, best = self.pairs(lo, min(lo + step, self.grid.region_count))
            if counts is not None:
                counts[0] += feasible.size
                counts[1] += int(np.count_nonzero(feasible))
            template = "".join(rows[np.arange(bands), feasible.view(np.int8), best[:, None]].ravel().tolist())
            dbm = map(watts_to_dbm, self.power[lo : lo + step].ravel().tolist())
            power = np.array(["%.12g" % p for p in dbm], dtype=object).reshape(-1, bands)[a - lo].T.tolist()
            sinr_db = [[10.0 * math.log10(s) if s > 0.0 else -math.inf for s in column] for column in sinr.T.tolist()]
            prefix = [f"{x},{y}," for x, y in zip(a.tolist(), b.tolist())]
            columns = (c for nu in range(bands) for c in (prefix, power[nu], sinr_db[nu]))
            yield template % tuple(chain.from_iterable(zip(*columns)))


def _hop_gains(sys: RFSystem, bands) -> np.ndarray:
    """Path gain of one hop on each of ``bands``, (bands,).  Adjacent sample
    points, centroid or offset alike, lie one column pitch, sqrt(3) x hex side, apart."""
    pitch = SQRT3 * sys.grid_spec.hex_side
    return np.array([path_gain(sys.model_for_band(nu), pitch) for nu in bands])


def _check_request(candidate_beta: float):
    """Raise ValueError for a nonpositive or NaN beta."""
    if not candidate_beta > 0.0:
        raise ValueError("candidate beta must be positive")


def _clip(sys: RFSystem, raw_opportunity: np.ndarray) -> np.ndarray:
    """The power a new transmitter may radiate: the raw opportunity clipped
    to [0, p_max], in place."""
    return np.minimum(np.maximum(raw_opportunity, 0.0, out=raw_opportunity), sys.params.p_max, out=raw_opportunity)


def _budget(max_power: np.ndarray, occupancy, gains: np.ndarray, candidate_beta: float):
    """Candidate links on each band: (feasible, sinr), each (pairs, bands).
    The SINR is the source's power x the band's hop gain over the occupancy
    at the destination."""
    sinr = max_power * gains
    sinr /= occupancy
    return sinr >= candidate_beta, sinr


def link_feasibility(
    sys: RFSystem,
    cell_a: Cell,
    cell_b: Cell,
    band_index: int,
    candidate_beta: float,
) -> tuple[bool, float, float]:
    """Assess one candidate link between adjacent cells of ``sys.grid`` in one
    time quantum, on ``band_index`` (the cells' band indices are not read).

    Returns (feasible, max_power_w, sinr_linear).  Raises ValueError for a cell
    not the grid's own, cells in two quanta, non-adjacent regions or a nonpositive
    SINR requirement, IndexError for an index outside the grid.
    """
    for cell in (cell_a, cell_b):
        _check_cell(sys, cell)
    a, b, tau = cell_a.region_index, cell_b.region_index, cell_a.time_index
    if cell_b.time_index != tau:
        raise ValueError(f"cells in time quanta {tau} and {cell_b.time_index}: a link is assessed in one")
    if b not in sys.grid.neighbors(a):
        raise ValueError(f"regions {a} and {b} are not adjacent")
    _check_request(candidate_beta)
    slot = _LinkBudget(sys, band_index).slot(tau)
    source, dest = (_point_slice(slot, c.sample_point, c.region_index)[0] for c in (cell_a, cell_b))
    max_power = _clip(sys, source[2:3])
    feasible, sinr = _budget(max_power, dest[0], _hop_gains(sys, [band_index]), candidate_beta)
    return bool(feasible[0]), float(max_power[0]), float(sinr[0])


def build_connectivity_map(sys: RFSystem, candidate_beta: float, time_index: int = 0) -> ConnectivityMap:
    """Evaluate every ordered adjacent pair on every band.

    Pairs run source region ascending, then destination ascending.  The
    best band is the first SINR argmax over the feasible bands, so ties go
    to the lowest band index.  Raises ValueError for a nonpositive or NaN
    SINR requirement, IndexError for a time index outside the horizon.
    """
    _check_request(candidate_beta)
    maps, _, _ = _evaluate_grids([sys], times=[time_index], keep=("occupancy", "raw_opportunity"))[0]
    power, occupancy = _clip(sys, maps["raw_opportunity"][:, 0]), maps["occupancy"][:, 0]
    gains = _hop_gains(sys, range(sys.grid.band_count))
    for array in (power, occupancy, gains):
        array.setflags(write=False)  # edges, derived from them, are cached
    return ConnectivityMap(candidate_beta, time_index, sys.grid, power, occupancy, gains)
