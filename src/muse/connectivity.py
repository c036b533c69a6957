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
from .consumption import _evaluate_grid, _point_slice
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


def _pair_array(name: str, doc: str) -> property:
    """A read-only view of one of ConnectivityMap's pair arrays, all built on first use."""
    return property(lambda self: self._arrays[name], doc=doc)


@dataclass(frozen=True, eq=False)
class ConnectivityMap:
    """Every ordered adjacent pair's candidate links, generated from two
    per-region arrays of one time quantum: the pair arrays are built on
    first use, and the edge CSV is streamed a chunk of source regions at a time."""

    candidate_beta: float
    time_index: int
    grid: SpectrumGrid
    power: np.ndarray  # (regions, bands), watts a new transmitter in the region may radiate
    occupancy: np.ndarray  # (regions, bands), watts
    gains: np.ndarray  # (bands,), path gain of one hop

    def _pairs(self, lo: int, hi: int):
        """The pairs whose source lies in [lo, hi), source then destination
        ascending: (cell_a, cell_b, feasible, sinr, best)."""
        candidates, valid = self.grid._neighbor_table(np.arange(lo, hi))
        a, b = lo + np.flatnonzero(valid) // 6, candidates[valid]  # nonzero(valid)[0] would keep both index rows
        feasible, sinr = _budget(self.power[a], self.occupancy[b], self.gains, self.candidate_beta)
        best = np.where(feasible.any(axis=1), np.argmax(sinr, axis=1), -1)  # a pair's largest SINR is feasible if any is
        return a, b, feasible, sinr, best

    @cached_property
    def _arrays(self) -> dict[str, np.ndarray]:
        a, b, feasible, sinr, best = self._pairs(0, self.grid.region_count)
        arrays = dict(cell_a=a, cell_b=b, feasible=feasible, max_power=self.power[a], sinr=sinr, best=best)
        for array in arrays.values():
            array.setflags(write=False)  # the edges and best_band views are cached
        return arrays

    cell_a = _pair_array("cell_a", "(pairs,) source regions")
    cell_b = _pair_array("cell_b", "(pairs,) destination regions")
    feasible = _pair_array("feasible", "(pairs, bands)")
    max_power = _pair_array("max_power", "(pairs, bands), watts a new transmitter at A may radiate")
    sinr = _pair_array("sinr", "(pairs, bands), linear, at B")
    best = _pair_array("best", "(pairs,) best band, -1 where no band is feasible")

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

    def _csv_chunks(self, counts: list[int] | None = None) -> Iterator[str]:
        """The edge list as text chunks, each the pairs of consumption._TEXT_CHUNK / (6 x
        bands) source regions (at most six pairs each), formatted by one ``%``
        call.  A row's fixed text comes from a table over (band, feasible, best
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
            a, b, feasible, sinr, best = self._pairs(lo, min(lo + step, self.grid.region_count))
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


def _check_request(sys: RFSystem, candidate_beta: float, time_index: int):
    """Raise ValueError for a nonpositive or NaN beta or a time index outside the horizon."""
    if not candidate_beta > 0.0:
        raise ValueError("candidate beta must be positive")
    if not 0 <= time_index < sys.grid_spec.horizon:
        raise ValueError(f"time index {time_index} outside the horizon of {sys.grid_spec.horizon} quanta")


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
    max_power = _clip(sys, source[2:3])
    feasible, sinr = _budget(max_power, dest[0], _hop_gains(sys, [band_index]), candidate_beta)
    return bool(feasible[0]), float(max_power[0]), float(sinr[0])


def build_connectivity_map(sys: RFSystem, candidate_beta: float, time_index: int = 0) -> ConnectivityMap:
    """Evaluate every ordered adjacent pair on every band.

    Pairs run source region ascending, then destination ascending.  The
    best band is the first SINR argmax over the feasible bands, so ties go
    to the lowest band index.  Raises ValueError for a nonpositive or NaN
    SINR requirement or a time index outside the horizon.
    """
    _check_request(sys, candidate_beta, time_index)
    maps, _, _ = _evaluate_grid(sys, times=[time_index], keep=("occupancy", "raw_opportunity"))
    power, occupancy = _clip(sys, maps["raw_opportunity"][:, 0]), maps["occupancy"][:, 0]
    gains = _hop_gains(sys, range(sys.grid.band_count))
    for array in (power, occupancy, gains):
        array.setflags(write=False)  # the pair arrays and their views are cached
    return ConnectivityMap(candidate_beta, time_index, sys.grid, power, occupancy, gains)
