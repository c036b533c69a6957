"""Core spectrum-consumption arithmetic.

Definitions, all in linear watts at a point:

* transmitter occupancy     received power from one transmitter,
                            P_t * antenna gains * path gain;
* spectrum occupancy        sum of all co-banded, co-active transmitter
                            occupancies plus ambient noise (P_bar);
* interference margin       extra interference a receiver tolerates while
                            keeping SINR >= beta: serving power / beta
                            minus noise; negative means the receiver is
                            infeasible even without interferers;
* interference opportunity  the remaining margin of a receiver, projected
                            back to a transmit power at the evaluation
                            point by dividing by the point-to-receiver
                            gain; negative flags harmful interference;
* net opportunity           minimum interference opportunity over all
                            receivers, never exceeding the regulatory
                            headroom p_max - P_bar; with no receivers it
                            is the headroom itself;
* liability                 complement that closes the per-cell budget:
                            occupancy + opportunity + liability = p_cmax.

The clamped cell opportunity gamma is raw opportunity clipped to
[0, p_cmax - occupancy], so the per-cell conservation identity holds
exactly by construction while the unclamped value stays available for
diagnostics.

Evaluation has two stages.  Link-budget setup builds, per band and call,
every receiver's margin and an R x T coupling matrix whose entry (r, t) is
the power receiver r takes from transmitter t, tx power x
``propagation.link_gain`` x the receiver's antenna gain toward t, with the
serving transmitter and orthogonal siblings masked out; and per (band,
quantum) a slot: the activity masks, each receiver's existing interference
(a masked row sum of the coupling) and its remaining margin.  The kernel
does no link-budget arithmetic.  It evaluates slots at N points one
transceiver at a time, transmitters first: each one's gain field
(``link_gain`` of its model, antenna and position) is computed once per
model and applied to every slot where it is active, so one field is alive
at a time.  A slot gets the four fields, their sums and, where asked, every
transceiver's consumption summed over the points (received power for
transmitters, clipped liability for receivers).  Maps, the system report and
the point and cell queries (one slot, N = 1) all read from that kernel, so a
point query equals the map bitwise at a cell's sample point; an entity adds
up the report's sums, and the receiver queries read the slot itself.

The grid pass cuts the regions into chunks that are nodes of numpy's
pairwise-summation tree (threads take whole chunks) and runs the kernel on
each over the distinct slots; a slot whose activity masks repeat an earlier
one's in its band is evaluated once.  Slot fields are contiguous rows of one
reused per-thread block: occupancy and clamped opportunity, and raw
opportunity and liability only for a kept map (else liability is summed from
one spare buffer).  Only the maps a caller keeps are allocated and
copied from it (``compute_maps`` all four, ``opportunity_map`` one,
connectivity two of one quantum, the totals none), and then chunks hold
_CHUNK // slots regions; the totals' hold min(_CHUNK, 4 x _CHUNK // slots).
Each chunk's per-slot sums are folded up the same tree, so every total is,
per slot, ``np.sum`` over all regions bit for bit, the slots then added in
(band, quantum) order: no total depends on the chunk size or MUSE_THREADS.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Cell, SpectrumGrid
from .model import Receiver, RFSystem, Transmitter, entity_selector
from .propagation import _toward, link_gain

__all__ = [
    "PointMetrics",
    "CellMetrics",
    "ConsumptionMaps",
    "ConsumptionReport",
    "tx_occupancy_at",
    "aggregate_occupancy_at",
    "interference_margin",
    "interference_opportunity",
    "net_opportunity_at",
    "receiver_sinr",
    "point_metrics",
    "cell_metrics",
    "compute_maps",
    "entity_consumption",
    "system_report",
    "system_reports",
]

_CHUNK = 1 << 16  # most regions per chunk, fewer for several slots (see _plan); bounds the block and each field
_TEXT_CHUNK = 1 << 12  # map CSV rows, heatmap or smf theta values, or edge CSV rows per formatted chunk; bounds the text held


def thread_budget() -> int:
    """The most threads a grid pass runs: MUSE_THREADS (at least 1), else the
    CPUs this process may use, at most 4.  ValueError for a non-integer MUSE_THREADS."""
    env = os.environ.get("MUSE_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"MUSE_THREADS must be an integer, got {env!r}") from exc
        return max(1, cap)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(4, cpus or 1)


# ---------------------------------------------------------------------------
# link budget


class _Slot(NamedTuple):
    """A band's link budget in one time quantum: the activity masks, each receiver's existing
    interference (the power it takes from its active interferers) and its remaining margin."""

    budget: _LinkBudget
    tx_active: np.ndarray
    rx_active: np.ndarray
    interference: np.ndarray
    remaining: np.ndarray


class _LinkBudget:
    """Every receiver's link budget in one band.

    ``coupling[r, t]`` is the power receiver r takes from transmitter t:
    tx power x link gain x the receiver's antenna gain toward t.
    ``interferes[r, t]`` is false for r's serving transmitter and, in an
    orthogonal network, for the transmitters of r's sibling links.
    ``signal`` is the serving power (zero on receive-only links), ``noise``
    the ambient noise at each receiver and ``margin`` the interference it
    tolerates at zero separation.  ``row`` maps a transmitter's id to its column
    and a receiver's to its row (a transmitter's wins where an invalid system reuses an id).
    """

    def __init__(self, sys: RFSystem, band_index: int):
        if not 0 <= band_index < sys.grid_spec.band_count:
            raise IndexError(f"band index {band_index} out of range")
        self.sys = sys
        self.band_index = band_index
        self.model = sys.model_for_band(band_index)
        tx_entries = list(sys.iter_transmitters())
        rx_entries = list(sys.iter_receivers())
        self.transmitters = [tx for _, _, tx in tx_entries]
        self.receivers = [rx for _, _, rx in rx_entries]
        self.ids = [tx.id for tx in self.transmitters] + [rx.id for rx in self.receivers]
        self.row = {e.id: k for side in (self.receivers, self.transmitters) for k, e in enumerate(side)}
        self.keys = [(self.model, e.antenna, sys.position_of(e)) for e in self.transmitters + self.receivers]
        positions = np.array([key[2] for key in self.keys], dtype=float).reshape(-1, 2)
        self.tx_pos, self.rx_pos = positions[: len(self.transmitters)], positions[len(self.transmitters) :]

        gain = np.empty((len(self.receivers), len(self.transmitters)))
        for t, tx in enumerate(self.transmitters):
            gain[:, t] = link_gain(self.model, tx.antenna, self.tx_pos[t], self.rx_pos)
        for r, rx in enumerate(self.receivers):
            gain[r] *= _toward(rx.antenna, self.rx_pos[r], self.tx_pos)[1]
        self.coupling = gain * np.array([tx.tx_power for tx in self.transmitters])

        tx_net = np.array([net.id for net, _, _ in tx_entries], dtype=object)
        tx_link = np.array([link.id for _, link, _ in tx_entries], dtype=object)
        self.interferes = np.ones(gain.shape, dtype=bool)
        self.signal = np.zeros(len(self.receivers))
        self.noise = np.array([sys.noise_at(pos, band_index) for pos in self.rx_pos])
        self.margin = np.empty(len(self.receivers))
        for r, (net, link, rx) in enumerate(rx_entries):
            if net.orthogonal:
                self.interferes[r] &= (tx_net != net.id) | (tx_link == link.id)
            if link.transmitter is None:
                if rx.explicit_margin is None:
                    raise ValueError(f"receiver {rx.id}: no serving signal and no explicit margin")
                self.margin[r] = rx.explicit_margin
                continue
            s = self.row[link.transmitter.id]
            self.interferes[r, s] = False
            self.signal[r] = self.coupling[r, s]
            self.margin[r] = self.signal[r] / rx.beta - self.noise[r]

    def slot(self, time_index: int) -> _Slot:
        """The budget in one time quantum.  The interference is a numpy reduction,
        not a BLAS product, so that it does not depend on any thread count."""
        if not 0 <= time_index < self.sys.grid_spec.horizon:
            raise IndexError(f"time index {time_index} out of range")
        nu = self.band_index
        tx_active = np.array([tx.is_active(time_index, nu) for tx in self.transmitters], dtype=bool)
        rx_active = np.array([rx.is_active(time_index, nu) for rx in self.receivers], dtype=bool)
        interference = np.sum(self.coupling, axis=1, where=self.interferes & tx_active)
        return _Slot(self, tx_active, rx_active, interference, self.margin - interference)


def _receiver_budget(sys: RFSystem, rx: Receiver | str, band_index: int) -> tuple[_LinkBudget, int]:
    """The band's link budget and the receiver's row in it."""
    rx_id = rx if isinstance(rx, str) else rx.id
    sys.receiver(rx_id)  # unknown ids raise UnknownEntityError
    budget = _LinkBudget(sys, band_index)
    return budget, budget.row[rx_id]


def interference_margin(sys: RFSystem, rx: Receiver | str, band_index: int = 0) -> float:
    """Interference power the receiver tolerates at zero separation.

    Serving receivers derive it from their link budget; receive-only
    links must declare it explicitly.  A negative value is returned as is
    and marks the receiver as infeasible even without interferers.
    """
    budget, r = _receiver_budget(sys, rx, band_index)
    return float(budget.margin[r])


def receiver_sinr(sys: RFSystem, rx: Receiver | str, time_index: int = 0, band_index: int = 0) -> float:
    """Experienced SINR (linear) of a served receiver."""
    rx_id = rx if isinstance(rx, str) else rx.id
    if sys.link_of(rx_id).transmitter is None:
        raise ValueError(f"receiver {rx_id} has no serving transmitter")
    budget, r = _receiver_budget(sys, rx_id, band_index)
    return float(budget.signal[r] / (budget.slot(time_index).interference[r] + budget.noise[r]))


# ---------------------------------------------------------------------------
# evaluation kernel


def _noise_vector(sys: RFSystem, band_index: int, lo: int, hi: int) -> float | np.ndarray:
    """Ambient noise of the regions [lo, hi) on one band: the band's scalar
    noise, or an array where an override falls among them."""
    overrides = {chi - lo: w for (chi, nu), w in sys.noise_cell_overrides.items() if nu == band_index and lo <= chi < hi}
    noise = sys.params.noise_for_band(band_index)
    if overrides:
        noise = np.full(hi - lo, noise)
        noise[list(overrides)] = list(overrides.values())
    return noise


def _evaluate(slots, pts: np.ndarray, noise: dict, entities: bool, block: np.ndarray) -> np.ndarray:
    """Each ``_Slot`` at the N points ``pts`` with its band's
    ``noise[slot.budget]``, written into ``block[:, i]``, of shape (2 to 4,
    slots, N): the first rows of MAP_FIELDS, occupancy and clamped opportunity,
    then raw opportunity (else it passes through the clamped row) and liability
    (else each slot's is computed in one spare buffer).  Transceivers run
    in ``budget.ids`` order, transmitters first; each gain field is computed
    once per model and applied to every slot where its transceiver is active.
    Returns the per-slot sums over the points, (3 + ids, slots): occupancy,
    clamped opportunity and liability, then, with ``entities``, the power each
    transmitter deposits or the clipped liability each receiver imposes (else
    zeros)."""
    first = slots[0].budget
    params, first_rx = first.sys.params, len(first.transmitters)
    occupancy, gamma, *kept = block
    raw = kept[0] if kept else gamma
    models: dict = {}  # slot indices by propagation model, in slot order; occupancy starts at the noise
    for i, slot in enumerate(slots):
        models.setdefault(id(slot.budget.model), []).append(i)
        occupancy[i] = noise[slot.budget]
    consumed = np.zeros((len(first.ids), len(slots)))
    field = np.empty(len(pts))  # a received power or an opportunity, in turn

    def fields(k: int):
        """Transceiver k's gain field, once per model, and the slots where k is active."""
        mask, j = (1, k) if k < first_rx else (2, k - first_rx)  # the slot's tx_active or rx_active
        for group in models.values():
            active = [i for i in group if slots[i][mask][j]]
            if active:
                yield link_gain(*slots[active[0]].budget.keys[k], pts), active

    for t, tx in enumerate(first.transmitters):
        for gain, active in fields(t):
            np.multiply(tx.tx_power, gain, out=field)
            total = np.sum(field) if entities else 0.0
            for i in active:
                np.add(occupancy[i], field, out=occupancy[i])
                consumed[t, i] = total

    np.subtract(params.p_max, occupancy, out=raw)
    for r in range(len(first.receivers)):
        for gain, active in fields(first_rx + r):
            for i in active:
                np.divide(slots[i].remaining[r], gain, out=field)
                np.minimum(raw[i], field, out=raw[i])
                if entities:
                    consumed[first_rx + r, i] = np.sum(np.clip(params.p_cmax - (occupancy[i] + field), 0.0, params.p_cmax))

    # gamma is raw clipped to [0, max(headroom, 0)], as np.clip computes it
    phi = kept[1] if len(kept) > 1 else [np.empty(len(pts))] * len(slots)  # else one spare, after the gain fields
    liability = np.empty((1, len(slots)))
    for i in range(len(slots)):
        headroom = np.subtract(params.p_cmax, occupancy[i], out=phi[i])
        np.maximum(headroom, 0.0, out=field)
        np.minimum(np.maximum(raw[i], 0.0, out=gamma[i]), field, out=gamma[i])
        headroom -= gamma[i]
        liability[0, i] = np.sum(headroom)
    return np.concatenate([np.sum(block[:2], axis=-1), liability, consumed])


def _point_slice(slot: _Slot, point, region_index=None):
    """The four MAP_FIELDS (occupancy, clamped opportunity, raw opportunity,
    liability) of one slot and every transceiver's consumption at one point.
    ``region_index`` takes the noise of that cell instead of locating the point."""
    budget, sys, nu = slot.budget, slot.budget.sys, slot.budget.band_index
    pts = np.array([point], dtype=float).reshape(1, 2)
    noise = sys.noise_at(point, nu) if region_index is None else _noise_vector(sys, nu, region_index, region_index + 1)
    block = np.empty((4, 1, 1))
    sums = _evaluate([slot], pts, {budget: noise}, True, block)
    return block[:, 0, 0], sums[3:, 0]


# ---------------------------------------------------------------------------
# public point operations


def tx_occupancy_at(sys: RFSystem, tx: Transmitter | str, point, time_index: int = 0, band_index: int = 0) -> float:
    """Power received from one transmitter at a point; zero while inactive."""
    tx_id = tx if isinstance(tx, str) else tx.id
    sys.transmitter(tx_id)  # unknown ids raise UnknownEntityError
    budget = _LinkBudget(sys, band_index)
    return float(_point_slice(budget.slot(time_index), point)[1][budget.row[tx_id]])


def aggregate_occupancy_at(sys: RFSystem, point, time_index: int = 0, band_index: int = 0) -> float:
    """Aggregate received power plus ambient noise at a point."""
    return float(_point_slice(_LinkBudget(sys, band_index).slot(time_index), point)[0][0])


def interference_opportunity(sys: RFSystem, rx: Receiver | str, point, time_index: int = 0, band_index: int = 0) -> float:
    """Interference power sourceable at a point without harming this receiver.

    The receiver's remaining margin (margin minus interference it already
    receives) projected back to a transmit power at the point.  Negative
    values mean the receiver is already experiencing harmful interference.
    """
    budget, r = _receiver_budget(sys, rx, band_index)
    return float(budget.slot(time_index).remaining[r] / link_gain(*budget.keys[len(budget.transmitters) + r], [point])[0])


def net_opportunity_at(sys: RFSystem, point, time_index: int = 0, band_index: int = 0) -> float:
    """Net spectrum opportunity at a point (raw, unclamped below zero).

    Minimum interference opportunity over all co-banded, co-active
    receivers, never exceeding the regulatory headroom p_max - P_bar.
    With no receivers it is the headroom itself.
    """
    return float(_point_slice(_LinkBudget(sys, band_index).slot(time_index), point)[0][2])


@dataclass(frozen=True)
class ReceiverPointMetrics:
    receiver_id: str
    margin: float  # tolerable interference at zero separation
    bound: float  # receiver-imposed power bound at the point
    backprojected_interference: float  # existing interference, projected to the point
    opportunity: float  # bound minus backprojected interference (may be negative)
    liability: float  # spectrum the receiver consumes at the point


@dataclass(frozen=True)
class PointMetrics:
    point: tuple[float, float]
    time_index: int
    band_index: int
    tx_received: dict[str, float]
    occupancy: float
    receivers: tuple[ReceiverPointMetrics, ...]
    net_opportunity: float


def point_metrics(sys: RFSystem, point, time_index: int = 0, band_index: int = 0) -> PointMetrics:
    """Full consumption breakdown at one point."""
    budget = _LinkBudget(sys, band_index)
    slot = budget.slot(time_index)
    fields, consumed = _point_slice(slot, point)
    first_rx = len(budget.transmitters)
    views = []
    for r, rx in enumerate(budget.receivers):
        if not slot.rx_active[r]:
            continue
        g = float(link_gain(*budget.keys[first_rx + r], [point])[0])
        margin = float(budget.margin[r])
        views.append(
            ReceiverPointMetrics(
                receiver_id=rx.id,
                margin=margin,
                bound=margin / g,
                backprojected_interference=float(slot.interference[r]) / g,
                opportunity=float(slot.remaining[r]) / g,
                liability=float(consumed[first_rx + r]),
            )
        )
    return PointMetrics(
        point=(float(point[0]), float(point[1])),
        time_index=time_index,
        band_index=band_index,
        tx_received={tx.id: float(consumed[t]) for t, tx in enumerate(budget.transmitters)},
        occupancy=float(fields[0]),
        receivers=tuple(views),
        net_opportunity=float(fields[2]),
    )


# ---------------------------------------------------------------------------
# cell and system level


@dataclass(frozen=True)
class CellMetrics:
    cell: Cell
    occupancy: float  # omega
    opportunity: float  # gamma, clamped to [0, p_cmax - omega]
    raw_opportunity: float  # net opportunity before clamping
    liability: float  # phi = p_cmax - (omega + gamma)
    tx_occupancy: dict[str, float]  # per-transmitter contribution
    rx_liability: dict[str, float]  # per-receiver consumption
    harmful_interference: frozenset[str]  # receivers with negative remaining margin


def _check_cell(sys: RFSystem, cell: Cell):
    """IndexError for an index of ``cell`` outside ``sys.grid`` (region, then
    band, then time); ValueError unless it equals the grid's own cell."""
    if cell != sys.grid.cell(cell.region_index, cell.time_index, cell.band_index):
        raise ValueError(f"cell {cell.region_index, cell.time_index, cell.band_index} is not the grid's own")


def cell_metrics(sys: RFSystem, cell: Cell) -> CellMetrics:
    """Occupancy / opportunity / liability of one unit spectrum space of
    ``sys.grid``, evaluated at its sample point.  IndexError for an index
    outside the grid, ValueError for a cell not equal to the grid's own."""
    _check_cell(sys, cell)
    budget = _LinkBudget(sys, cell.band_index)
    slot = budget.slot(cell.time_index)
    fields, consumed = _point_slice(slot, cell.sample_point, cell.region_index)
    first_rx = len(budget.transmitters)
    active = [(r, rx) for r, rx in enumerate(budget.receivers) if slot.rx_active[r]]
    return CellMetrics(
        cell=cell,
        occupancy=float(fields[0]),
        opportunity=float(fields[1]),
        raw_opportunity=float(fields[2]),
        liability=float(fields[3]),
        tx_occupancy={tx.id: float(consumed[t]) for t, tx in enumerate(budget.transmitters)},
        rx_liability={rx.id: float(consumed[first_rx + r]) for r, rx in active},
        harmful_interference=frozenset(rx.id for r, rx in active if slot.remaining[r] < 0.0),
    )


@dataclass
class ConsumptionMaps:
    """Per-cell consumption fields, shape (regions, time quanta, bands)."""

    grid: SpectrumGrid
    occupancy: np.ndarray
    opportunity: np.ndarray
    raw_opportunity: np.ndarray
    liability: np.ndarray


MAP_FIELDS = ("occupancy", "opportunity", "raw_opportunity", "liability")  # of ConsumptionMaps, and _evaluate's block rows
_PAIRWISE_LEAF = 128  # numpy sums at most this many elements in one unrolled loop


def _pairwise_half(n: int) -> int:
    """Where numpy's pairwise summation splits n > _PAIRWISE_LEAF elements:
    half of them, rounded down to a multiple of 8."""
    return n // 2 - n // 2 % 8


def _tree_spans(start: int, n: int, cap: int) -> list[tuple[int, int]]:
    """The chunks [lo, hi) of n regions from ``start``: nodes of numpy's
    pairwise-summation tree over them, each halved where numpy splits it until
    it holds at most max(cap, _PAIRWISE_LEAF) regions.  ``np.sum`` of a
    chunk is then that node's value bit for bit."""
    if n <= max(cap, _PAIRWISE_LEAF):
        return [(start, start + n)]
    half = _pairwise_half(n)
    return _tree_spans(start, half, cap) + _tree_spans(start + half, n - half, cap)


def _tree_fold(sums: dict, lo: int, hi: int):
    """The sum over regions [lo, hi) of the chunk sums ``sums[span]`` of its
    ``_tree_spans``, added up the same tree: ``np.sum`` over them bit for bit.
    (A chunk's np.sum starts from +0.0, so it can differ from the tree's node
    only in the sign of a zero, which the root's np.sum drops too.)"""
    if (lo, hi) in sums:
        return sums[lo, hi]
    mid = lo + _pairwise_half(hi - lo)
    return _tree_fold(sums, lo, mid) + _tree_fold(sums, mid, hi)


class _Plan(NamedTuple):
    """One system's share of a grid pass: its band budgets, its distinct slots,
    each (band, quantum)'s distinct one, its chunk spans, its kept maps and,
    once they have run, its chunks' sums."""

    sys: RFSystem
    budgets: list
    slots: list
    source: list
    spans: list
    maps: dict
    sums: dict


def _plan(sys: RFSystem, times, keep) -> _Plan:
    """``sys``'s share of a pass over the quanta ``times`` that keeps the maps ``keep``."""
    grid = sys.grid
    budgets = [_LinkBudget(sys, nu) for nu in range(grid.band_count)]
    slots, source, first = [], [], {}
    for j, k in np.ndindex(len(budgets), len(times)):
        slot = budgets[j].slot(times[k])
        source.append(first.setdefault((j, slot.tx_active.tobytes(), slot.rx_active.tobytes()), len(slots)))
        if source[-1] == len(slots):
            slots.append(slot)
    # The totals' chunks hold 4 x _CHUNK points, at most _CHUNK regions.  On 2 vCPUs, cut to _CHUNK // slots,
    # fine_sweep (4 slots) ran faster on one thread but much slower on two (numpy calls on 16k-region arrays are
    # too short to overlap under the GIL); cut to 2 x _CHUNK points, its peak RSS fell from 59.2 to 50.7 MB but
    # its op_s_p50 rose 6 % (0.0832 to 0.0885 s): one thread gained (74.7 to 68.2 ms), two lost their overlap.
    spans = _tree_spans(0, grid.region_count, _CHUNK // len(slots) if keep else min(_CHUNK, 4 * _CHUNK // len(slots)))
    maps = {name: np.empty((grid.region_count, len(times), len(budgets))) for name in keep}
    return _Plan(sys, budgets, slots, source, spans, maps, {})


def _evaluate_grids(systems, entities=False, times=None, keep=()):
    """Every region's slices of each system in the quanta ``times`` (by default
    all) and all bands, one link budget per band.

    Returns, per system, the maps named in ``keep`` (fields of
    ConsumptionMaps), each of shape (regions, times, bands), a repeated slot
    copied; the sums of occupancy, clamped opportunity and liability; and, with
    ``entities``, each transceiver's consumption by id.  Each sum is per slot
    ``np.sum`` over all regions bit for bit, the slots added up from 0.0 in
    (band, quantum) order, a repeated slot's reused; so no sum depends on
    _CHUNK or MUSE_THREADS.  The chunks of every system share one pool of at
    most MUSE_THREADS threads, largest (regions x distinct slots) first, and
    each thread reuses one block sized for the largest.  Where maps are kept,
    chunks hold _CHUNK // slots regions, so a block holds about _CHUNK points;
    elsewhere at most min(_CHUNK, 4 x _CHUNK // slots) regions, about 4 x _CHUNK."""
    plans = [_plan(sys, range(sys.grid.horizon) if times is None else times, keep) for sys in systems]
    rows = max([2] + [MAP_FIELDS.index(name) + 1 for name in keep])  # a block row past the second only for its map
    tasks = [(len(plan.slots) * (hi - lo), plan, (lo, hi)) for plan in plans for lo, hi in plan.spans]
    tasks.sort(key=lambda task: task[0], reverse=True)  # stable: equal chunks keep system and region order
    local = threading.local()

    def run(task):
        _, (sys, budgets, slots, source, _, maps, _), (lo, hi) = task
        if not hasattr(local, "block"):  # each thread reuses one
            local.block = np.empty(rows * tasks[0][0])
        block = local.block[: rows * len(slots) * (hi - lo)].reshape(rows, len(slots), hi - lo)
        noise = {b: _noise_vector(sys, b.band_index, lo, hi) for b in budgets}
        sums = _evaluate(slots, sys.grid.points(lo, hi), noise, entities, block)
        for (j, k), i in zip(np.ndindex(len(budgets), len(source) // len(budgets)), source):
            for name, field in maps.items():
                field[lo:hi, k, j] = block[MAP_FIELDS.index(name), i]
        return sums

    workers = min(thread_budget(), len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, tasks))
    else:
        parts = [run(task) for task in tasks]
    for (_, plan, span), part in zip(tasks, parts):
        plan.sums[span] = part
    results = []
    for plan in plans:
        sums = sum(_tree_fold(plan.sums, 0, plan.sys.grid.region_count).T[plan.source])
        consumed = dict(zip(plan.budgets[0].ids, map(float, sums[3:]))) if entities else {}
        results.append((plan.maps, sums[:3], consumed))
    return results


def compute_maps(sys: RFSystem) -> ConsumptionMaps:
    """Every cell's four fields, from one chunked pass over the grid."""
    return ConsumptionMaps(sys.grid, **_evaluate_grids([sys], keep=MAP_FIELDS)[0][0])


def entity_consumption(sys: RFSystem, entity: str) -> float:
    """Spectrum consumed by an entity, in watt x unit-region units.

    Transmitter members contribute their aggregated occupancy, receiver
    members their aggregated liability; composite entities sum over all
    member transceivers, ``system_report``'s sums added in sorted id order.
    """
    member_ids = sorted({m.id for m in entity_selector(sys, entity)})  # an unknown id raises before evaluation
    consumed = system_report(sys).entity_consumption
    total = 0.0
    for member_id in member_ids:
        total += consumed[member_id]
    return total


@dataclass(frozen=True)
class ConsumptionReport:
    psi_total: float
    psi_utilized: float
    psi_forbidden: float
    psi_available: float
    entity_consumption: dict[str, float]
    conservation_residual: float

    @property
    def utilized_fraction(self) -> float:
        return self.psi_utilized / self.psi_total

    @property
    def forbidden_fraction(self) -> float:
        return self.psi_forbidden / self.psi_total

    @property
    def available_fraction(self) -> float:
        return self.psi_available / self.psi_total


def system_report(sys: RFSystem, include_entities: bool = True) -> ConsumptionReport:
    """System-wide consumption spaces and the conservation check."""
    return system_reports([sys], include_entities)[0]


def system_reports(systems, include_entities: bool = True) -> list[ConsumptionReport]:
    """``system_report`` of each system, every system's chunks run in one thread pool."""
    reports = []
    for sys, (_, sums, entities) in zip(systems, _evaluate_grids(systems, include_entities)):
        psi_total = sys.params.p_cmax * sys.grid.cell_count  # total_spectrum_space, on the grid already built
        psi_utilized, psi_available, psi_forbidden = map(float, sums)
        residual = abs(psi_utilized + psi_forbidden + psi_available - psi_total) / psi_total
        reports.append(ConsumptionReport(psi_total, psi_utilized, psi_forbidden, psi_available, entities, residual))
    return reports
