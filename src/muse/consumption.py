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

Evaluation has two stages.  The link budget of a band is built once per
call: every receiver's margin, and an R x T coupling matrix whose entry
(r, t) is the power receiver r takes from transmitter t, tx power x
``propagation.link_gain`` x the receiver's antenna gain toward t, with
the serving transmitter and orthogonal siblings masked out.  A time
quantum's remaining margins are then one masked row sum.  The kernel
evaluates (band, quantum) slots at N points one transceiver at a time,
transmitters first: each one's gain field (``link_gain`` of its model,
antenna and position) is computed once per model and applied to every slot
where it is active, so one field is alive at a time.  A slot gets the four
fields and, for the transceivers asked for, each one's consumption summed
over the points (received power for transmitters, clipped liability for
receivers).  Maps, the system report, entity consumption and the point and
cell queries (one slot, N = 1) all read from that kernel, so a point query
equals the map bitwise at a cell's sample point.

The grid pass cuts the regions into chunks that are nodes of numpy's
pairwise-summation tree (threads take whole chunks) and runs the kernel on
each over the distinct slots; a slot whose activity masks repeat an earlier
one's in its band is evaluated once.  Slot fields are contiguous rows of one
reused per-thread block.  Only the maps a caller keeps are allocated and
copied from it (``compute_maps`` all four, ``opportunity_map`` one,
connectivity two of one quantum, the totals none), and then chunks hold
_CHUNK // slots regions.  Each chunk's per-slot sums are folded up the same
tree, so every total is, per slot, ``np.sum`` over all regions bit for bit,
the slots then added in (band, quantum) order: no total depends on the chunk
size or MUSE_THREADS.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import Cell, SpectrumGrid
from .model import Receiver, RFSystem, Transmitter, entity_selector
from .propagation import _toward, link_gain

__all__ = [
    "PointMetrics",
    "ReceiverPointMetrics",
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
]

_CHUNK = 1 << 16  # most regions per chunk, _CHUNK // slots for the maps (see _tree_spans); bounds the block and each field


def _thread_budget() -> int:
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


class _LinkBudget:
    """Every receiver's link budget in one band.

    ``coupling[r, t]`` is the power receiver r takes from transmitter t:
    tx power x link gain x the receiver's antenna gain toward t.
    ``interferes[r, t]`` is false for r's serving transmitter and, in an
    orthogonal network, for the transmitters of r's sibling links.
    ``signal`` is the serving power (zero on receive-only links), ``noise``
    the ambient noise at each receiver and ``margin`` the interference it
    tolerates at zero separation.
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
        self.keys = [(self.model, e.antenna, sys.position_of(e)) for e in self.transmitters + self.receivers]
        positions = np.array([key[2] for key in self.keys], dtype=float).reshape(-1, 2)
        self.tx_pos, self.rx_pos = positions[: len(self.transmitters)], positions[len(self.transmitters) :]

        gain = np.empty((len(self.receivers), len(self.transmitters)))
        for t, tx in enumerate(self.transmitters):
            gain[:, t] = link_gain(self.model, tx.antenna, self.tx_pos[t], self.rx_pos)
        for r, rx in enumerate(self.receivers):
            gain[r] *= _toward(rx.antenna, self.rx_pos[r], self.tx_pos)[1]
        self.coupling = gain * np.array([tx.tx_power for tx in self.transmitters])

        tx_column = {tx.id: t for t, tx in enumerate(self.transmitters)}
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
            s = tx_column[link.transmitter.id]
            self.interferes[r, s] = False
            self.signal[r] = self.coupling[r, s]
            self.margin[r] = self.signal[r] / rx.beta - self.noise[r]

    def active(self, time_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Activity masks of the transmitters and the receivers in one time quantum."""
        if not 0 <= time_index < self.sys.grid_spec.horizon:
            raise IndexError(f"time index {time_index} out of range")
        nu = self.band_index
        return (
            np.array([tx.is_active(time_index, nu) for tx in self.transmitters], dtype=bool),
            np.array([rx.is_active(time_index, nu) for rx in self.receivers], dtype=bool),
        )

    def interference(self, tx_active: np.ndarray) -> np.ndarray:
        """Power each receiver takes from its active interferers.

        A numpy reduction, not a BLAS product, so that the result does not
        depend on any thread count."""
        return np.sum(self.coupling, axis=1, where=self.interferes & tx_active)


def _receiver_budget(sys: RFSystem, rx: Receiver | str, band_index: int) -> tuple[_LinkBudget, int]:
    """The band's link budget and the receiver's row in it."""
    rx_id = rx if isinstance(rx, str) else rx.id
    sys.receiver(rx_id)  # unknown ids raise UnknownEntityError
    budget = _LinkBudget(sys, band_index)
    return budget, [r.id for r in budget.receivers].index(rx_id)


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
    interference = budget.interference(budget.active(time_index)[0])
    return float(budget.signal[r] / (interference[r] + budget.noise[r]))


# ---------------------------------------------------------------------------
# evaluation kernel


def _noise_vector(sys: RFSystem, band_index: int, lo: int, hi: int) -> np.ndarray:
    """Ambient noise of the regions [lo, hi) on one band."""
    noise = np.full(hi - lo, sys.params.noise_for_band(band_index))
    for (chi, nu), w in sys.noise_cell_overrides.items():
        if nu == band_index and lo <= chi < hi:
            noise[chi - lo] = w
    return noise


def _evaluate(slots, pts: np.ndarray, noise: dict, members, out) -> np.ndarray:
    """Each slot (link budget, activity masks) at the N points ``pts`` with its
    band's ``noise[budget]``, written into ``out[i]``: four (N,) rows of
    occupancy, clamped opportunity, raw opportunity (may be the clamped row)
    and liability.  Transceivers run in ``budget.ids`` order, transmitters
    first; each gain field is computed once per model and applied to every
    slot where its transceiver is active.  Returns, per slot and per member
    transceiver, the power a transmitter deposits or the clipped liability a
    receiver imposes, summed over the points (zero for the others), (slots, ids).
    """
    first = slots[0][0]
    params, first_rx = first.sys.params, len(first.transmitters)
    models: dict = {}  # slot indices by propagation model, in slot order
    for i, (b, _) in enumerate(slots):
        models.setdefault(id(b.model), []).append(i)
    consumed = np.zeros((len(slots), len(first.ids)))
    field = np.empty(len(pts))  # a received power or an opportunity, in turn

    def fields(k: int):
        """Transceiver k's gain field, once per model, and the slots where k is active."""
        side, j = (0, k) if k < first_rx else (1, k - first_rx)  # into the tx or the rx mask
        for group in models.values():
            active = [i for i in group if slots[i][1][side][j]]
            if active:
                yield link_gain(*slots[active[0]][0].keys[k], pts), active

    for i, (b, _) in enumerate(slots):
        out[i][0][...] = noise[b]
    for t, tx in enumerate(first.transmitters):
        for gain, active in fields(t):
            np.multiply(tx.tx_power, gain, out=field)
            total = np.sum(field) if tx.id in members else 0.0
            for i in active:
                np.add(out[i][0], field, out=out[i][0])
                consumed[i, t] = total

    remaining = [b.margin - b.interference(a[0]) for b, a in slots]
    for occupancy, _, raw, _ in out:
        np.subtract(params.p_max, occupancy, out=raw)
    for r, rx in enumerate(first.receivers):
        for gain, active in fields(first_rx + r):
            for i in active:
                occupancy, _, raw, _ = out[i]
                np.divide(remaining[i][r], gain, out=field)
                np.minimum(raw, field, out=raw)
                if rx.id in members:
                    consumed[i, first_rx + r] = np.sum(np.clip(params.p_cmax - (occupancy + field), 0.0, params.p_cmax))

    # gamma is raw clipped to [0, max(headroom, 0)], as np.clip computes it
    for occupancy, gamma, raw, phi in out:
        headroom = np.subtract(params.p_cmax, occupancy, out=phi)
        np.maximum(headroom, 0.0, out=field)
        np.minimum(np.maximum(raw, 0.0, out=gamma), field, out=gamma)
        phi -= gamma
    return consumed


def _point_slice(sys: RFSystem, point, time_index: int, band_index: int, region_index=None):
    """Link budget, activity masks, the four fields (occupancy, clamped and
    raw opportunity, liability) and every transceiver's consumption at one
    point.  ``region_index`` takes the noise of that cell instead of locating
    the point."""
    budget = _LinkBudget(sys, band_index)
    active = budget.active(time_index)
    pts = np.array([point], dtype=float).reshape(1, 2)
    if region_index is None:
        noise = sys.noise_at(point, band_index)
    else:
        noise = _noise_vector(sys, band_index, region_index, region_index + 1)
    fields = np.empty((4, 1))
    consumed = _evaluate([(budget, active)], pts, {budget: noise}, frozenset(budget.ids), [fields])
    return budget, active, fields[:, 0], consumed[0]


# ---------------------------------------------------------------------------
# public point operations


def tx_occupancy_at(sys: RFSystem, tx: Transmitter | str, point, time_index: int = 0, band_index: int = 0) -> float:
    """Power received from one transmitter at a point; zero while inactive."""
    tx_id = tx if isinstance(tx, str) else tx.id
    sys.transmitter(tx_id)  # unknown ids raise UnknownEntityError
    budget, _, _, consumed = _point_slice(sys, point, time_index, band_index)
    return float(consumed[budget.ids.index(tx_id)])


def aggregate_occupancy_at(sys: RFSystem, point, time_index: int = 0, band_index: int = 0) -> float:
    """Aggregate received power plus ambient noise at a point."""
    return float(_point_slice(sys, point, time_index, band_index)[2][0])


def interference_opportunity(sys: RFSystem, rx: Receiver | str, point, time_index: int = 0, band_index: int = 0) -> float:
    """Interference power sourceable at a point without harming this receiver.

    The receiver's remaining margin (margin minus interference it already
    receives) projected back to a transmit power at the point.  Negative
    values mean the receiver is already experiencing harmful interference.
    """
    budget, r = _receiver_budget(sys, rx, band_index)
    remaining = budget.margin[r] - budget.interference(budget.active(time_index)[0])[r]
    return float(remaining / link_gain(*budget.keys[len(budget.transmitters) + r], [point])[0])


def net_opportunity_at(sys: RFSystem, point, time_index: int = 0, band_index: int = 0) -> float:
    """Net spectrum opportunity at a point (raw, unclamped below zero).

    Minimum interference opportunity over all co-banded, co-active
    receivers, never exceeding the regulatory headroom p_max - P_bar.
    With no receivers it is the headroom itself.
    """
    return float(_point_slice(sys, point, time_index, band_index)[2][2])


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
    budget, (tx_active, rx_active), fields, consumed = _point_slice(sys, point, time_index, band_index)
    interference = budget.interference(tx_active)
    first_rx = len(budget.transmitters)
    views = []
    for r, rx in enumerate(budget.receivers):
        if not rx_active[r]:
            continue
        g = float(link_gain(*budget.keys[first_rx + r], [point])[0])
        margin = float(budget.margin[r])
        existing = float(interference[r])
        views.append(
            ReceiverPointMetrics(
                receiver_id=rx.id,
                margin=margin,
                bound=margin / g,
                backprojected_interference=existing / g,
                opportunity=(margin - existing) / g,
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


def cell_metrics(sys: RFSystem, cell: Cell) -> CellMetrics:
    """Occupancy / opportunity / liability of one unit spectrum space,
    evaluated at its sample point."""
    budget, (tx_active, rx_active), fields, consumed = _point_slice(
        sys, cell.sample_point, cell.time_index, cell.band_index, cell.region_index
    )
    remaining = budget.margin - budget.interference(tx_active)
    first_rx = len(budget.transmitters)
    active = [(r, rx) for r, rx in enumerate(budget.receivers) if rx_active[r]]
    return CellMetrics(
        cell=cell,
        occupancy=float(fields[0]),
        opportunity=float(fields[1]),
        raw_opportunity=float(fields[2]),
        liability=float(fields[3]),
        tx_occupancy={tx.id: float(consumed[t]) for t, tx in enumerate(budget.transmitters)},
        rx_liability={rx.id: float(consumed[first_rx + r]) for r, rx in active},
        harmful_interference=frozenset(rx.id for r, rx in active if remaining[r] < 0.0),
    )


@dataclass
class ConsumptionMaps:
    """Per-cell consumption fields, shape (regions, time quanta, bands)."""

    grid: SpectrumGrid
    occupancy: np.ndarray
    opportunity: np.ndarray
    raw_opportunity: np.ndarray
    liability: np.ndarray


_FIELDS = ("occupancy", "opportunity", "raw_opportunity", "liability")  # of ConsumptionMaps
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


def _evaluate_grid(sys: RFSystem, members=frozenset(), times=None, keep=()):
    """Every region's slices in the quanta ``times`` (by default all) and all
    bands, one link budget per band.

    Returns the maps named in ``keep`` (fields of ConsumptionMaps), each of
    shape (regions, times, bands), a repeated slot copied; the sums of
    occupancy, clamped opportunity and liability; and each member id's
    consumption.  Each sum is per slot ``np.sum`` over all regions bit for bit,
    the slots added up from 0.0 in (band, quantum) order, a repeated slot's
    reused; so no sum depends on _CHUNK or MUSE_THREADS.  Where maps are kept,
    chunks hold _CHUNK // slots regions, so a block holds about _CHUNK points."""
    grid = sys.grid
    times = range(grid.horizon) if times is None else times
    budgets = [_LinkBudget(sys, nu) for nu in range(grid.band_count)]
    slots, source, first = [], [], {}  # the distinct slots; each (band, quantum)'s distinct one
    for j, k in np.ndindex(len(budgets), len(times)):
        active = budgets[j].active(times[k])
        source.append(first.setdefault((j, active[0].tobytes(), active[1].tobytes()), len(slots)))
        if source[-1] == len(slots):
            slots.append((budgets[j], active))
    spans = _tree_spans(0, grid.region_count, _CHUNK // len(slots) if keep else _CHUNK)
    width = max(hi - lo for lo, hi in spans)
    maps = {name: np.empty((grid.region_count, len(times), len(budgets))) for name in keep}
    names = ("occupancy", "opportunity", "liability", "raw_opportunity")[: 4 if "raw_opportunity" in keep else 3]
    local = threading.local()

    def run(span):
        lo, hi = span
        if not hasattr(local, "block"):  # each thread reuses one; raw opportunity is stored only for its map
            local.block = np.empty((len(names), len(slots), width))
        rows = dict(zip(names, local.block[..., : hi - lo]))
        raw = rows.get("raw_opportunity", rows["opportunity"])
        out = list(zip(rows["occupancy"], rows["opportunity"], raw, rows["liability"]))
        noise = {b: _noise_vector(sys, b.band_index, lo, hi) for b in budgets}
        consumed = _evaluate(slots, grid.points(lo, hi), noise, members, out)
        for (j, k), i in zip(np.ndindex(len(budgets), len(times)), source):
            for name, field in maps.items():
                field[lo:hi, k, j] = rows[name][i]
        return np.concatenate([np.sum(local.block[:3, :, : hi - lo], axis=-1), consumed.T])

    workers = min(_thread_budget(), len(spans))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, spans))
    else:
        parts = [run(span) for span in spans]
    sums = sum(_tree_fold(dict(zip(spans, parts)), 0, grid.region_count).T[source])
    entities = {i: float(v) for i, v in zip(budgets[0].ids, sums[3:]) if i in members}
    return maps, sums[:3], entities


def compute_maps(sys: RFSystem) -> ConsumptionMaps:
    """Evaluate the full grid, one (time, band) slice at a time."""
    return ConsumptionMaps(sys.grid, **_evaluate_grid(sys, keep=_FIELDS)[0])


def entity_consumption(sys: RFSystem, entity: str) -> float:
    """Spectrum consumed by an entity, in watt x unit-region units.

    Transmitter members contribute their aggregated occupancy, receiver
    members their aggregated liability; composite entities sum over all
    member transceivers.
    """
    _, _, consumed = _evaluate_grid(sys, frozenset(m.id for m in entity_selector(sys, entity)))
    total = 0.0
    for member_id in sorted(consumed):
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
    members = frozenset(m.id for m in entity_selector(sys, "system")) if include_entities else frozenset()
    _, sums, entities = _evaluate_grid(sys, members)
    psi_total = sys.params.p_cmax * sys.grid.cell_count
    psi_utilized, psi_available, psi_forbidden = map(float, sums)
    residual = abs(psi_utilized + psi_forbidden + psi_available - psi_total) / psi_total

    return ConsumptionReport(
        psi_total=psi_total,
        psi_utilized=psi_utilized,
        psi_forbidden=psi_forbidden,
        psi_available=psi_available,
        entity_consumption=entities,
        conservation_residual=residual,
    )
