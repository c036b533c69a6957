"""Scenario domain model: system-wide power bounds, transceivers, links,
networks, and the composed RF system.

All powers are stored in linear watts and all SINR thresholds as linear
ratios; dB values belong to the I/O layer.  Scenario objects are frozen
dataclasses, immutable after validation, and safe to share across
parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .grid import GridSpec, SpectrumGrid
from .propagation import OMNI, AntennaPattern, PropagationModel, path_gain

__all__ = [
    "SystemParams",
    "Transmitter",
    "Receiver",
    "RFLink",
    "RFNetwork",
    "RFSystem",
    "ValidationReport",
    "UnknownEntityError",
    "validate_system",
    "entity_selector",
]

SYSTEM_QUERY = "system"


@dataclass(frozen=True)
class SystemParams:
    """Regulatory power window and ambient noise floor.

    ``ambient_noise`` is a single value in watts or one value per
    frequency band.  ``p_cmax`` (the maximum spectrum consumption at a
    point) is derived, never stored.
    """

    p_max: float
    p_min: float
    ambient_noise: float | tuple[float, ...]

    def __post_init__(self):
        if not self.p_max > self.p_min > 0.0:
            raise ValueError("power window requires p_max > p_min > 0 in watts")
        noises = self.ambient_noise if isinstance(self.ambient_noise, tuple) else (self.ambient_noise,)
        if not all(w > 0.0 for w in noises):
            raise ValueError("ambient noise must be positive")

    @property
    def p_cmax(self) -> float:
        return self.p_max - self.p_min

    def noise_for_band(self, band_index: int) -> float:
        if isinstance(self.ambient_noise, tuple):
            return self.ambient_noise[band_index]
        return self.ambient_noise


@dataclass(frozen=True)
class Transmitter:
    id: str
    position: tuple[float, float]
    tx_power: float
    antenna: AntennaPattern = OMNI
    active_intervals: frozenset[int] | None = None  # None = every time quantum
    bands: frozenset[int] | None = None  # None = every band

    def __post_init__(self):
        _coerce_transceiver_fields(self)
        if not self.tx_power > 0.0:
            raise ValueError(f"transmitter {self.id}: tx_power must be positive")

    def is_active(self, time_index: int, band_index: int) -> bool:
        return (self.active_intervals is None or time_index in self.active_intervals) and (
            self.bands is None or band_index in self.bands
        )


@dataclass(frozen=True)
class Receiver:
    id: str
    position: tuple[float, float]
    beta: float  # minimum required SINR, linear
    antenna: AntennaPattern = OMNI
    active_intervals: frozenset[int] | None = None
    bands: frozenset[int] | None = None
    explicit_margin: float | None = None  # watts; required for receive-only links

    def __post_init__(self):
        _coerce_transceiver_fields(self)
        if not self.beta > 0.0:
            raise ValueError(f"receiver {self.id}: beta must be positive")
        if self.explicit_margin is not None and not math.isfinite(self.explicit_margin):
            raise ValueError(f"receiver {self.id}: explicit margin must be finite")

    def is_active(self, time_index: int, band_index: int) -> bool:
        return (self.active_intervals is None or time_index in self.active_intervals) and (
            self.bands is None or band_index in self.bands
        )


def _coerce_transceiver_fields(obj):
    """Normalize constructor input so transceivers stay hashable."""
    object.__setattr__(obj, "position", (float(obj.position[0]), float(obj.position[1])))
    for name in ("active_intervals", "bands"):
        value = getattr(obj, name)
        if value is not None and not isinstance(value, frozenset):
            object.__setattr__(obj, name, frozenset(value))


@dataclass(frozen=True)
class RFLink:
    """Zero or one transmitter plus receivers.

    ``transmitters`` is a tuple so that malformed scenarios (more than one
    transmitter) can be represented and reported by validate_system rather
    than rejected at construction.
    """

    id: str
    transmitters: tuple[Transmitter, ...] = ()
    receivers: tuple[Receiver, ...] = ()

    @property
    def transmitter(self) -> Transmitter | None:
        return self.transmitters[0] if self.transmitters else None


@dataclass(frozen=True)
class RFNetwork:
    id: str
    links: tuple[RFLink, ...] = ()
    orthogonal: bool = False  # links of this network do not interfere with each other


@dataclass(frozen=True)
class RFSystem:
    """A full scenario: parameters, propagation, grid and networks."""

    params: SystemParams
    propagation: PropagationModel
    grid_spec: GridSpec
    networks: tuple[RFNetwork, ...] = ()
    band_propagation: Mapping[int, PropagationModel] = field(default_factory=dict)
    noise_cell_overrides: Mapping[tuple[int, int], float] = field(default_factory=dict)

    # -- structure accessors ----------------------------------------------

    def iter_transmitters(self) -> Iterator[tuple[RFNetwork, RFLink, Transmitter]]:
        for net in self.networks:
            for link in net.links:
                for tx in link.transmitters:
                    yield net, link, tx

    def iter_receivers(self) -> Iterator[tuple[RFNetwork, RFLink, Receiver]]:
        for net in self.networks:
            for link in net.links:
                for rx in link.receivers:
                    yield net, link, rx

    @cached_property
    def _index(self) -> dict[str, tuple]:
        idx: dict[str, tuple] = {}
        for net in self.networks:
            idx.setdefault(net.id, ("network", net))
            for link in net.links:
                idx.setdefault(link.id, ("link", net, link))
                for tx in link.transmitters:
                    idx.setdefault(tx.id, ("tx", net, link, tx))
                for rx in link.receivers:
                    idx.setdefault(rx.id, ("rx", net, link, rx))
        return idx

    def transmitter(self, tx_id: str) -> Transmitter:
        entry = self._index.get(tx_id)
        if entry is None or entry[0] != "tx":
            raise UnknownEntityError(f"no such transmitter: {tx_id}")
        return entry[3]

    def receiver(self, rx_id: str) -> Receiver:
        entry = self._index.get(rx_id)
        if entry is None or entry[0] != "rx":
            raise UnknownEntityError(f"no such receiver: {rx_id}")
        return entry[3]

    def link_of(self, transceiver_id: str) -> RFLink:
        entry = self._index.get(transceiver_id)
        if entry is None or entry[0] not in ("tx", "rx"):
            raise UnknownEntityError(f"no such transceiver: {transceiver_id}")
        return entry[2]

    def model_for_band(self, band_index: int) -> PropagationModel:
        return self.band_propagation.get(band_index, self.propagation)

    # -- grid and placement -------------------------------------------------

    @cached_property
    def grid(self) -> SpectrumGrid:
        return SpectrumGrid(self.grid_spec)

    @cached_property
    def effective_positions(self) -> dict[str, tuple[float, float]]:
        """Evaluation positions for every transceiver.

        With worst-case placement each transceiver moves to the vertex of
        its containing hexagon (the farthest points from a centroid sample
        point), choosing the vertex farthest from its link counterpart so
        the link budget is pessimal.  Otherwise positions are returned
        unchanged.
        """
        positions: dict[str, tuple[float, float]] = {}
        if not self.grid_spec.worst_case_placement:
            for _, _, tx in self.iter_transmitters():
                positions[tx.id] = tx.position
            for _, _, rx in self.iter_receivers():
                positions[rx.id] = rx.position
            return positions

        grid = self.grid
        for _, link, tx in self.iter_transmitters():
            ref = None
            if link.receivers:
                xs = [r.position[0] for r in link.receivers]
                ys = [r.position[1] for r in link.receivers]
                ref = (sum(xs) / len(xs), sum(ys) / len(ys))
            positions[tx.id] = _worst_case_vertex(grid, tx.position, ref)
        for _, link, rx in self.iter_receivers():
            serving = link.transmitter
            ref = serving.position if serving is not None else None
            positions[rx.id] = _worst_case_vertex(grid, rx.position, ref)
        return positions

    def position_of(self, transceiver) -> tuple[float, float]:
        return self.effective_positions[transceiver.id]

    def noise_at(self, point, band_index: int) -> float:
        """Ambient noise at an arbitrary point, honoring per-cell overrides."""
        base = self.params.noise_for_band(band_index)
        if not self.noise_cell_overrides:
            return base
        try:
            chi = self.grid.locate(point)
        except ValueError:
            return base
        return self.noise_cell_overrides.get((chi, band_index), base)


def _worst_case_vertex(grid: SpectrumGrid, position, counterpart) -> tuple[float, float]:
    chi = grid.locate(position)
    vertices = grid.hex_vertices(chi)
    if counterpart is None:
        choice = vertices[0]
    else:
        d2 = (vertices[:, 0] - counterpart[0]) ** 2 + (vertices[:, 1] - counterpart[1]) ** 2
        choice = vertices[int(d2.argmax())]
    return (float(choice[0]), float(choice[1]))


class UnknownEntityError(LookupError):
    """Raised when an entity query names no transceiver, link or network."""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self):
        if self.violations:
            raise ValueError("invalid scenario: " + "; ".join(self.violations))


def validate_system(system: RFSystem) -> ValidationReport:
    """Check every scenario invariant; returns a report, never raises.

    An empty violation list means the scenario is valid.
    """
    violations: list[str] = []
    spec = system.grid_spec
    p_max = system.params.p_max

    seen: dict[str, str] = {}

    def claim(entity_id: str, kind: str):
        if entity_id in seen:
            violations.append(f"duplicate id {entity_id!r} ({seen[entity_id]} and {kind})")
        else:
            seen[entity_id] = kind

    def in_region(pos) -> bool:
        return 0.0 <= pos[0] <= spec.region_width and 0.0 <= pos[1] <= spec.region_height

    def all_indices(explicit, upper):
        return set(range(upper)) if explicit is None else set(explicit)

    for net in system.networks:
        claim(net.id, "network")
        for link in net.links:
            claim(link.id, "link")
            if len(link.transmitters) > 1:
                violations.append(f"link {link.id}: has {len(link.transmitters)} transmitters (at most one allowed)")
            for tx in link.transmitters:
                claim(tx.id, "transmitter")
                if tx.tx_power > p_max:
                    violations.append(f"transmitter {tx.id}: tx_power exceeds p_max")
                if not in_region(tx.position):
                    violations.append(f"transmitter {tx.id}: position outside the scenario region")
                if not all_indices(tx.active_intervals, spec.horizon) <= set(range(spec.horizon)):
                    violations.append(f"transmitter {tx.id}: active interval outside the time horizon")
                if not all_indices(tx.bands, spec.band_count) <= set(range(spec.band_count)):
                    violations.append(f"transmitter {tx.id}: band index outside the frequency range")
            serving = link.transmitter
            for rx in link.receivers:
                claim(rx.id, "receiver")
                if not in_region(rx.position):
                    violations.append(f"receiver {rx.id}: position outside the scenario region")
                rx_active = all_indices(rx.active_intervals, spec.horizon)
                rx_bands = all_indices(rx.bands, spec.band_count)
                if not rx_active <= set(range(spec.horizon)):
                    violations.append(f"receiver {rx.id}: active interval outside the time horizon")
                if not rx_bands <= set(range(spec.band_count)):
                    violations.append(f"receiver {rx.id}: band index outside the frequency range")
                if serving is None:
                    if rx.explicit_margin is None:
                        violations.append(
                            f"receiver {rx.id}: receive-only link {link.id} requires an explicit interference margin"
                        )
                else:
                    if rx.explicit_margin is not None:
                        violations.append(
                            f"receiver {rx.id}: explicit margin not allowed when link {link.id} has a transmitter"
                        )
                    if not rx_active <= all_indices(serving.active_intervals, spec.horizon):
                        violations.append(
                            f"receiver {rx.id}: active while serving transmitter {serving.id} is inactive"
                        )
                    if not rx_bands <= all_indices(serving.bands, spec.band_count):
                        violations.append(
                            f"receiver {rx.id}: uses a band the serving transmitter {serving.id} does not occupy"
                        )

    try:
        grid = system.grid
    except ValueError as exc:
        violations.append(str(exc))
        grid = None

    if grid is not None:
        for (chi, nu), w in system.noise_cell_overrides.items():
            if not 0 <= chi < grid.region_count or not 0 <= nu < spec.band_count:
                violations.append(f"noise override ({chi}, {nu}) outside the grid")
            elif not w > 0.0:
                violations.append(f"noise override ({chi}, {nu}) must be positive")

    # opportunity divides by link gains: the weakest, across the region grown by two hex sides, must be normal
    reach = math.hypot(spec.region_width + 4.0 * spec.hex_side, spec.region_height + 4.0 * spec.hex_side)
    antennas = [e.antenna for net in system.networks for link in net.links for e in link.transmitters + link.receivers]
    weakest = min([1.0] + [a.back_gain for a in antennas if a.kind == "sector"])
    for nu in range(spec.band_count):
        gain = path_gain(system.model_for_band(nu), reach) * weakest
        if not gain >= 2.0 ** -1022:  # the smallest normal float
            violations.append(f"band {nu}: link gain {gain:.3g} at {reach:.6g} m is not a normal float")

    return ValidationReport(tuple(violations))


def entity_selector(system: RFSystem, query: str) -> frozenset:
    """Resolve an entity query to the closed set of its transceivers.

    The query may name a transceiver, a link, a network, or "system" for
    the whole scenario.
    """
    if query == SYSTEM_QUERY:
        members = [tx for _, _, tx in system.iter_transmitters()]
        members += [rx for _, _, rx in system.iter_receivers()]
        return frozenset(members)
    entry = system._index.get(query)
    if entry is None:
        raise UnknownEntityError(f"no such entity: {query}")
    kind = entry[0]
    if kind in ("tx", "rx"):
        return frozenset([entry[3]])
    if kind == "link":
        link = entry[2]
        return frozenset(link.transmitters + link.receivers)
    net = entry[1]
    members = []
    for link in net.links:
        members.extend(link.transmitters)
        members.extend(link.receivers)
    return frozenset(members)
