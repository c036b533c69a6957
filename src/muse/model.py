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
from itertools import chain
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


class _Transceiver:
    """What transmitters and receivers share: an id, a position, an antenna,
    and the time quanta and bands they are active in (None = all).  Input is
    normalized on construction so that transceivers stay hashable."""

    def __post_init__(self):
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        for name in ("active_intervals", "bands"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, frozenset):
                object.__setattr__(self, name, frozenset(value))

    def is_active(self, time_index: int, band_index: int) -> bool:
        return (self.active_intervals is None or time_index in self.active_intervals) and (
            self.bands is None or band_index in self.bands
        )


@dataclass(frozen=True)
class Transmitter(_Transceiver):
    id: str
    position: tuple[float, float]
    tx_power: float
    antenna: AntennaPattern = OMNI
    active_intervals: frozenset[int] | None = None  # None = every time quantum
    bands: frozenset[int] | None = None  # None = every band

    def __post_init__(self):
        super().__post_init__()
        if not self.tx_power > 0.0:
            raise ValueError(f"transmitter {self.id}: tx_power must be positive")


@dataclass(frozen=True)
class Receiver(_Transceiver):
    id: str
    position: tuple[float, float]
    beta: float  # minimum required SINR, linear
    antenna: AntennaPattern = OMNI
    active_intervals: frozenset[int] | None = None
    bands: frozenset[int] | None = None
    explicit_margin: float | None = None  # watts; required for receive-only links

    def __post_init__(self):
        super().__post_init__()
        if not self.beta > 0.0:
            raise ValueError(f"receiver {self.id}: beta must be positive")
        if self.explicit_margin is not None and not math.isfinite(self.explicit_margin):
            raise ValueError(f"receiver {self.id}: explicit margin must be finite")


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

    def _entry(self, entity_id: str, kinds: tuple[str, ...], noun: str) -> tuple:
        """The index entry of an entity of one of ``kinds``, else UnknownEntityError naming a ``noun``."""
        entry = self._index.get(entity_id)
        if entry is None or entry[0] not in kinds:
            raise UnknownEntityError(f"no such {noun}: {entity_id}")
        return entry

    def transmitter(self, tx_id: str) -> Transmitter:
        return self._entry(tx_id, ("tx",), "transmitter")[3]

    def receiver(self, rx_id: str) -> Receiver:
        return self._entry(rx_id, ("rx",), "receiver")[3]

    def link_of(self, transceiver_id: str) -> RFLink:
        return self._entry(transceiver_id, ("tx", "rx"), "transceiver")[2]

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
        if not self.grid_spec.worst_case_placement:
            return {e.id: e.position for _, _, e in chain(self.iter_transmitters(), self.iter_receivers())}

        positions: dict[str, tuple[float, float]] = {}
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
            serving = link.transmitter
            for e in link.transmitters + link.receivers:
                kind = "receiver" if isinstance(e, Receiver) else "transmitter"
                claim(e.id, kind)
                if kind == "transmitter" and e.tx_power > p_max:
                    violations.append(f"transmitter {e.id}: tx_power exceeds p_max")
                if not in_region(e.position):
                    violations.append(f"{kind} {e.id}: position outside the scenario region")
                active = all_indices(e.active_intervals, spec.horizon)
                bands = all_indices(e.bands, spec.band_count)
                if not active <= set(range(spec.horizon)):
                    violations.append(f"{kind} {e.id}: active interval outside the time horizon")
                if not bands <= set(range(spec.band_count)):
                    violations.append(f"{kind} {e.id}: band index outside the frequency range")
                if kind == "transmitter":
                    continue
                if serving is None:
                    if e.explicit_margin is None:
                        violations.append(
                            f"receiver {e.id}: receive-only link {link.id} requires an explicit interference margin"
                        )
                else:
                    if e.explicit_margin is not None:
                        violations.append(
                            f"receiver {e.id}: explicit margin not allowed when link {link.id} has a transmitter"
                        )
                    if not active <= all_indices(serving.active_intervals, spec.horizon):
                        violations.append(
                            f"receiver {e.id}: active while serving transmitter {serving.id} is inactive"
                        )
                    if not bands <= all_indices(serving.bands, spec.band_count):
                        violations.append(
                            f"receiver {e.id}: uses a band the serving transmitter {serving.id} does not occupy"
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

    # every sample point and transceiver lies in the region grown by two hex sides
    reach = math.hypot(spec.region_width + 4.0 * spec.hex_side, spec.region_height + 4.0 * spec.hex_side)
    if not reach <= 2.0 ** 511:  # squared distances across it must stay finite
        violations.append(f"region diagonal {reach:.6g} m (grown by two hex sides) exceeds 2^511 m")
    params = system.params
    noises = params.ambient_noise if isinstance(params.ambient_noise, tuple) else (params.ambient_noise,)
    if isinstance(params.ambient_noise, tuple) and len(noises) != spec.band_count:
        violations.append(f"ambient noise: {len(noises)} per-band values for {spec.band_count} bands")
    # occupancy + opportunity + liability = p_cmax holds to 1e-9 in float64 only
    # while occupancy stays within 2^20 p_cmax: bound it by every noise and EIRP
    peak = max([*noises, *system.noise_cell_overrides.values()])
    peak += sum(tx.tx_power * tx.antenna.main_gain for _, _, tx in system.iter_transmitters())
    if not peak <= 2.0 ** 20 * params.p_cmax:
        violations.append(f"occupancy may reach {peak:.6g} W, above 2^20 x p_cmax ({params.p_cmax:.6g} W)")
    # opportunity divides by link gains: the weakest, across that region, must be normal
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
        links = [link for net in system.networks for link in net.links]
    else:
        entry = system._entry(query, ("network", "link", "tx", "rx"), "entity")
        if entry[0] in ("tx", "rx"):
            return frozenset([entry[3]])
        links = [entry[2]] if entry[0] == "link" else entry[1].links
    return frozenset(e for link in links for e in link.transmitters + link.receivers)
