"""Spectrum-management-function performance spaces.

A management function (sharing policy, recovery pipeline, exploitation
scheduler) is scored by a per-cell attribute which aggregates over the
grid.  Three scorers are provided:

* ``apply_policy``         sharing: how much available spectrum a policy
                           implies accessible, guards off, or wrongly
                           opens up;
* ``compare_maps``         recovery: how much of the true opportunity an
                           estimated map recovers, loses, or incurses;
* ``exploitation_report``  exploitation: how much recovered spectrum the
                           granted powers consume, strand, or overdraw.

All overlap masses use the min/max decomposition, so the partition
identity  sum(min(truth, x)) + sum(max(0, truth - x)) == sum(truth)
holds per cell.

``simulate_recovery`` is a parametric stand-in for a real sensing
pipeline: it perturbs the transmitter population (missed detections,
false positives, geolocation and power errors) and recomputes the
opportunity map with receiver constraints derived from the sensed
transmitters.  Any externally estimated map can be scored with
``compare_maps`` instead.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .consumption import _evaluate_grid
from .model import RFLink, RFNetwork, RFSystem, Transmitter
from .units import db_to_linear

__all__ = [
    "OpportunityMap",
    "SMFReport",
    "SensingErrorModel",
    "opportunity_map",
    "smf_aggregate",
    "compare_maps",
    "apply_policy",
    "exploitation_report",
    "simulate_recovery",
]


@dataclass(frozen=True)
class OpportunityMap:
    """Per-cell opportunity values in watts, shape (regions, quanta, bands)."""

    values: np.ndarray
    centroids: np.ndarray  # (regions, 2), identifies the grid
    provenance: str = "ground-truth"  # ground-truth | implied-by-policy | estimated

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError("opportunity values must have shape (regions, quanta, bands)")
        if len(self.centroids) != self.values.shape[0]:
            raise ValueError("centroid count does not match region count")

    @property
    def total(self) -> float:
        return float(np.sum(self.values))


def opportunity_map(sys: RFSystem, provenance: str = "ground-truth") -> OpportunityMap:
    values = _evaluate_grid(sys, keep=("opportunity",))[0]["opportunity"]
    return OpportunityMap(values=values, centroids=np.asarray(sys.grid.centroids), provenance=provenance)


def _check_grid(m: OpportunityMap, shape: tuple[int, ...], centroids: np.ndarray):
    """Raise unless the map has this shape and these region centroids."""
    if m.values.shape != shape or not np.array_equal(m.centroids, centroids):
        raise ValueError("grid mismatch: maps were built on different discretizations")


@dataclass(frozen=True)
class SMFReport:
    """Totals of the management spaces; sections not computed stay None.

    ``theta`` is the signed per-cell attribute of the scored function and
    ``theta_total`` its aggregate over the grid.  Totals are in watt x
    unit-region units (numerically equal to watts under unit cell
    weights).
    """

    theta: np.ndarray
    theta_total: float
    truth_total: float
    # sharing
    implied_available: float | None = None
    implied_guard: float | None = None
    implied_incursed: float | None = None
    # recovery
    recovered_available: float | None = None
    lost_available: float | None = None
    potentially_incursed: float | None = None
    # exploitation
    exploited_available: float | None = None
    unexploited_available: float | None = None
    incursed: float | None = None


def smf_aggregate(attribute) -> float:
    """Aggregate a per-cell attribute over the whole grid."""
    values = attribute.values if isinstance(attribute, OpportunityMap) else np.asarray(attribute)
    return float(np.sum(values))


def _score(truth: OpportunityMap, values: np.ndarray, overlap: str, deficit: str, excess: str) -> SMFReport:
    """The report of ``values`` scored against the truth: theta = values -
    truth and the overlap min(truth, values), deficit max(0, truth - values)
    and excess max(0, values - truth) masses, under the given field names."""
    theta = values - truth.values
    mass = np.minimum(truth.values, values)  # one buffer holds each mass in turn, so at most two beside the inputs
    totals = {overlap: float(np.sum(mass))}
    totals[deficit] = float(np.sum(np.maximum(0.0, np.negative(theta, out=mass), out=mass)))
    totals[excess] = float(np.sum(np.maximum(0.0, theta, out=mass)))
    return SMFReport(theta=theta, theta_total=float(np.sum(theta)), truth_total=truth.total, **totals)


def compare_maps(truth: OpportunityMap, other: OpportunityMap) -> SMFReport:
    """Score an estimated opportunity map against the ground truth.

    Per cell: error = other - truth; negative error is opportunity lost,
    positive error potentially leads to harmful interference; the
    recovered mass is the overlap min(truth, other).
    """
    _check_grid(other, truth.values.shape, truth.centroids)
    return _score(truth, other.values, "recovered_available", "lost_available", "potentially_incursed")


def apply_policy(truth: OpportunityMap, cap, p_cmax: float) -> SMFReport:
    """Score a sharing policy that caps the exploitable power per cell.

    ``cap`` may be a scalar, an array matching the map, or a callable
    mapping the truth values to caps.  Caps must lie in [0, p_cmax].
    """
    if callable(cap):
        cap_values = np.asarray(cap(truth.values), dtype=float)
    else:
        cap_values = np.broadcast_to(np.asarray(cap, dtype=float), truth.values.shape)
    if np.any(cap_values < 0.0) or np.any(cap_values > p_cmax):
        raise ValueError("policy cap out of range [0, p_cmax]")
    return _score(truth, cap_values, "implied_available", "implied_guard", "implied_incursed")


def exploitation_report(truth: OpportunityMap, granted) -> SMFReport:
    """Score granted transmit powers against the true opportunity."""
    granted_values = np.broadcast_to(np.asarray(granted, dtype=float), truth.values.shape)
    if np.any(granted_values < 0.0):
        raise ValueError("granted powers must be nonnegative")
    return _score(truth, granted_values, "exploited_available", "unexploited_available", "incursed")


MAX_FALSE_POSITIVES = 1 << 16  # most expected spurious transmitters: each one adds a gain field per evaluation


@dataclass(frozen=True)
class SensingErrorModel:
    """Parametric sensing errors for the recovery simulation."""

    p_missed_detection: float = 0.0
    false_positive_rate: float = 0.0  # expected spurious transmitters per (time, band) slice
    geolocation_sigma: float = 0.0  # meters
    power_error_sigma_db: float = 0.0
    false_positive_power: float | None = None  # watts; default samples true transmit powers
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_missed_detection <= 1.0:
            raise ValueError("p_missed_detection must be in [0, 1]")
        if not 0.0 <= self.false_positive_rate <= MAX_FALSE_POSITIVES:
            raise ValueError(f"false_positive_rate must be finite and nonnegative, at most {MAX_FALSE_POSITIVES}")
        if not (0.0 <= self.geolocation_sigma < math.inf and 0.0 <= self.power_error_sigma_db < math.inf):
            raise ValueError("error sigmas must be finite and nonnegative")
        if self.false_positive_power is not None and not 0.0 < self.false_positive_power < math.inf:
            raise ValueError("false_positive_power must be finite and positive")


def _sensed_power(tx_id: str, power: float, error_db: float) -> float:
    """``power`` off by ``error_db``; a ValueError where the sensed power is not a positive finite float."""
    try:
        sensed = power * db_to_linear(error_db)
    except OverflowError:
        sensed = math.inf
    if not 0.0 < sensed < math.inf:
        raise ValueError(f"sensing error: a power error of {error_db:.6g} dB puts transmitter {tx_id} out of range")
    return sensed


def perturb_system(sys: RFSystem, model: SensingErrorModel) -> RFSystem:
    """Build the sensed view of a scenario.

    Each true transmitter is dropped with the missed-detection
    probability, otherwise jittered in position (Gaussian, clamped to the
    region) and power (Gaussian in dB).  Spurious detections are added as
    transmit-only links in a trailing synthetic network.

    Receiver constraints derive from the sensed serving transmitter, so a
    missed transmitter silently takes its link's receivers with it: the
    sensing side cannot derive their margins.  Receive-only links carry
    declared margins and survive unchanged.
    """
    rng = np.random.default_rng(model.rng_seed)
    spec = sys.grid_spec

    true_powers = [tx.tx_power for _, _, tx in sys.iter_transmitters()]

    networks = []
    for net in sys.networks:
        links = []
        for link in net.links:
            had_tx = bool(link.transmitters)
            transmitters = []
            for tx in link.transmitters:
                if rng.random() < model.p_missed_detection:
                    continue
                jitter = rng.normal(0.0, model.geolocation_sigma, size=2)
                power = _sensed_power(tx.id, tx.tx_power, rng.normal(0.0, model.power_error_sigma_db))
                x = min(max(tx.position[0] + jitter[0], 0.0), spec.region_width)
                y = min(max(tx.position[1] + jitter[1], 0.0), spec.region_height)
                transmitters.append(dataclasses.replace(tx, position=(x, y), tx_power=power))
            if had_tx and not transmitters:
                receivers: tuple = ()
            else:
                receivers = link.receivers
            links.append(RFLink(id=link.id, transmitters=tuple(transmitters), receivers=receivers))
        networks.append(RFNetwork(id=net.id, links=tuple(links), orthogonal=net.orthogonal))

    spurious = []
    n_false = rng.poisson(model.false_positive_rate) if model.false_positive_rate > 0.0 else 0
    for k in range(n_false):
        x = rng.uniform(0.0, spec.region_width)
        y = rng.uniform(0.0, spec.region_height)
        if model.false_positive_power is not None:
            base = model.false_positive_power
        elif true_powers:
            base = true_powers[int(rng.integers(len(true_powers)))]
        else:
            base = 1e-3
        tx_id = f"sensed-artifact-tx-{k}"
        power = _sensed_power(tx_id, base, rng.normal(0.0, model.power_error_sigma_db))
        spurious.append(RFLink(id=f"sensed-artifact-{k}", transmitters=(Transmitter(id=tx_id, position=(x, y), tx_power=power),)))
    if spurious:
        networks.append(RFNetwork(id="sensed-artifacts", links=tuple(spurious)))

    return dataclasses.replace(sys, networks=tuple(networks))


def simulate_recovery(sys: RFSystem, model: SensingErrorModel) -> OpportunityMap:
    """Opportunity map as estimated through the parametric sensing errors.

    A pure function of (scenario, model, seed): identical seeds give
    bit-identical maps, and the zero-error model reproduces the truth map
    exactly.  With every transmitter missed and no false positives, the
    estimate degenerates to the empty-system map.
    """
    return opportunity_map(perturb_system(sys, model), provenance="estimated")
