"""Distance-dependent path gain and antenna directivity.

The shipped propagation model is a power-law decay: the gain factor at
distance d is min(1, (d / d0) ** -alpha), always in (0, 1].  The ``kind``
field is a registry hook so alternative models (shadowing, fading) can be
plugged in later; only "power-law" is registered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PropagationModel",
    "AntennaPattern",
    "OMNI",
    "path_gain",
    "link_gain",
    "inverse_path_gain_bound",
    "directional_gain",
    "pattern_gain",
]

PROPAGATION_KINDS = ("power-law",)


@dataclass(frozen=True)
class PropagationModel:
    kind: str = "power-law"
    alpha: float = 3.5
    reference_distance: float = 1.0

    def __post_init__(self):
        if self.kind not in PROPAGATION_KINDS:
            raise ValueError(f"unknown propagation kind {self.kind!r}; known: {PROPAGATION_KINDS}")
        if not self.alpha > 0.0:
            raise ValueError("path-loss exponent must be positive")
        if not self.reference_distance > 0.0:
            raise ValueError("reference distance must be positive")


@dataclass(frozen=True)
class AntennaPattern:
    """Gain pattern of a transceiver antenna.

    ``omni`` radiates with gain 1 in every direction.  ``sector`` applies
    ``main_gain`` within +-beamwidth/2 of the boresight bearing and
    ``back_gain`` elsewhere.  Angles are radians, gains linear.
    """

    kind: str = "omni"
    boresight: float = 0.0
    beamwidth: float = 0.0
    main_gain: float = 1.0
    back_gain: float = 1.0

    def __post_init__(self):
        if self.kind not in ("omni", "sector"):
            raise ValueError(f"unknown antenna kind {self.kind!r}")
        if self.kind == "sector":
            if not 0.0 < self.beamwidth <= 2.0 * math.pi:
                raise ValueError("sector beamwidth must be in (0, 2*pi]")
            if not self.main_gain >= 1.0:
                raise ValueError("sector main_gain must be >= 1")
            if not 0.0 < self.back_gain <= self.main_gain:
                raise ValueError("sector back_gain must be in (0, main_gain]")


OMNI = AntennaPattern()


def path_gain(model: PropagationModel, distance):
    """Gain factor in (0, 1] at the given distance(s).

    Unity inside the reference distance, (d/d0)**-alpha beyond it.
    Accepts a scalar or an ndarray.
    """
    d = np.array(distance, dtype=float)  # a copy: _power_law overwrites it
    if np.any(d < 0.0):
        raise ValueError("distance must be nonnegative")
    gain = _power_law(model, d)
    return float(gain) if gain.ndim == 0 else gain


def _power_law(model: PropagationModel, d: np.ndarray) -> np.ndarray:
    """``path_gain`` of nonnegative distances, computed in place in ``d``."""
    near = d <= model.reference_distance
    with np.errstate(divide="ignore", over="ignore"):  # only where d <= d0, overwritten below
        d /= model.reference_distance
        d **= -model.alpha
    d[near] = 1.0
    return d


def link_gain(model: PropagationModel, antenna: AntennaPattern, origin, pts) -> np.ndarray:
    """Path gain times the gain of an antenna at ``origin`` toward each of
    the points, an (N, 2) array; the main lobe applies at points coincident
    with ``origin``, where the bearing is undefined."""
    d, gain = _toward(antenna, origin, pts)
    path = _power_law(model, d)  # d is _toward's own array
    return path * gain if antenna.kind == "sector" else path


def _toward(antenna: AntennaPattern, origin, pts):
    """Distances from ``origin`` to the points and the antenna's gain
    toward each (main lobe at coincident points)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    dx = pts[:, 0] - origin[0]
    dy = pts[:, 1] - origin[1]
    d = np.hypot(dx, dy)
    if antenna.kind == "omni":
        return d, 1.0
    return d, np.where(d == 0.0, antenna.main_gain, pattern_gain(antenna, np.arctan2(dy, dx)))


def inverse_path_gain_bound(model: PropagationModel, margin, distance):
    """Largest transmit power at the given distance whose received power
    equals ``margin`` after path loss.

    Equals margin / path_gain(distance): the bound matches the margin at
    zero separation and grows monotonically with distance.
    """
    d0 = model.reference_distance
    if np.ndim(margin) == 0 and float(margin) < 0.0:
        raise ValueError("margin must be nonnegative")
    if np.ndim(distance) == 0:
        d = float(distance)
        if d < 0.0:
            raise ValueError("distance must be nonnegative")
        if d <= d0:
            return margin * 1.0
        return margin * (d / d0) ** model.alpha
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("distance must be nonnegative")
    return margin * np.maximum(1.0, (d / d0) ** model.alpha)


def pattern_gain(pattern: AntennaPattern, bearing):
    """Antenna gain toward the given bearing(s), radians."""
    if pattern.kind == "omni":
        if np.ndim(bearing) == 0:
            return 1.0
        return np.ones_like(np.asarray(bearing, dtype=float))
    half = 0.5 * pattern.beamwidth
    delta = np.abs((np.asarray(bearing, dtype=float) - pattern.boresight + math.pi) % (2.0 * math.pi) - math.pi)
    gain = np.where(delta <= half, pattern.main_gain, pattern.back_gain)
    if np.ndim(bearing) == 0:
        return float(gain)
    return gain


def directional_gain(pattern: AntennaPattern, frm, to) -> float:
    """Gain of an antenna located at ``frm`` toward the point ``to``."""
    dx = to[0] - frm[0]
    dy = to[1] - frm[1]
    if dx == 0.0 and dy == 0.0:
        raise ValueError("undefined bearing: coincident points")
    if pattern.kind == "omni":
        return 1.0
    return float(pattern_gain(pattern, math.atan2(dy, dx)))
