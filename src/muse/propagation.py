"""Distance-dependent path gain and antenna directivity.

The propagation model is a power-law decay: the gain factor at
distance d is min(1, (d / d0) ** -alpha), always in (0, 1].
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PropagationModel",
    "AntennaPattern",
    "OMNI",
    "path_gain",
]

_LOBE_BAND = 1e-9  # relative half-width of the lobe edge that _toward resolves by bearing
_SIGN_TEST_BORESIGHT = 1e4  # radians; beyond it every sector point takes the bearing path


@dataclass(frozen=True)
class PropagationModel:
    alpha: float = 3.5
    reference_distance: float = 1.0

    def __post_init__(self):
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
            raise ValueError(f"unknown antenna kind {reprlib.repr(self.kind)}")  # bounded for any kind
        if self.kind == "omni" and not self.main_gain == self.back_gain == 1.0:
            raise ValueError("omni antenna gains must be 1")
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
    """``path_gain`` of nonnegative distances, computed in place in ``d``:
    (max(d, d0) / d0) ** -alpha, which is min(1, (d / d0) ** -alpha) bit for bit."""
    d0 = model.reference_distance
    np.maximum(d, d0, out=d)  # clamped first, so no distance divides by zero
    if d0 != 1.0:  # x / 1.0 is x for every float
        with np.errstate(over="ignore"):  # beyond the float range d / d0 is inf, whose gain is 0
            d /= d0
    return np.power(d, -model.alpha, out=d)


def link_gain(model: PropagationModel, antenna: AntennaPattern, origin, pts) -> np.ndarray:
    """Path gain times the gain of an antenna at ``origin`` toward each of
    the points, an (N, 2) array; the main lobe applies at points coincident
    with ``origin``, where the bearing is undefined."""
    d, gain = _toward(antenna, origin, pts)
    path = _power_law(model, d)  # d is _toward's own array
    return np.multiply(path, gain, out=path) if antenna.kind == "sector" else path


def _toward(antenna: AntennaPattern, origin, pts):
    """Distances from ``origin`` to the points and the antenna's gain
    toward each (main lobe at coincident points)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    dx = pts[:, 0] - origin[0]
    dy = pts[:, 1] - origin[1]
    if antenna.kind != "sector":
        return _distance(dx, dy), 1.0
    if not abs(antenna.boresight) <= _SIGN_TEST_BORESIGHT:
        gain = _bearing_gain(antenna, dx, dy)
        return _distance(dx, dy), gain
    # A point is in the main lobe iff its offset is within beamwidth / 2 of
    # the boresight: m = dx cos(boresight) + dy sin(boresight) - cos(beamwidth / 2) d >= 0.
    # Computed, m is off by a few roundings of terms up to d, about 1e-15 d;
    # the bearing path (arctan2, pattern_gain's wrap) by a few roundings of
    # angles up to |boresight| + 2 pi, about 1e-15 rad at |boresight| <= 3 pi
    # and 1e-11 rad at _SIGN_TEST_BORESIGHT, and an angle error e moves m by at
    # most e d.  So where |m| > _LOBE_BAND d both agree with the exact lobe;
    # the band's points take the bearing path.  The 1e-130 keeps in the band
    # coincident points and offsets under ~1e-140, whose squares in d underflow.
    lobe = np.multiply(dx, math.cos(antenna.boresight))
    lobe += np.multiply(dy, math.sin(antenna.boresight))
    d = _distance(dx, dy)
    lobe -= math.cos(0.5 * antenna.beamwidth) * d
    gain = np.where(lobe >= 0.0, antenna.main_gain, antenna.back_gain)
    band = np.add(d, 1e-130, out=dy)  # dy is spent
    band *= _LOBE_BAND
    edge = np.flatnonzero(np.abs(lobe, out=lobe) <= band)
    if edge.size:
        offsets = pts[edge] - origin
        gain[edge] = _bearing_gain(antenna, offsets[:, 0], offsets[:, 1])
    return d, gain


def _bearing_gain(antenna: AntennaPattern, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """A sector's gain toward the offsets from their bearing, the main lobe
    where an offset is zero (keyed on the offsets: a distance can underflow
    to 0 where they are not)."""
    return np.where((dx == 0.0) & (dy == 0.0), antenna.main_gain, pattern_gain(antenna, np.arctan2(dy, dx)))


def _distance(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy), computed in place in ``dx`` (``dy`` is
    overwritten too).  Each step is one correctly rounded IEEE-754
    operation, so the bits do not depend on the C library."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def pattern_gain(pattern: AntennaPattern, bearing):
    """Antenna gain toward the given bearing(s), radians."""
    delta = np.array(bearing, dtype=float)  # a copy, written in place below
    delta -= pattern.boresight
    delta += math.pi
    # delta % 2pi as numpy computes it, without the quotient: fmod, then 2pi
    # added where negative (fmod's -0.0, where % gives +0.0, meets -pi next)
    np.fmod(delta, 2.0 * math.pi, out=delta)
    np.add(delta, 2.0 * math.pi, out=delta, where=delta < 0.0)
    delta -= math.pi
    np.abs(delta, out=delta)
    gain = np.where(delta <= 0.5 * pattern.beamwidth, pattern.main_gain, pattern.back_gain)
    return float(gain) if gain.ndim == 0 else gain

