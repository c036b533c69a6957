import math

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from muse import OMNI, AntennaPattern, PropagationModel, path_gain
import muse.propagation as propagation
from muse.propagation import _power_law, _toward, link_gain, pattern_gain


@pytest.fixture
def model():
    return PropagationModel(alpha=3.5)


def test_gain_capped_inside_reference_distance(model):
    assert path_gain(model, 0.0) == 1.0
    assert path_gain(model, 0.5) == 1.0
    assert path_gain(model, 1.0) == 1.0


def test_gain_hand_values():
    assert path_gain(PropagationModel(alpha=2.0), 2.0) == 0.25
    # 35*log10(900) = 103.3985 dB of loss at 900 m
    g = path_gain(PropagationModel(alpha=3.5), 900.0)
    assert -10.0 * math.log10(g) == pytest.approx(103.39848783, abs=1e-6)


def test_gain_monotone_and_continuous(model):
    d = np.sort(np.random.default_rng(3).uniform(0.0, 5000.0, size=500))
    g = path_gain(model, d)
    assert np.all(np.diff(g) <= 0.0)
    assert np.all((g > 0.0) & (g <= 1.0))
    eps = 1e-9
    assert path_gain(model, 1.0 + eps) == pytest.approx(1.0, rel=1e-6)


def test_doubling_distance_drops_fixed_db(model):
    for d in (2.0, 10.0, 373.0):
        drop = 10.0 * math.log10(path_gain(model, d) / path_gain(model, 2.0 * d))
        assert drop == pytest.approx(35.0 * math.log10(2.0), rel=1e-12)


def test_directional_gain():
    assert pattern_gain(AntennaPattern(), np.arctan2(5.0, 5.0)) == 1.0
    sector = AntennaPattern(kind="sector", boresight=0.0, beamwidth=math.pi / 3, main_gain=4.0, back_gain=0.1)
    assert pattern_gain(sector, np.arctan2(0.0, 10.0)) == 4.0
    assert pattern_gain(sector, np.arctan2(0.0, -10.0)) == 0.1
    # the engine takes the main lobe where the bearing is undefined, at the antenna itself
    assert _toward(sector, (1.0, 1.0), [(1.0, 1.0), (11.0, 1.0), (-9.0, 1.0)])[1].tolist() == [4.0, 4.0, 0.1]


@settings(max_examples=300, deadline=None)
@given(
    boresight=st.floats(-4.0, 4.0),
    origin=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    to=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    widen=st.sampled_from([0.0, 0.0, 1e-15, -1e-15, 0.5]),
)
def test_directional_gain_agrees_with_the_engine_bearing(boresight, origin, to, widen):
    """The beam's edge is set at the point's bearing as ``_toward`` computes
    it (np.arctan2), or just beside it, and the pattern's gain toward that
    bearing agrees with the engine's sign test."""
    dx, dy = to[0] - origin[0], to[1] - origin[1]
    assume(dx != 0.0 or dy != 0.0)
    edge = abs((float(np.arctan2(dy, dx)) - boresight + math.pi) % (2.0 * math.pi) - math.pi)
    beamwidth = 2.0 * edge + widen
    assume(0.0 < beamwidth <= 2.0 * math.pi)
    sector = AntennaPattern(kind="sector", boresight=boresight, beamwidth=beamwidth, main_gain=4.0, back_gain=0.1)
    assert pattern_gain(sector, np.arctan2(dy, dx)) == _toward(sector, origin, [to])[1][0]


def test_link_gain_is_path_gain_times_pattern(model):
    pts = np.array([[1.0, 1.0], [101.0, 1.0], [-99.0, 1.0], [1.0, 1.5]])
    assert np.array_equal(link_gain(model, AntennaPattern(), (1.0, 1.0), pts), path_gain(model, [0.0, 100.0, 100.0, 0.5]))
    sector = AntennaPattern(kind="sector", boresight=0.0, beamwidth=math.pi / 3, main_gain=4.0, back_gain=0.1)
    g = link_gain(model, sector, (1.0, 1.0), pts)
    # main lobe at the coincident point, where the bearing is undefined
    assert g[0] == 4.0
    assert g[1] == path_gain(model, 100.0) * 4.0
    assert g[2] == path_gain(model, 100.0) * 0.1
    assert g[3] == 0.1


def test_path_gain_scalar_equals_array_and_leaves_its_input():
    model = PropagationModel(alpha=3.3, reference_distance=2.0)
    d = np.array([0.0, 1.0, 2.0, 2.0000001, 2.5, 900.0, 1e300, np.inf])
    before = d.copy()
    g = path_gain(model, d)
    assert d.tobytes() == before.tobytes()
    scalars = [path_gain(model, x) for x in d.tolist()]
    assert all(type(x) is float for x in scalars)
    assert np.array(scalars).tobytes() == g.tobytes()
    assert g[:3].tolist() == [1.0, 1.0, 1.0] and g[-1] == 0.0


def test_pattern_validation():
    with pytest.raises(ValueError):
        AntennaPattern(kind="sector", beamwidth=0.0)
    with pytest.raises(ValueError):
        AntennaPattern(kind="sector", beamwidth=1.0, main_gain=0.5)
    with pytest.raises(ValueError):
        AntennaPattern(kind="sector", beamwidth=1.0, main_gain=2.0, back_gain=3.0)
    with pytest.raises(ValueError, match="omni antenna gains must be 1"):
        AntennaPattern(main_gain=2.0, back_gain=2.0)
    with pytest.raises(ValueError):
        PropagationModel(alpha=-1.0)
    with pytest.raises(TypeError):
        PropagationModel(kind="power-law")


def _mask_power_law(model, d):
    """The power law written as a mask: (d / d0) ** -alpha, then 1 wherever d <= d0."""
    near = d <= model.reference_distance
    with np.errstate(divide="ignore", over="ignore"):
        gain = (d / model.reference_distance) ** -model.alpha
    gain[near] = 1.0
    return gain


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.sampled_from([0.01, 1.0, 2.0, 3.5, 6.0]) | st.floats(1e-3, 10.0),
    d0=st.sampled_from([1.0, 3.0, 0.1, 7.3]) | st.floats(1e-6, 1e6),
    distances=st.lists(st.floats(0.0, 1e7), max_size=20),
)
def test_power_law_equals_mask_form_bitwise(alpha, d0, distances):
    model = PropagationModel(alpha=alpha, reference_distance=d0)
    d = np.array([0.0, d0, np.nextafter(d0, np.inf), np.nextafter(d0, -np.inf)] + distances)
    assert _power_law(model, d.copy()).tobytes() == _mask_power_law(model, d).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    boresight=st.integers(-10, 10).map(lambda k: k * math.pi) | st.floats(-10.0 * math.pi, 10.0 * math.pi),
    bearing=st.sampled_from([math.pi, -math.pi, 0.0, -0.0]) | st.floats(-math.pi, math.pi),
)
def test_pattern_gain_offset_is_remainder_form_bitwise(boresight, bearing):
    """The beam's edge is set at |(b - boresight + pi) % 2pi - pi|, numpy's
    remainder: the bearing is in the main lobe there and, with the edge one
    float lower, in the back lobe, so pattern_gain's offset is that value."""
    edge = float(np.abs((np.float64(bearing) - boresight + math.pi) % (2.0 * math.pi) - math.pi))
    assume(edge > 0.0)
    for beam_edge, gain in [(edge, 4.0), (np.nextafter(edge, 0.0), 0.1)]:
        sector = AntennaPattern(kind="sector", boresight=boresight, beamwidth=2.0 * beam_edge, main_gain=4.0, back_gain=0.1)
        assert pattern_gain(sector, bearing) == gain
        assert pattern_gain(sector, np.array([bearing, bearing])).tolist() == [gain, gain]


def test_sector_main_lobe_only_at_zero_offset(model):
    """The main lobe applies where the offset is exactly zero, not where the
    squared distance underflows to zero."""
    sector = AntennaPattern(kind="sector", boresight=math.pi, beamwidth=1.0, main_gain=4.0, back_gain=0.1)
    pts = [[0.0, 0.0], [1e-170, 0.0], [-0.0, 0.0]]
    assert link_gain(model, sector, (0.0, 0.0), pts).tolist() == [4.0, 0.1, 4.0]
    assert _toward(sector, (0.0, 0.0), pts)[0].tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=500, deadline=None)
@given(
    p=st.tuples(st.floats(0.0, 4300.0), st.floats(0.0, 3700.0)),
    q=st.tuples(st.floats(0.0, 4300.0), st.floats(0.0, 3700.0)),
    alpha=st.sampled_from([2.0, 3.5, 4.1]),
)
def test_link_gain_distance_is_the_norm_bitwise(p, q, alpha):
    """Gain fields measure distance as connectivity hops always did: the
    row norm, sqrt(dx*dx + dy*dy).  (The norm of a 1-D vector is a dot
    product instead, which may fuse the multiply-add.)"""
    model = PropagationModel(alpha=alpha)
    expected = path_gain(model, np.linalg.norm(np.subtract([q], [p]), axis=1)[0])
    assert link_gain(model, OMNI, p, [q])[0] == expected


def _bearing_reference(antenna, origin, pts):
    """A sector's gain as the bearing path computes it: arctan2 of the
    offsets through pattern_gain, the main lobe where an offset is zero."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    dx, dy = pts[:, 0] - origin[0], pts[:, 1] - origin[1]
    return np.where((dx == 0.0) & (dy == 0.0), antenna.main_gain, pattern_gain(antenna, np.arctan2(dy, dx)))


_RADII = np.array([1e-300, 1e-200, 1e-160, 1e-150, 1e-140, 1e-100, 1e-20, 1e-9, 1e-3, 1.0, 37.5, 1e3, 1e6])


def _lobe_edge_points(antenna, origin, radii=_RADII):
    """Points at ``radii`` from ``origin`` on both lobe edges, one ulp either
    side of each edge bearing and one ulp either side of each coordinate,
    plus the origin and offsets of 1e-300 along either axis."""
    edges = np.array([antenna.boresight + s * 0.5 * antenna.beamwidth for s in (1.0, -1.0)])
    bearings = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    r, a = (x.ravel() for x in np.meshgrid(radii, bearings))
    x, y = origin[0] + r * np.cos(a), origin[1] + r * np.sin(a)
    xs = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf), x, x])
    ys = np.concatenate([y, y, y, np.nextafter(y, np.inf), np.nextafter(y, -np.inf)])
    extra = [origin, (origin[0] + 1e-300, origin[1]), (origin[0], origin[1] - 1e-300)]
    return np.concatenate([np.column_stack([xs, ys]), np.array(extra, dtype=float)])


_sectors = st.builds(
    lambda boresight, beamwidth, main, back: AntennaPattern("sector", boresight, beamwidth, main, main * back),
    st.sampled_from([0.0, math.pi, -math.pi, 0.5 * math.pi, 3.0 * math.pi, -3.0 * math.pi])
    | st.floats(-3.0 * math.pi, 3.0 * math.pi),
    st.sampled_from([2.0 * math.pi, math.pi, 1e-9, np.nextafter(2.0 * math.pi, 0.0)]) | st.floats(1e-9, 2.0 * math.pi),
    st.floats(1.0, 100.0),
    st.floats(1e-3, 1.0),
)
_origins = st.sampled_from([(0.0, 0.0), (2150.0, 1850.0)]) | st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(antenna=_sectors, origin=_origins, seed=st.integers(0, 2**32 - 1), d0=st.sampled_from([1.0, 2.5]))
def test_sector_lobe_sign_test_equals_the_bearing_path(antenna, origin, seed, d0):
    """The sign test classifies every point as the bearing path does: on
    and one ulp off both lobe edges at radii from 1e-300 to 1e6 m, at
    coincident points and offsets whose squares underflow, and at random
    bearings."""
    model = PropagationModel(alpha=3.5, reference_distance=d0)
    rng = np.random.default_rng(seed)
    a, r = rng.uniform(-4.0, 4.0, 200), 10.0 ** rng.uniform(-300.0, 6.0, 200)
    pts = np.concatenate([_lobe_edge_points(antenna, origin), np.column_stack([origin[0] + r * np.cos(a), origin[1] + r * np.sin(a)])])
    expected = _bearing_reference(antenna, origin, pts)
    distance, gain = _toward(antenna, origin, pts)
    assert gain.tobytes() == expected.tobytes()
    assert link_gain(model, antenna, origin, pts).tobytes() == (path_gain(model, distance) * expected).tobytes()


def test_sector_lobe_edges_need_the_band(monkeypatch):
    """The edge points above reach into the band: with a band of width 0
    some of them land in the other lobe than the bearing path gives."""
    antennas = [AntennaPattern("sector", b, w, 4.0, 0.25) for b in (0.3, 2.0, -2.5, 3.0 * math.pi) for w in (0.1, 1.7, math.pi, 5.0)]
    origin = (2150.0, 1850.0)
    monkeypatch.setattr(propagation, "_LOBE_BAND", 0.0)
    flipped = 0
    for antenna in antennas:
        pts = _lobe_edge_points(antenna, origin)
        flipped += int(np.sum(_toward(antenna, origin, pts)[1] != _bearing_reference(antenna, origin, pts)))
    assert flipped > 0


def test_sector_boresight_beyond_the_sign_test_takes_the_bearing_path():
    """Past 1e4 rad the bearing path's rounding is no longer within the band,
    so every point takes it."""
    origin = (10.0, -20.0)
    for boresight in (1e4 + 1.0, -1e7, 1e300):
        antenna = AntennaPattern("sector", boresight, 1.0, 4.0, 0.25)
        pts = _lobe_edge_points(antenna, origin)
        assert _toward(antenna, origin, pts)[1].tobytes() == _bearing_reference(antenna, origin, pts).tobytes()
