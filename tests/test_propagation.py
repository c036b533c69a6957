import math

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from muse import OMNI, AntennaPattern, PropagationModel, directional_gain, inverse_path_gain_bound, path_gain
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


def test_inverse_bound_examples(model):
    assert inverse_path_gain_bound(model, 1e-10, 0.5) == 1e-10
    assert inverse_path_gain_bound(model, 0.0, 12345.0) == 0.0
    # 108.8 dB of separation loss turns a -67 dBm margin into ~41.8 dBm
    d = 10.0 ** (108.8 / 35.0)
    bound = inverse_path_gain_bound(model, 2e-10, d)
    assert 10.0 * math.log10(bound * 1e3) == pytest.approx(-66.9897 + 108.8, abs=1e-3)


def test_inverse_bound_where_the_path_gain_underflows(model):
    assert path_gain(model, 1e200) == 0.0
    assert inverse_path_gain_bound(model, 1.0, 1e200) == math.inf
    assert inverse_path_gain_bound(model, 0.0, 1e200) == 0.0
    bound = inverse_path_gain_bound(model, 1.0, np.array([1e200, 2.0]))
    assert bound.tolist() == [math.inf, 1.0 / path_gain(model, 2.0)]
    assert inverse_path_gain_bound(model, 0.0, np.array([1e200, 2.0])).tolist() == [0.0, 0.0]


def test_inverse_bound_is_exact_inverse(model):
    rng = np.random.default_rng(7)
    d = rng.uniform(0.0, 10000.0, size=300)
    m = rng.uniform(1e-15, 1e-3, size=300)
    prod = inverse_path_gain_bound(model, m, d) * path_gain(model, d)
    assert np.allclose(prod, m, rtol=1e-12, atol=0.0)


def test_inverse_bound_monotone_in_distance(model):
    d = np.sort(np.random.default_rng(5).uniform(0.0, 4000.0, size=200))
    b = inverse_path_gain_bound(model, 3e-11, d)
    assert np.all(np.diff(b) >= 0.0)


def test_directional_gain():
    assert directional_gain(AntennaPattern(), (0, 0), (5, 5)) == 1.0
    sector = AntennaPattern(kind="sector", boresight=0.0, beamwidth=math.pi / 3, main_gain=4.0, back_gain=0.1)
    assert directional_gain(sector, (0, 0), (10, 0)) == 4.0
    assert directional_gain(sector, (0, 0), (-10, 0)) == 0.1
    with pytest.raises(ValueError):
        directional_gain(sector, (1.0, 1.0), (1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    boresight=st.floats(-4.0, 4.0),
    origin=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    to=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    widen=st.sampled_from([0.0, 0.0, 1e-15, -1e-15, 0.5]),
)
def test_directional_gain_agrees_with_the_engine_bearing(boresight, origin, to, widen):
    """The beam's edge is set at the point's bearing as ``_toward`` computes
    it (np.arctan2), or just beside it, and both helpers must agree."""
    dx, dy = to[0] - origin[0], to[1] - origin[1]
    assume(dx != 0.0 or dy != 0.0)
    edge = abs((float(np.arctan2(dy, dx)) - boresight + math.pi) % (2.0 * math.pi) - math.pi)
    beamwidth = 2.0 * edge + widen
    assume(0.0 < beamwidth <= 2.0 * math.pi)
    sector = AntennaPattern(kind="sector", boresight=boresight, beamwidth=beamwidth, main_gain=4.0, back_gain=0.1)
    assert directional_gain(sector, origin, to) == _toward(sector, origin, [to])[1][0]


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
    with pytest.raises(ValueError):
        PropagationModel(kind="two-ray")


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
