import math

import numpy as np
import pytest

from muse import AntennaPattern, PropagationModel, directional_gain, inverse_path_gain_bound, path_gain


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


def test_link_gain_is_path_gain_times_pattern(model):
    from muse.propagation import link_gain

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
    with pytest.raises(ValueError):
        PropagationModel(alpha=-1.0)
    with pytest.raises(ValueError):
        PropagationModel(kind="two-ray")
