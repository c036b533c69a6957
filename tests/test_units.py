import math
import warnings

import numpy as np
import pytest

from muse import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm


def test_known_points():
    assert dbm_to_watts(30.0) == 1.0
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert watts_to_dbm(1.0) == 30.0
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-15)
    assert linear_to_db(10.0) == pytest.approx(10.0, rel=1e-15)


def test_round_trip_precision():
    rng = np.random.default_rng(0)
    for dbm in rng.uniform(-250.0, 60.0, size=200):
        w = dbm_to_watts(dbm)
        assert watts_to_dbm(w) == pytest.approx(dbm, abs=1e-12)
    for w in 10.0 ** rng.uniform(-25.0, 3.0, size=200):
        assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-12)


def test_edges():
    assert watts_to_dbm(0.0) == -math.inf
    with pytest.raises(ValueError):
        watts_to_dbm(-1.0)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


def test_db_conversions_saturate_to_inf():
    """Where 10^(x / 10) overflows the float range, both conversions return inf,
    for a Python float and a numpy scalar alike, with no error and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (5000.0, np.float64(5000.0)):
            assert db_to_linear(value) == math.inf
            assert dbm_to_watts(value) == math.inf
        assert db_to_linear(np.float64(-5000.0)) == dbm_to_watts(-5000.0) == 0.0
