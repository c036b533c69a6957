import dataclasses
import math

import numpy as np
import pytest

from muse import (
    OpportunityMap,
    RFLink,
    RFNetwork,
    SensingErrorModel,
    SpectrumGrid,
    apply_policy,
    compare_maps,
    db_to_linear,
    exploitation_report,
    opportunity_map,
    simulate_recovery,
)

from muse.smf import MAX_FALSE_POSITIVES, perturb_system

from helpers import empty_system, four_pair_system, probe_scenario, random_system, region_link_system, small_grid, traced_peak


def dyadic_map(rng, like: OpportunityMap, scale=1.0) -> OpportunityMap:
    """Random map whose values are multiples of 2**-20: float sums stay exact."""
    values = rng.integers(0, 1 << 20, size=like.values.shape).astype(float) * 2.0**-20 * scale
    return OpportunityMap(values=values, grid=like.grid)


@pytest.fixture(scope="module")
def truth():
    return opportunity_map(region_link_system(hex_side=230.0))


def test_aggregate_values(truth):
    def on_grid(values):
        return OpportunityMap(values=values, grid=truth.grid)

    assert on_grid(np.zeros_like(truth.values)).total == 0.0
    uniform = np.full_like(truth.values, 0.01)
    assert on_grid(uniform).total == pytest.approx(0.01 * uniform.size, rel=1e-12)
    rng = np.random.default_rng(5)
    assert truth.total == pytest.approx(math.fsum(truth.values.ravel().tolist()), rel=1e-12)
    random_attr = rng.uniform(-1, 1, size=truth.values.shape)
    assert on_grid(random_attr).total == pytest.approx(math.fsum(random_attr.ravel().tolist()), rel=1e-9)


def test_compare_identity_map(truth):
    rep = compare_maps(truth, truth)
    assert np.all(rep.theta == 0.0)
    assert rep.theta_total == 0.0
    assert rep.lost_available == 0.0
    assert rep.potentially_incursed == 0.0
    assert rep.recovered_available == truth.total


def test_compare_all_zero_estimate(truth):
    zero = OpportunityMap(values=np.zeros_like(truth.values), grid=truth.grid)
    rep = compare_maps(truth, zero)
    assert rep.recovered_available == 0.0
    assert rep.lost_available == truth.total
    assert rep.potentially_incursed == 0.0


def test_partition_identity_exact_on_dyadic_maps():
    rng = np.random.default_rng(13)
    base = opportunity_map(empty_system(hex_side=400.0))
    for _ in range(20):
        t = dyadic_map(rng, base)
        o = dyadic_map(rng, base)
        rep = compare_maps(t, o)
        assert rep.recovered_available + rep.lost_available == np.sum(t.values)
        assert rep.recovered_available + rep.potentially_incursed == np.sum(o.values)
        policy = apply_policy(t, o.values, 1.0)
        assert policy.implied_available + policy.implied_guard == np.sum(t.values)
        assert policy.implied_available + policy.implied_incursed == np.sum(o.values)
        granted = exploitation_report(t, o.values)
        assert granted.exploited_available + granted.unexploited_available == np.sum(t.values)
        assert granted.exploited_available + granted.incursed == np.sum(o.values)


def test_partition_identity_engine_maps(truth):
    est = simulate_recovery(
        region_link_system(hex_side=230.0),
        SensingErrorModel(geolocation_sigma=40.0, power_error_sigma_db=2.0, rng_seed=3),
    )
    rep = compare_maps(truth, est)
    assert rep.recovered_available + rep.lost_available == pytest.approx(truth.total, rel=1e-12)


def test_compare_maps_holds_one_mass_at_a_time():
    rng = np.random.default_rng(3)
    grid = SpectrumGrid(small_grid(hex_side=13.0, horizon=8, n_bands=8))
    truth, other = (OpportunityMap(values=rng.random((grid.region_count, 8, 8)), grid=grid) for _ in range(2))
    _, peak = traced_peak(compare_maps, truth, other)
    # theta, which the report keeps, and one buffer for the masses; all three masses at once take 4 x
    assert peak <= 2.1 * truth.values.nbytes


def test_grid_mismatch_rejected(truth):
    other = opportunity_map(region_link_system(hex_side=100.0))
    with pytest.raises(ValueError, match="grid mismatch"):
        compare_maps(truth, other)


def test_compare_maps_compares_the_grids_centroids(truth):
    """A map names its grid, and maps on grids of the same shape and region centroids
    compare, however the grids were built: two builds of one spec, or specs that differ
    in the time quantum alone.  A grid of that shape with other centroids is a mismatch."""
    spec = truth.grid.spec
    for grid in (SpectrumGrid(spec), SpectrumGrid(dataclasses.replace(spec, time_quantum=2.0 * spec.time_quantum))):
        rep = compare_maps(truth, OpportunityMap(values=truth.values.copy(), grid=grid))
        assert rep.recovered_available == truth.total and rep.lost_available == rep.potentially_incursed == 0.0
    moved = SpectrumGrid(dataclasses.replace(spec, hex_side=spec.hex_side * (1.0 + 1e-9)))
    assert moved.region_count == truth.grid.region_count
    with pytest.raises(ValueError, match="^grid mismatch: maps were built on different discretizations$"):
        compare_maps(truth, OpportunityMap(values=truth.values, grid=moved))


def test_opportunity_map_rejects_values_not_of_its_grid(truth):
    for shape in ((truth.grid.region_count - 1, 1, 1), (truth.grid.region_count, 1), (truth.grid.region_count, 2, 1)):
        with pytest.raises(ValueError, match="must have the grid's shape"):
            OpportunityMap(values=np.zeros(shape), grid=truth.grid)


def test_apply_policy_extremes(truth):
    p_cmax = region_link_system().params.p_cmax
    closed = apply_policy(truth, 0.0, p_cmax)
    assert closed.implied_available == 0.0
    assert closed.implied_guard == truth.total
    assert closed.implied_incursed == 0.0

    open_ = apply_policy(truth, p_cmax, p_cmax)
    assert open_.implied_guard == 0.0
    assert open_.implied_incursed == pytest.approx(
        p_cmax * truth.values.size - truth.total, rel=1e-12
    )


def test_apply_policy_backoff_cap(truth):
    p_cmax = region_link_system().params.p_cmax
    rep = apply_policy(truth, lambda v: v / db_to_linear(3.0), p_cmax)
    assert rep.implied_incursed == 0.0
    assert rep.implied_guard > 0.0
    assert rep.implied_available + rep.implied_guard == pytest.approx(truth.total, rel=1e-12)
    with pytest.raises(ValueError, match="out of range"):
        apply_policy(truth, 2.0 * p_cmax, p_cmax)


def test_exploitation_report(truth):
    nothing = exploitation_report(truth, 0.0)
    assert nothing.unexploited_available == truth.total
    assert nothing.exploited_available == 0.0

    perfect = exploitation_report(truth, truth.values)
    assert perfect.incursed == 0.0
    assert perfect.unexploited_available == 0.0
    assert perfect.exploited_available == truth.total

    rng = np.random.default_rng(17)
    granted = rng.uniform(0.0, 1.0, size=truth.values.shape)
    rep = exploitation_report(truth, granted)
    assert rep.exploited_available + rep.unexploited_available == pytest.approx(truth.total, rel=1e-12)
    with pytest.raises(ValueError):
        exploitation_report(truth, -1.0)


def test_recovery_zero_error_bit_exact():
    sys_ = probe_scenario("low")
    truth = opportunity_map(sys_)
    est = simulate_recovery(sys_, SensingErrorModel(rng_seed=99))
    assert np.array_equal(truth.values, est.values)
    rep = compare_maps(truth, est)
    assert rep.lost_available == 0.0 and rep.potentially_incursed == 0.0


def test_simulated_recovery_shares_the_truth_lattice(monkeypatch):
    """The sensed system keeps the scenario's grid spec, so compare_maps takes the
    estimate as on the truth's lattice and computes no centroid of either."""
    sys_ = region_link_system(hex_side=230.0)
    truth = opportunity_map(sys_)
    est = simulate_recovery(sys_, SensingErrorModel(false_positive_rate=2.0, geolocation_sigma=60.0, rng_seed=7))
    assert est.grid.spec == truth.grid.spec == sys_.grid_spec
    calls = []
    monkeypatch.setattr(SpectrumGrid, "region_centroids", lambda self, lo, hi: calls.append((lo, hi)))
    compare_maps(truth, est)
    assert calls == []


def test_recovery_full_miss_equals_empty_map():
    sys_ = probe_scenario("low")
    est = simulate_recovery(sys_, SensingErrorModel(p_missed_detection=1.0, rng_seed=1))
    bare = dataclasses.replace(sys_, networks=(RFNetwork(id="net-1", links=(RFLink(id="link-1"),)),))
    assert np.array_equal(est.values, opportunity_map(bare).values)


def test_recovery_seed_determinism():
    sys_ = random_system(np.random.default_rng(31), spec=small_grid())
    model = SensingErrorModel(
        p_missed_detection=0.3, false_positive_rate=2.0, geolocation_sigma=60.0, power_error_sigma_db=3.0, rng_seed=77
    )
    a = simulate_recovery(sys_, model)
    b = simulate_recovery(sys_, model)
    assert np.array_equal(a.values, b.values)
    # a scenario with live opportunity shows the seed actually steering the estimate
    live = region_link_system(hex_side=230.0)
    jitter = SensingErrorModel(geolocation_sigma=60.0, power_error_sigma_db=3.0, rng_seed=77)
    d = simulate_recovery(live, jitter)
    e = simulate_recovery(live, dataclasses.replace(jitter, rng_seed=78))
    assert not np.array_equal(d.values, e.values)


def test_recovery_false_positives_add_transmitters():
    sys_ = empty_system(hex_side=200.0)
    model = SensingErrorModel(false_positive_rate=6.0, false_positive_power=0.05, rng_seed=5)
    est = simulate_recovery(sys_, model)
    truth = opportunity_map(sys_)
    rep = compare_maps(truth, est)
    # spurious transmitters eat into the estimated opportunity: mass is lost, nothing incursed
    assert rep.lost_available > 0.0
    assert rep.potentially_incursed == 0.0


def spurious_powers(sensed) -> list[float]:
    (net,) = [n for n in sensed.networks if n.id == "sensed-artifacts"]
    return [link.transmitter.tx_power for link in net.links]


def test_false_positive_power_is_sampled_from_the_true_transmitters():
    sys_ = four_pair_system()
    true_powers = {tx.tx_power for _, _, tx in sys_.iter_transmitters()}
    assert len(true_powers) == 4
    powers = spurious_powers(perturb_system(sys_, SensingErrorModel(false_positive_rate=40.0, rng_seed=3)))
    assert len(powers) > 20 and set(powers) == true_powers


def test_false_positive_power_falls_back_to_a_milliwatt_without_transmitters():
    powers = spurious_powers(perturb_system(empty_system(), SensingErrorModel(false_positive_rate=5.0, rng_seed=3)))
    assert powers and set(powers) == {1e-3}


@pytest.mark.parametrize("sigma_db, seed", [(1e6, 0), (1e6, 1), (1e4, 2)])
def test_perturbed_power_out_of_range_is_a_sensing_error(sigma_db, seed):
    """A power error that overflows (or underflows) the sensed power is named as
    a sensing error, whichever transmitter it hits."""
    model = SensingErrorModel(power_error_sigma_db=sigma_db, false_positive_rate=2.0, rng_seed=seed)
    with pytest.raises(ValueError, match=r"^sensing error: a power error of .* dB puts transmitter .* out of range$"):
        perturb_system(four_pair_system(), model)


def test_false_positive_rate_is_bounded():
    SensingErrorModel(false_positive_rate=float(MAX_FALSE_POSITIVES))
    for bad in (MAX_FALSE_POSITIVES + 1.0, 1e18):
        with pytest.raises(ValueError, match=f"at most {MAX_FALSE_POSITIVES}"):
            SensingErrorModel(false_positive_rate=bad)


def test_model_validation():
    with pytest.raises(ValueError):
        SensingErrorModel(p_missed_detection=1.5)
    with pytest.raises(ValueError):
        SensingErrorModel(false_positive_rate=-1.0)
    with pytest.raises(ValueError):
        SensingErrorModel(geolocation_sigma=-2.0)
    for bad in (math.nan, math.inf):
        for field in ("p_missed_detection", "false_positive_rate", "geolocation_sigma", "power_error_sigma_db"):
            with pytest.raises(ValueError):
                SensingErrorModel(**{field: bad})
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="false_positive_power must be finite and positive"):
            SensingErrorModel(false_positive_power=bad)
    SensingErrorModel(false_positive_power=1e-3)
    # numpy's default_rng rejects a negative seed only when perturb_system draws, naming no field
    for bad in (-1, -(2**70)):
        with pytest.raises(ValueError, match="^rng_seed must be nonnegative$"):
            SensingErrorModel(rng_seed=bad)
    perturb_system(four_pair_system(), SensingErrorModel(rng_seed=2**70))


@pytest.mark.parametrize("fp_power", [None, 1e-4])
def test_perturb_system_draws_in_the_documented_order(fp_power):
    """``perturb_system`` draws from ``default_rng(rng_seed)``: per
    transmitter, in scenario order, the miss draw, the x and y jitter and
    the power error; then the false-positive count and, per false positive,
    x, y, the true power it copies (without a fixed power) and the power
    error.  Redrawn here in that order, the positions and powers agree."""
    sys_ = four_pair_system()
    spec = sys_.grid_spec
    model = SensingErrorModel(
        p_missed_detection=0.3,
        false_positive_rate=3.0,
        geolocation_sigma=400.0,
        power_error_sigma_db=2.0,
        false_positive_power=fp_power,
        rng_seed=5,
    )
    rng = np.random.default_rng(5)
    true_powers = [tx.tx_power for _, _, tx in sys_.iter_transmitters()]
    expected = {}
    for _, _, tx in sys_.iter_transmitters():
        if rng.random() < model.p_missed_detection:
            continue
        jx, jy = rng.normal(0.0, model.geolocation_sigma, size=2)
        power = tx.tx_power * db_to_linear(rng.normal(0.0, model.power_error_sigma_db))
        x = min(max(tx.position[0] + jx, 0.0), spec.region_width)
        y = min(max(tx.position[1] + jy, 0.0), spec.region_height)
        expected[tx.id] = ((x, y), power)
    for k in range(rng.poisson(model.false_positive_rate)):
        x, y = rng.uniform(0.0, spec.region_width), rng.uniform(0.0, spec.region_height)
        base = fp_power if fp_power is not None else true_powers[int(rng.integers(len(true_powers)))]
        expected[f"sensed-artifact-tx-{k}"] = ((x, y), base * db_to_linear(rng.normal(0.0, model.power_error_sigma_db)))

    sensed = perturb_system(sys_, model)
    assert {tx.id: (tx.position, tx.tx_power) for _, _, tx in sensed.iter_transmitters()} == expected
    kept = [i for i in expected if i.startswith("tx-")]
    assert 0 < len(kept) < 4 and len(expected) > len(kept)  # a miss, a detection and a false positive
