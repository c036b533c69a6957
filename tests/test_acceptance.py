"""Acceptance suite: the package's exit criteria.

Each criterion prints one line on success (run with ``pytest -s`` to see
them all; a failing criterion shows up as a normal pytest failure).
Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muse import (
    OpportunityMap,
    SensingErrorModel,
    SpectrumGrid,
    build_connectivity_map,
    cell_metrics,
    compare_maps,
    compute_maps,
    db_to_linear,
    dbm_to_watts,
    opportunity_map,
    point_metrics,
    receiver_sinr,
    simulate_recovery,
    system_report,
    watts_to_dbm,
)

import oracle
from helpers import (
    PROBE,
    add_random_receiver,
    add_random_transmitter,
    empty_system,
    four_pair_system,
    probe_scenario,
    random_system,
    reference_grid,
    region_link_system,
    small_grid,
)
from test_consumption import generated_systems


def ok(n: int, text: str):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_conservation_100_random_scenarios():
    """System-level conservation to 1e-9 relative on 100 random scenarios in < 10 s."""
    rng = np.random.default_rng(2024)
    spec = reference_grid(100.0)
    assert SpectrumGrid(spec).region_count == 676
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        sys_ = random_system(rng, spec=spec, max_links=7, max_rx_per_link=2)
        rep = system_report(sys_, include_entities=False)
        total = rep.psi_utilized + rep.psi_forbidden + rep.psi_available
        worst = max(worst, abs(total - rep.psi_total) / rep.psi_total)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    ok(1, f"utilized+forbidden+available == total on 100 random scenarios "
          f"(worst residual {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_2_per_cell_conservation():
    """occupancy + opportunity + liability == p_cmax on every cell, 1e-12 relative."""
    rng = np.random.default_rng(4242)
    scenarios = [
        probe_scenario("low"),
        probe_scenario("high"),
        probe_scenario("far"),
        region_link_system(),
        region_link_system(worst_case=True),
        empty_system(),
    ] + [random_system(rng, spec=reference_grid(100.0)) for _ in range(10)]
    worst = 0.0
    for sys_ in scenarios:
        maps = compute_maps(sys_)
        p_cmax = sys_.params.p_cmax
        lhs = maps.occupancy + maps.opportunity + maps.liability
        worst = max(worst, float(np.max(np.abs(lhs - p_cmax))) / p_cmax)
        assert np.all(np.abs(lhs - p_cmax) <= 1e-12 * p_cmax)
    ok(2, f"per-cell conservation holds on {len(scenarios)} scenarios (worst {worst:.2e} relative)")


def test_criterion_3_reference_point_self_consistency():
    """High-power link: opportunity capped at the regulatory ceiling and zero
    liability; low-power link: the two liability routes agree to 1e-12; a
    +30 dB transmit step moves the receiver SINR by exactly +30 dB."""
    low = probe_scenario("low")
    high = probe_scenario("high")

    # capping at the ceiling
    pm = point_metrics(high, PROBE)
    headroom = high.params.p_max - pm.occupancy
    assert pm.net_opportunity == pytest.approx(headroom, rel=1e-12)
    assert watts_to_dbm(pm.net_opportunity) == pytest.approx(30.0, abs=1e-9)
    assert pm.receivers[0].liability == 0.0
    assert pm.receivers[0].opportunity > pm.net_opportunity  # the cap actually bound

    grid = high.grid
    cm_high = cell_metrics(high, grid.cell(grid.locate(PROBE)))
    assert cm_high.opportunity == high.params.p_cmax - cm_high.occupancy
    assert cm_high.liability == 0.0

    # liability via the budget complement equals the per-receiver route
    cm_low = cell_metrics(low, low.grid.cell(low.grid.locate(PROBE)))
    budget_route = low.params.p_cmax - (cm_low.occupancy + cm_low.opportunity)
    receiver_route = cm_low.rx_liability["rx-1"]
    assert abs(budget_route - receiver_route) <= 1e-12 * low.params.p_cmax
    assert abs(cm_low.liability - receiver_route) <= 1e-12 * low.params.p_cmax

    # SINR scaling
    s_low = 10.0 * math.log10(receiver_sinr(low, "rx-1"))
    s_high = 10.0 * math.log10(receiver_sinr(high, "rx-1"))
    assert s_low == pytest.approx(12.0, abs=1e-9)
    assert s_high == pytest.approx(42.0, abs=1e-9)
    assert s_high - s_low == pytest.approx(30.0, abs=1e-9)
    ok(3, f"capped opportunity {watts_to_dbm(pm.net_opportunity):.9f} dBm, liability 0, "
          f"SINR {s_low:.1f} -> {s_high:.1f} dB")


def test_criterion_4_region_scale_reproduction():
    """Receiver-consumed ~16.6 % and available ~83.4 % of the total space,
    +-5 percentage points, for the 676-cell region link (6 dB demand, 33 dB
    experienced SINR, path-loss exponent 3.5)."""
    sys_ = region_link_system()
    assert 10.0 * math.log10(receiver_sinr(sys_, "rx-1")) == pytest.approx(33.0, abs=1e-9)
    rep = system_report(sys_)
    forbidden_pct = 100.0 * rep.forbidden_fraction
    available_pct = 100.0 * rep.available_fraction
    assert forbidden_pct == pytest.approx(16.6, abs=5.0)
    assert available_pct == pytest.approx(83.4, abs=5.0)
    ok(4, f"region link: forbidden {forbidden_pct:.2f} % (target 16.6 +- 5), "
          f"available {available_pct:.2f} % (target 83.4 +- 5)")


def test_criterion_5_oracle_equivalence_1000_instances():
    """Engine cell metrics match a straight-line scalar re-evaluation on
    1000 random small instances to 1e-9 relative."""
    rng = np.random.default_rng(555)
    spec = small_grid(100.0)
    assert SpectrumGrid(spec).region_count == 25
    checked = 0
    for _ in range(1000):
        sys_ = random_system(rng, spec=spec, max_links=5, max_rx_per_link=1)
        maps = compute_maps(sys_)
        scale = sys_.params.p_cmax
        for chi in range(25):
            want = oracle.evaluate_cell(sys_, sys_.grid.cell(chi))
            assert maps.occupancy[chi, 0, 0] == pytest.approx(want["occupancy"], rel=1e-9)
            assert maps.raw_opportunity[chi, 0, 0] == pytest.approx(
                want["raw_opportunity"], rel=1e-9, abs=1e-12 * scale
            )
            assert maps.opportunity[chi, 0, 0] == pytest.approx(
                want["opportunity"], rel=1e-9, abs=1e-12 * scale
            )
            assert maps.liability[chi, 0, 0] == pytest.approx(
                want["liability"], rel=1e-9, abs=1e-12 * scale
            )
            checked += 1
    ok(5, f"engine equals brute-force evaluation on {checked} cells across 1000 instances")


@settings(max_examples=40, deadline=None)
@given(generated_systems())
def test_criterion_5_oracle_equivalence_on_generated_systems(sys_):
    """Criterion 5 over generated systems (quanta, bands, sectors, sample offsets,
    worst-case placement, noise overrides): every cell's four quantities match the
    scalar oracle, with the fixed-seed test's tolerances."""
    maps = compute_maps(sys_)
    scale = sys_.params.p_cmax
    for at in np.ndindex(maps.occupancy.shape):
        want = oracle.evaluate_cell(sys_, sys_.grid.cell(*at))
        assert maps.occupancy[at] == pytest.approx(want["occupancy"], rel=1e-9)
        for name in ("raw_opportunity", "opportunity", "liability"):
            assert getattr(maps, name)[at] == pytest.approx(want[name], rel=1e-9, abs=1e-12 * scale), (at, name)


def test_criterion_6_sampling_sweep_monotone():
    """Worst-case placement: shrinking the hexagon side never increases the
    transceiver-consumed fraction and never decreases the available
    fraction; the reference region tiles into exactly 676 hexagons at 100 m."""
    assert SpectrumGrid(reference_grid(100.0)).region_count == 676
    sides = [100.0, 50.0, 25.0, 10.0, 1.0]
    consumed = []
    available = []
    for side in sides:
        sys_ = region_link_system(worst_case=True, hex_side=side)
        rep = system_report(sys_, include_entities=False)
        consumed.append((rep.psi_utilized + rep.psi_forbidden) / rep.psi_total)
        available.append(rep.psi_available / rep.psi_total)
    for a, b in zip(consumed, consumed[1:]):
        assert b <= a + 1e-12
    for a, b in zip(available, available[1:]):
        assert b >= a - 1e-12
    ok(6, "consumed fraction " + " >= ".join(f"{100 * c:.2f}%" for c in consumed) + " as side shrinks 100 -> 1 m")


def test_criterion_7_smf_identities():
    """Overlap + one-sided loss reconstructs the truth mass exactly;
    self-comparison is all-zero; the zero-error recovery is bit-exact."""
    rng = np.random.default_rng(99)
    base = opportunity_map(empty_system(hex_side=400.0))

    def dyadic():
        v = rng.integers(0, 1 << 20, size=base.values.shape).astype(float) * 2.0**-20
        return OpportunityMap(values=v, grid=base.grid)

    for _ in range(50):
        t, e = dyadic(), dyadic()
        rep = compare_maps(t, e)
        assert rep.recovered_available + rep.lost_available == np.sum(t.values)

    sys_ = region_link_system(hex_side=230.0)
    truth = opportunity_map(sys_)
    self_rep = compare_maps(truth, truth)
    assert np.all(self_rep.theta == 0.0)
    assert self_rep.lost_available == 0.0 and self_rep.potentially_incursed == 0.0

    est = simulate_recovery(sys_, SensingErrorModel(rng_seed=31337))
    assert np.array_equal(truth.values, est.values)
    est2 = simulate_recovery(sys_, SensingErrorModel(rng_seed=31337))
    assert np.array_equal(est.values, est2.values)
    ok(7, "partition identity exact on 50 random map pairs; zero-error recovery bit-exact")


@settings(max_examples=25, deadline=None)
@given(generated_systems(), st.integers(0, 2**32 - 1))
def test_criterion_7_smf_identities_on_generated_grids(sys_, seed):
    """Criterion 7 over generated grids (quanta, bands, sample offsets): on dyadic
    maps, whose values are multiples of 2**-20 so that every sum is exact, the
    overlap plus each one-sided mass is exactly the mass of its side, the estimate
    on a second build of the grid; a map compared with itself is all zero."""
    rng = np.random.default_rng(seed)
    grid = sys_.grid
    shape = (grid.region_count, grid.horizon, grid.band_count)
    truth, other = (
        OpportunityMap(values=rng.integers(0, 1 << 20, size=shape).astype(float) * 2.0**-20, grid=on)
        for on in (grid, SpectrumGrid(sys_.grid_spec))
    )
    rep = compare_maps(truth, other)
    assert rep.recovered_available + rep.lost_available == np.sum(truth.values) == rep.truth_total
    assert rep.recovered_available + rep.potentially_incursed == np.sum(other.values)
    assert rep.theta_total == np.sum(other.values) - np.sum(truth.values)
    self_rep = compare_maps(truth, truth)
    assert np.all(self_rep.theta == 0.0) and self_rep.theta_total == 0.0
    assert self_rep.lost_available == self_rep.potentially_incursed == 0.0
    assert self_rep.recovered_available == rep.truth_total


def test_criterion_8_monotone_growth():
    """Raw opportunity never increases when a transmitter or a receiver is
    added (100 random add events each)."""
    rng = np.random.default_rng(777)
    for adder in (add_random_transmitter, add_random_receiver):
        for _ in range(100):
            base = random_system(rng, spec=small_grid(100.0), max_links=3)
            before = compute_maps(base).raw_opportunity
            after = compute_maps(adder(base, rng)).raw_opportunity
            assert np.all(after <= before)
    ok(8, "raw opportunity monotone under 100 transmitter adds and 100 receiver adds")


def test_criterion_9_connectivity_determinism_and_monotonicity():
    """Connectivity CSV is byte-identical across runs; adding a receiver
    never increases any candidate link power."""
    rng = np.random.default_rng(888)
    sys_ = random_system(rng, spec=small_grid(100.0, n_bands=2))
    csv_a = "".join(build_connectivity_map(sys_, db_to_linear(6.0)).csv_chunks())
    csv_b = "".join(build_connectivity_map(sys_, db_to_linear(6.0)).csv_chunks())
    assert csv_a.encode() == csv_b.encode()
    for _ in range(10):
        base = random_system(rng, spec=small_grid(100.0))
        cmap_before = build_connectivity_map(base, db_to_linear(6.0))
        cmap_after = build_connectivity_map(add_random_receiver(base, rng), db_to_linear(6.0))
        before = {(e.cell_a, e.cell_b, e.band_index): e.max_power for e in cmap_before.edges}
        assert all(
            e.max_power <= before[(e.cell_a, e.cell_b, e.band_index)] for e in cmap_after.edges
        )
    ok(9, "connectivity map byte-stable; candidate powers monotone under receiver adds")


@settings(max_examples=25, deadline=None)
@given(generated_systems(), st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_criterion_9_receiver_adds_on_generated_systems(base, seed, time_index):
    """Criterion 9 over generated systems (quanta, bands, sectors, sample offsets,
    worst-case placement): adding a receiver never raises the power a new
    transmitter may radiate in any region and band, and leaves the occupancy as it was."""
    tau = min(time_index, base.grid.horizon - 1)
    grown = add_random_receiver(base, np.random.default_rng(seed))
    before, after = (build_connectivity_map(s, db_to_linear(6.0), tau) for s in (base, grown))
    assert np.all(after.power <= before.power)
    assert np.array_equal(after.occupancy, before.occupancy)


def test_error_model_demonstration_run():
    """A lossy sensing model must yield a well-formed three-way split; the
    specific numbers are scenario- and pipeline-dependent and not asserted."""
    sys_ = four_pair_system()
    truth = opportunity_map(sys_)
    est = simulate_recovery(
        sys_,
        SensingErrorModel(
            p_missed_detection=0.1,
            false_positive_rate=3.0,
            geolocation_sigma=40.0,
            power_error_sigma_db=2.0,
            false_positive_power=dbm_to_watts(-10.0),
            rng_seed=8,
        ),
    )
    rep = compare_maps(truth, est)
    for value in (rep.recovered_available, rep.lost_available, rep.potentially_incursed):
        assert value >= 0.0 and math.isfinite(value)
    assert rep.recovered_available + rep.lost_available == pytest.approx(truth.total, rel=1e-9)
    total = sys_.params.p_cmax * sys_.grid.cell_count
    print(
        "DEMONSTRATION: recovered "
        f"{rep.recovered_available:.1f} ({100 * rep.recovered_available / total:.1f} % of total), "
        f"lost {rep.lost_available:.1f} ({100 * rep.lost_available / total:.1f} %), "
        f"potentially incursed {rep.potentially_incursed:.1f} ({100 * rep.potentially_incursed / total:.1f} %)"
    )


if __name__ == "__main__":
    import sys as _s

    import pytest as _pytest

    _s.exit(_pytest.main([__file__, "-v", "-s"]))
