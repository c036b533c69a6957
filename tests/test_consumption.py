import dataclasses
import math
import os
import sys
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muse import (
    OMNI,
    AntennaPattern,
    Band,
    Cell,
    PropagationModel,
    Receiver,
    RFLink,
    RFNetwork,
    RFSystem,
    SystemParams,
    Transmitter,
    UnknownEntityError,
    aggregate_occupancy_at,
    cell_metrics,
    compute_maps,
    db_to_linear,
    dbm_to_watts,
    entity_consumption,
    entity_selector,
    interference_margin,
    interference_opportunity,
    net_opportunity_at,
    opportunity_map,
    point_metrics,
    receiver_sinr,
    system_report,
    system_reports,
    tx_occupancy_at,
    validate_system,
    watts_to_dbm,
)

import oracle
from helpers import (
    NOISE_DBM,
    PROBE,
    empty_system,
    four_pair_system,
    holds_only_row_tables,
    probe_scenario,
    random_system,
    reference_grid,
    reference_params,
    region_link_system,
    small_grid,
    traced_peak,
)


def two_link_system(*links):
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=reference_grid(),
        networks=(RFNetwork(id="net", links=tuple(links)),),
    )


# ---------------------------------------------------------------------------
# occupancy


def test_tx_occupancy_reference_value():
    sys_ = probe_scenario("high")  # 6 dBm transmitter
    occ = tx_occupancy_at(sys_, "tx-1", PROBE)
    assert watts_to_dbm(occ) == pytest.approx(-102.58, abs=0.05)


def test_tx_occupancy_inactive_and_capped():
    tx = Transmitter(id="t", position=(100.0, 100.0), tx_power=1.0, active_intervals=frozenset({1}))
    sys_ = dataclasses.replace(two_link_system(RFLink(id="l", transmitter=tx)), grid_spec=reference_grid(horizon=2))
    assert validate_system(sys_).ok
    assert tx_occupancy_at(sys_, "t", PROBE, time_index=0) == 0.0
    # inside the reference distance the full transmit power is deposited
    assert tx_occupancy_at(sys_, "t", (100.0, 100.5), time_index=1) == 1.0


def test_aggregate_occupancy_noise_only():
    sys_ = empty_system()
    assert watts_to_dbm(aggregate_occupancy_at(sys_, PROBE)) == pytest.approx(NOISE_DBM, abs=1e-9)


def test_aggregate_occupancy_two_equidistant():
    p = dbm_to_watts(10.0)
    t1 = Transmitter(id="t1", position=(1000.0, 1800.0), tx_power=p)
    t2 = Transmitter(id="t2", position=(3500.0, 1800.0), tx_power=p)
    sys_ = two_link_system(RFLink(id="l1", transmitter=t1), RFLink(id="l2", transmitter=t2))
    single = tx_occupancy_at(sys_, "t1", PROBE)
    assert tx_occupancy_at(sys_, "t2", PROBE) == pytest.approx(single, rel=1e-12)
    noise = dbm_to_watts(NOISE_DBM)
    assert aggregate_occupancy_at(sys_, PROBE) == pytest.approx(noise + 2.0 * single, rel=1e-12)


def test_aggregate_is_single_plus_noise():
    sys_ = probe_scenario("low")
    expected = tx_occupancy_at(sys_, "tx-1", PROBE) + dbm_to_watts(NOISE_DBM)
    assert aggregate_occupancy_at(sys_, PROBE) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# margins


def test_margin_low_power_link():
    # received -94 dBm over the 100 m link, beta 3 dB, noise -106 dBm
    sys_ = probe_scenario("low")
    expected = dbm_to_watts(-94.0) / db_to_linear(3.0) - dbm_to_watts(NOISE_DBM)
    margin = interference_margin(sys_, "rx-1")
    assert margin == pytest.approx(expected, rel=1e-9)
    assert margin == pytest.approx(1.744074e-13, rel=1e-6)
    assert watts_to_dbm(margin) == pytest.approx(-97.58, abs=0.005)


def test_margin_high_power_link():
    sys_ = probe_scenario("high")
    margin = interference_margin(sys_, "rx-1")
    expected = dbm_to_watts(-64.0) / db_to_linear(3.0) - dbm_to_watts(NOISE_DBM)
    assert margin == pytest.approx(expected, rel=1e-9)
    assert watts_to_dbm(margin) == pytest.approx(-67.0, abs=0.005)


def test_margin_limit_huge_beta():
    sys_ = probe_scenario("low")
    rx = sys_.receiver("rx-1")
    monster = dataclasses.replace(rx, beta=1e30)
    link = sys_.networks[0].links[0]
    sys2 = dataclasses.replace(
        sys_,
        networks=(RFNetwork(id="net-1", links=(dataclasses.replace(link, receivers=(monster,)),)),),
    )
    assert interference_margin(sys2, "rx-1") == pytest.approx(-dbm_to_watts(NOISE_DBM), rel=1e-9)


def test_margin_requires_serving_or_explicit():
    lonely = Receiver(id="r", position=(50.0, 50.0), beta=2.0)
    sys_ = two_link_system(RFLink(id="l", receivers=(lonely,)))
    with pytest.raises(ValueError, match="no explicit margin"):
        interference_margin(sys_, "r")
    declared = dataclasses.replace(lonely, explicit_margin=3e-12)
    sys2 = two_link_system(RFLink(id="l", receivers=(declared,)))
    assert interference_margin(sys2, "r") == 3e-12


# ---------------------------------------------------------------------------
# opportunity


def test_opportunity_no_interferers_reference_value():
    sys_ = probe_scenario("low")
    opp = interference_opportunity(sys_, "rx-1", PROBE)
    assert watts_to_dbm(opp) == pytest.approx(11.2331, abs=0.001)


def test_opportunity_zero_when_interference_equals_margin():
    # an interferer delivering exactly the margin makes the opportunity vanish everywhere
    sys_ = probe_scenario("low")
    rx = sys_.receiver("rx-1")
    margin = interference_margin(sys_, "rx-1")
    d_int = 700.0
    interferer = Transmitter(
        id="intruder",
        position=(rx.position[0] + d_int, rx.position[1]),
        tx_power=margin * d_int**3.5,
    )
    link = sys_.networks[0].links[0]
    sys2 = dataclasses.replace(
        sys_,
        networks=(
            RFNetwork(id="net-1", links=(link, RFLink(id="link-2", transmitter=interferer))),
        ),
    )
    for point in [PROBE, (100.0, 100.0), (4000.0, 3000.0)]:
        assert abs(interference_opportunity(sys2, "rx-1", point)) <= 1e-12 * margin * 4000.0**3.5


def test_net_opportunity_empty_system():
    sys_ = empty_system()
    raw = net_opportunity_at(sys_, PROBE)
    assert raw == pytest.approx(sys_.params.p_max - dbm_to_watts(NOISE_DBM), rel=1e-12)
    assert raw == pytest.approx(sys_.params.p_cmax, rel=1e-9)


def test_net_opportunity_is_min_over_receivers():
    sys_ = probe_scenario("low")
    tx = sys_.transmitter("tx-1")
    near = Receiver(id="rx-near", position=(2100.0, 1800.0), beta=db_to_linear(3.0), explicit_margin=1e-11)
    sys2 = dataclasses.replace(
        sys_,
        networks=sys_.networks + (RFNetwork(id="net-2", links=(RFLink(id="l2", receivers=(near,)),)),),
    )
    per_rx = [
        interference_opportunity(sys2, "rx-1", PROBE),
        interference_opportunity(sys2, "rx-near", PROBE),
    ]
    assert net_opportunity_at(sys2, PROBE) == pytest.approx(min(per_rx), rel=1e-12)
    assert tx.id == "tx-1"


def test_net_opportunity_brute_force_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sys_ = random_system(rng, spec=small_grid())
        pt = (float(rng.uniform(0, 690)), float(rng.uniform(0, 590)))
        opps = [
            interference_opportunity(sys_, rx.id, pt)
            for _, _, rx in sys_.iter_receivers()
            if rx.is_active(0, 0)
        ]
        headroom = sys_.params.p_max - aggregate_occupancy_at(sys_, pt)
        expected = min(opps + [headroom])
        assert net_opportunity_at(sys_, pt) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# cell metrics


def cell_at(sys_, point, tau=0, nu=0):
    return sys_.grid.cell(sys_.grid.locate(point), tau, nu)


def test_cell_metrics_empty_system():
    sys_ = empty_system()
    cm = cell_metrics(sys_, cell_at(sys_, PROBE))
    noise = dbm_to_watts(NOISE_DBM)
    assert cm.occupancy == pytest.approx(noise, rel=1e-12)
    assert cm.opportunity == pytest.approx(sys_.params.p_cmax - noise, rel=1e-12)
    assert cm.liability == 0.0


def test_cell_conservation_exact():
    rng = np.random.default_rng(23)
    for _ in range(5):
        sys_ = random_system(rng)
        maps = compute_maps(sys_)
        lhs = maps.occupancy + maps.opportunity + maps.liability
        assert np.all(np.abs(lhs - sys_.params.p_cmax) <= 1e-12 * sys_.params.p_cmax)


def test_cell_ranges():
    rng = np.random.default_rng(29)
    for _ in range(5):
        sys_ = random_system(rng)
        maps = compute_maps(sys_)
        p_cmax = sys_.params.p_cmax
        assert np.all(maps.opportunity >= 0.0) and np.all(maps.opportunity <= p_cmax)
        assert np.all(maps.liability >= 0.0) and np.all(maps.liability <= p_cmax)
        assert np.all(maps.occupancy >= dbm_to_watts(NOISE_DBM))


def test_high_power_scenario_caps_opportunity_and_zeroes_liability():
    sys_ = probe_scenario("high")
    cm = cell_metrics(sys_, cell_at(sys_, PROBE))
    # clamped opportunity fills everything the occupancy leaves
    assert cm.opportunity == sys_.params.p_cmax - cm.occupancy
    assert cm.liability == 0.0
    assert cm.rx_liability["rx-1"] == 0.0
    # the cap kicked in: the raw value reported is the regulatory headroom
    assert cm.raw_opportunity == pytest.approx(sys_.params.p_max - cm.occupancy, rel=1e-12)
    uncapped = interference_opportunity(sys_, "rx-1", cm.cell.sample_point)
    assert uncapped > cm.raw_opportunity


def test_liability_identity_single_receiver():
    sys_ = probe_scenario("low")
    cm = cell_metrics(sys_, cell_at(sys_, PROBE))
    assert cm.liability == pytest.approx(cm.rx_liability["rx-1"], rel=1e-12)
    assert cm.liability == pytest.approx(
        sys_.params.p_cmax - (cm.occupancy + cm.opportunity), abs=1e-12 * sys_.params.p_cmax
    )


def test_liability_reference_values():
    low = cell_metrics(probe_scenario("low"), cell_at(probe_scenario("low"), PROBE))
    assert low.rx_liability["rx-1"] * 1e3 == pytest.approx(986.0, abs=5.0)
    pm_far = point_metrics(probe_scenario("far"), PROBE)
    assert pm_far.receivers[0].liability * 1e3 == pytest.approx(920.0, abs=5.0)
    assert watts_to_dbm(pm_far.receivers[0].opportunity) == pytest.approx(19.0, abs=0.2)


def test_receiver_farther_raises_liability():
    near = probe_scenario("high")
    far = probe_scenario("far")
    for point in [PROBE, (2500.0, 2000.0), (1500.0, 1500.0), (3000.0, 1000.0)]:
        l_near = point_metrics(near, point).receivers[0].liability
        l_far = point_metrics(far, point).receivers[0].liability
        assert l_far >= l_near - 1e-15


def test_sinr_scale_check():
    low = probe_scenario("low")
    high = probe_scenario("high")
    s_low = 10.0 * math.log10(receiver_sinr(low, "rx-1"))
    s_high = 10.0 * math.log10(receiver_sinr(high, "rx-1"))
    assert s_low == pytest.approx(12.0, abs=1e-9)
    assert s_high == pytest.approx(42.0, abs=1e-9)
    assert s_high - s_low == pytest.approx(30.0, abs=1e-9)


def test_harmful_interference_flag():
    sys_ = probe_scenario("low")
    rx = sys_.receiver("rx-1")
    jammer = Transmitter(id="jam", position=(rx.position[0] + 50.0, rx.position[1]), tx_power=1.0)
    sys2 = dataclasses.replace(
        sys_,
        networks=sys_.networks + (RFNetwork(id="net-2", links=(RFLink(id="l2", transmitter=jammer),)),),
    )
    cm = cell_metrics(sys2, cell_at(sys2, PROBE))
    assert cm.harmful_interference == frozenset({"rx-1"})
    assert interference_opportunity(sys2, "rx-1", PROBE) < 0.0
    cm_clean = cell_metrics(sys_, cell_at(sys_, PROBE))
    assert cm_clean.harmful_interference == frozenset()


def test_orthogonal_network_excludes_siblings():
    tx1 = Transmitter(id="t1", position=(1000.0, 2000.0), tx_power=dbm_to_watts(6.0))
    rx1 = Receiver(id="r1", position=(1000.0, 2100.0), beta=db_to_linear(3.0))
    tx2 = Transmitter(id="t2", position=(1200.0, 2100.0), tx_power=dbm_to_watts(10.0))
    links = (RFLink(id="l1", transmitter=tx1, receivers=(rx1,)), RFLink(id="l2", transmitter=tx2))

    def build(orthogonal):
        return RFSystem(
            params=reference_params(),
            propagation=PropagationModel(alpha=3.5),
            grid_spec=reference_grid(),
            networks=(RFNetwork(id="n", links=links, orthogonal=orthogonal),),
        )

    shared = interference_opportunity(build(False), "r1", PROBE)
    orthogonal = interference_opportunity(build(True), "r1", PROBE)
    assert orthogonal > shared
    clean = interference_opportunity(probe_scenario("high"), "rx-1", PROBE)
    assert orthogonal == pytest.approx(clean, rel=1e-12)


def test_activity_masks_respected():
    spec = reference_grid(horizon=2, bands=(Band(6e8, 6e6), Band(6.1e8, 6e6)))
    tx = Transmitter(
        id="t",
        position=(1000.0, 2000.0),
        tx_power=dbm_to_watts(6.0),
        active_intervals=frozenset({0}),
        bands=frozenset({0}),
    )
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=spec,
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx),)),),
    )
    assert tx_occupancy_at(sys_, "t", PROBE, 0, 0) > 0.0
    assert tx_occupancy_at(sys_, "t", PROBE, 1, 0) == 0.0
    assert tx_occupancy_at(sys_, "t", PROBE, 0, 1) == 0.0
    maps = compute_maps(sys_)
    noise = dbm_to_watts(NOISE_DBM)
    assert np.all(maps.occupancy[:, 1, :] == noise)
    assert np.any(maps.occupancy[:, 0, 0] > noise)


def test_per_band_noise_and_override():
    spec = small_grid(n_bands=2)
    params = SystemParams(
        p_max=1.0, p_min=1e-23, ambient_noise=(dbm_to_watts(-106.0), dbm_to_watts(-100.0))
    )
    sys_ = RFSystem(
        params=params,
        propagation=PropagationModel(alpha=3.5),
        grid_spec=spec,
        networks=(),
        noise_cell_overrides={(3, 0): dbm_to_watts(-90.0)},
    )
    maps = compute_maps(sys_)
    assert maps.occupancy[0, 0, 0] == dbm_to_watts(-106.0)
    assert maps.occupancy[0, 0, 1] == dbm_to_watts(-100.0)
    assert maps.occupancy[3, 0, 0] == dbm_to_watts(-90.0)
    assert maps.occupancy[3, 0, 1] == dbm_to_watts(-100.0)  # band 0's override leaves band 1 of that region


@pytest.mark.parametrize("point", [(math.inf, 10.0), (10.0, -math.inf), (math.nan, 10.0), (1e6, 1e6)])
def test_noise_at_falls_back_to_band_noise_off_the_grid(point):
    sys_ = dataclasses.replace(empty_system(), noise_cell_overrides={(3, 0): dbm_to_watts(-90.0)})
    assert sys_.noise_at(point, 0) == sys_.params.noise_for_band(0)
    assert point_metrics(sys_, point).occupancy == sys_.params.noise_for_band(0)


def test_threaded_chunked_evaluation_bitwise_deterministic(monkeypatch):
    import muse.consumption as consumption

    sys_ = region_link_system(hex_side=100.0)
    n, slots = sys_.grid.region_count, sys_.grid.horizon * sys_.grid.band_count  # at most that many distinct slots
    assert consumption._tree_spans(0, n, consumption._CHUNK // slots) == [(0, n)]
    spans = consumption._tree_spans(0, n, 43)  # below the 128-region leaf, so leaf-sized chunks
    assert len(spans) == 8
    # overrides on both sides of the first two chunk boundaries
    overridden = [spans[0][1] - 1, spans[0][1], spans[1][1] - 1, spans[1][1]]
    noisy = dataclasses.replace(sys_, noise_cell_overrides={(chi, 0): dbm_to_watts(-80.0) for chi in overridden})
    # one chunk at the default _CHUNK, serially
    monkeypatch.setenv("MUSE_THREADS", "1")
    serial = compute_maps(sys_)
    serial_noisy = compute_maps(noisy)
    # eight leaf-sized chunks through the thread pool
    monkeypatch.setattr(consumption, "_CHUNK", 43)
    monkeypatch.setenv("MUSE_THREADS", "4")
    threaded = compute_maps(sys_)
    threaded_noisy = compute_maps(noisy)
    for name in ("occupancy", "opportunity", "raw_opportunity", "liability"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))
        assert np.array_equal(getattr(serial_noisy, name), getattr(threaded_noisy, name))
    assert np.nonzero(threaded_noisy.occupancy != threaded.occupancy)[0].tolist() == overridden

    field = four_pair_system(hex_side=100.0)
    monkeypatch.setenv("MUSE_THREADS", "1")
    serial_report = system_report(field)
    monkeypatch.setenv("MUSE_THREADS", "4")
    threaded_report = system_report(field)
    for name in ("psi_total", "psi_utilized", "psi_forbidden", "psi_available"):
        assert getattr(serial_report, name) == getattr(threaded_report, name)
    assert len(serial_report.entity_consumption) == 8
    assert serial_report.entity_consumption == threaded_report.entity_consumption


def test_entity_sums_do_not_depend_on_chunk_size_or_threads(monkeypatch):
    import muse.consumption as consumption

    field = four_pair_system(hex_side=100.0)
    chunks, reports = [], []
    for chunk in (43, 200, 1 << 16):
        monkeypatch.setattr(consumption, "_CHUNK", chunk)
        chunks.append(len(consumption._tree_spans(0, field.grid.region_count, chunk)))
        for threads in ("1", "4"):
            monkeypatch.setenv("MUSE_THREADS", threads)
            reports.append({k: bits(v) for k, v in system_report(field).entity_consumption.items()})
    assert chunks == [8, 4, 1]
    assert len(reports[0]) == 8
    assert all(consumed == reports[0] for consumed in reports)


@pytest.mark.parametrize("keep", [(), ("occupancy", "raw_opportunity"), ("occupancy", "opportunity", "raw_opportunity", "liability")])
@pytest.mark.parametrize("threads", ["1", "4"])
def test_one_pool_over_many_grids_equals_each_grid_alone(monkeypatch, threads, keep):
    """The chunks of four systems in one pool, largest (regions x distinct
    slots) first and interleaved, give each system's maps, psi sums and
    entity sums bit for bit as its own one-chunk serial pass does."""
    import muse.consumption as consumption

    systems = [
        repeating_system(hex_side=25.0),
        four_pair_system(hex_side=100.0),
        four_pair_system(hex_side=150.0),
        region_link_system(worst_case=True, hex_side=60.0),
    ]
    monkeypatch.setenv("MUSE_THREADS", "1")
    alone = [consumption._evaluate_grids([s], True, keep=keep)[0] for s in systems]

    runs, evaluate = [], consumption._evaluate
    monkeypatch.setattr(consumption, "_evaluate", lambda *args: runs.append((args[0][0][0].sys, len(args[0]) * len(args[1]))) or evaluate(*args))
    monkeypatch.setattr(consumption, "_CHUNK", 43)
    monkeypatch.setenv("MUSE_THREADS", threads)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap often, so a block shared or a map span overwritten would show
    try:
        together = consumption._evaluate_grids(systems, True, keep=keep)
    finally:
        sys.setswitchinterval(switch)
    assert len(runs) == 4 + 8 + 4 + 16
    if threads == "1":
        costs = [cost for _, cost in runs]
        assert costs == sorted(costs, reverse=True)
        order = [systems.index(s) for s, _ in runs]
        assert order == [0] * 4 + [3] * 16 + [1] * 4 + [2] + [1] * 4 + [2] * 3  # the two four-pair grids interleave
    for (maps, sums, entities), (alone_maps, alone_sums, alone_entities) in zip(together, alone):
        assert list(maps) == list(keep)
        for name in keep:
            assert maps[name].tobytes() == alone_maps[name].tobytes()
        assert sums.tobytes() == alone_sums.tobytes()
        assert {k: bits(v) for k, v in entities.items()} == {k: bits(v) for k, v in alone_entities.items()}
        assert len(entities) in (2, 6, 8)


def test_tree_spans_split_where_numpy_does():
    import muse.consumption as consumption

    assert consumption._CHUNK == 1 << 16
    assert [hi - lo for lo, hi in consumption._tree_spans(0, 96_565, consumption._CHUNK)] == [48_280, 48_285]
    spans = consumption._tree_spans(0, 384_396, consumption._CHUNK)
    assert len(spans) == 8
    assert all(hi - lo <= consumption._CHUNK for lo, hi in spans)
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]] and spans[-1][1] == 384_396


def test_bad_thread_env_rejected(monkeypatch):
    import muse.consumption as consumption

    monkeypatch.setenv("MUSE_THREADS", "many")
    with pytest.raises(ValueError, match="MUSE_THREADS"):
        consumption.thread_budget()


def test_thread_budget_counts_the_cpus_this_process_may_use(monkeypatch):
    import muse.consumption as consumption

    monkeypatch.delenv("MUSE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    # pinned to one CPU of eight (taskset -c 0): one thread, not four
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert consumption.thread_budget() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert consumption.thread_budget() == 3
    # platforms without an affinity mask fall back to the CPU count, at most 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert consumption.thread_budget() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert consumption.thread_budget() == 1


def repeating_system(hex_side: float = 100.0) -> RFSystem:
    """Four quanta whose activity masks repeat (0 = 2, 1 = 3) on every band,
    a propagation override on band 2, a transmitter that is never active
    and a receiver at a transmitter's position with the same antenna."""
    sector = AntennaPattern("sector", boresight=0.5, beamwidth=1.0, main_gain=4.0, back_gain=0.5)
    even = frozenset({0, 2})
    ta = Transmitter(id="ta", position=(100.0, 100.0), tx_power=dbm_to_watts(10.0), active_intervals=even)
    ra = Receiver(id="ra", position=(200.0, 150.0), beta=db_to_linear(6.0), antenna=sector, active_intervals=even)
    tb = Transmitter(id="tb", position=(500.0, 400.0), tx_power=dbm_to_watts(5.0), antenna=sector, bands=frozenset({1, 2}))
    rb = Receiver(id="rb", position=(450.0, 350.0), beta=db_to_linear(3.0), bands=frozenset({1, 2}))
    tc = Transmitter(id="tc", position=(300.0, 300.0), tx_power=dbm_to_watts(0.0), active_intervals=frozenset())
    rd = Receiver(
        id="rd",
        position=(100.0, 100.0),
        beta=db_to_linear(3.0),
        active_intervals=frozenset({1, 3}),
        bands=frozenset({0}),
        explicit_margin=dbm_to_watts(-90.0),
    )
    links = (
        RFLink(id="la", transmitter=ta, receivers=(ra,)),
        RFLink(id="lb", transmitter=tb, receivers=(rb,)),
        RFLink(id="lc", transmitter=tc),
        RFLink(id="ld", receivers=(rd,)),
    )
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=small_grid(hex_side=hex_side, horizon=4, n_bands=3),
        networks=(RFNetwork(id="net", links=links),),
        band_propagation={2: PropagationModel(alpha=3.0)},
    )


def _link_feasibility(sys_, time_index, band_index):
    from muse.connectivity import link_feasibility

    a = 12
    return link_feasibility(sys_, sys_.grid.cell(a), sys_.grid.cell(sys_.grid.neighbors(a)[0]), band_index, 4.0)


POINT = (300.0, 200.0)
POINT_QUERIES = {  # name: (query of (system, time, band), whether it reads a time index)
    "tx_occupancy_at": (lambda s, t, b: tx_occupancy_at(s, "ta", POINT, t, b), True),
    "aggregate_occupancy_at": (lambda s, t, b: aggregate_occupancy_at(s, POINT, t, b), True),
    "interference_margin": (lambda s, t, b: interference_margin(s, "ra", b), False),
    "interference_opportunity": (lambda s, t, b: interference_opportunity(s, "ra", POINT, t, b), True),
    "net_opportunity_at": (lambda s, t, b: net_opportunity_at(s, POINT, t, b), True),
    "receiver_sinr": (lambda s, t, b: receiver_sinr(s, "ra", t, b), True),
    "point_metrics": (lambda s, t, b: point_metrics(s, POINT, t, b), True),
    "cell_metrics": (lambda s, t, b: cell_metrics(s, dataclasses.replace(s.grid.cell(12), time_index=t, band_index=b)), True),
    "link_feasibility": (_link_feasibility, False),
}


@pytest.mark.parametrize("name", list(POINT_QUERIES))
def test_point_queries_reject_indices_outside_the_grid(name):
    query, reads_time = POINT_QUERIES[name]
    sys_ = repeating_system()  # four quanta, three bands
    query(sys_, 3, 2)  # the last quantum and band are in range
    cases = [(0, 3, "band index 3"), (0, -1, "band index -1"), (0, 42, "band index 42")]
    if reads_time:
        cases += [(4, 0, "time index 4"), (-1, 0, "time index -1"), (77, -1, "band index -1")]
    for time_index, band_index, message in cases:
        with pytest.raises(IndexError, match=f"^{message} out of range$"):
            query(sys_, time_index, band_index)
    for region in (-3, sys_.grid.region_count, 10**9) if name == "cell_metrics" else ():
        with pytest.raises(IndexError, match=f"^region index {region} out of range$"):
            cell_metrics(sys_, dataclasses.replace(sys_.grid.cell(12), region_index=region))


def test_cell_metrics_takes_only_the_grids_own_cells():
    """A cell equal to the grid's own is evaluated, one made by hand included; a
    cell with another centroid, sample point or region is a ValueError."""
    sys_ = repeating_system()
    own = sys_.grid.cell(12, 1, 2)
    by_hand = Cell(12, 1, 2, tuple(map(float, own.centroid)), tuple(map(float, own.sample_point)))
    assert cell_metrics(sys_, by_hand) == cell_metrics(sys_, own)
    for changed in (
        dict(centroid=(own.centroid[0] + 1.0, own.centroid[1])),
        dict(sample_point=sys_.grid.cell(13).sample_point),
        dict(region_index=13),
    ):
        with pytest.raises(ValueError, match=r"^cell \(1[23], 1, 2\) is not the grid's own$"):
            cell_metrics(sys_, dataclasses.replace(own, **changed))


def leaf_chunks(sys_) -> list[tuple[int, int]]:
    """The chunks of ``sys_``'s regions at a cap below the 128-region leaf:
    3 or more on ``repeating_system(hex_side=25.0)``'s 289 regions."""
    import muse.consumption as consumption

    return consumption._tree_spans(0, sys_.grid.region_count, 7)


@pytest.mark.parametrize("threads", ["1", "4"])
def test_gain_fields_computed_once_per_chunk(monkeypatch, threads):
    import muse.consumption as consumption

    sys_ = repeating_system(hex_side=25.0)
    spans = leaf_chunks(sys_)
    assert len(spans) == 4
    points = sys_.grid.points(0, sys_.grid.region_count)
    chunks = {points[lo:hi].tobytes(): lo for lo, hi in spans}
    calls, slices = [], []
    link_gain, evaluate = consumption.link_gain, consumption._evaluate

    def record(model, antenna, origin, pts):
        calls.append((chunks.get(np.asarray(pts).tobytes()), (model, antenna, tuple(origin))))
        return link_gain(model, antenna, origin, pts)

    monkeypatch.setattr(consumption, "link_gain", record)
    monkeypatch.setattr(consumption, "_evaluate", lambda *args: slices.append((len(args[0]), len(args[1]))) or evaluate(*args))
    monkeypatch.setattr(consumption, "_CHUNK", 7)
    monkeypatch.setenv("MUSE_THREADS", threads)
    system_report(sys_)

    entities = [e for _, _, e in sys_.iter_transmitters()] + [e for _, _, e in sys_.iter_receivers()]
    expected = Counter(
        (model, e.antenna, sys_.position_of(e))
        for e in entities
        for model in {
            sys_.model_for_band(nu)
            for tau in range(sys_.grid.horizon)
            for nu in range(sys_.grid.band_count)
            if e.is_active(tau, nu)
        }
    )
    # one field per (transceiver, model): ta, ra, tb and rb on two models each, rd on one, tc
    # never runs; rd's field equals ta's default-model one but is computed on its own
    assert sum(expected.values()) == 9 and len(expected) == 8
    for lo in chunks.values():
        assert Counter(key for chunk, key in calls if chunk == lo) == expected
    # every band's quanta 2 and 3 repeat quanta 0 and 1: one kernel call per chunk, on 6 of the 12 slots
    assert sorted(slices) == sorted((6, hi - lo) for lo, hi in spans)


@pytest.mark.parametrize("threads", ["1", "4"])
def test_maps_equal_per_slot_evaluation_bitwise(monkeypatch, threads):
    """The chunked grid pass, over all quanta and over one quantum at a time,
    equals each (band, quantum) slot evaluated at every sample point at once:
    its maps cell for cell, its member sums as the slots' sums added in
    (band, quantum) order."""
    import muse.consumption as consumption

    sys_ = repeating_system(hex_side=25.0)
    grid = sys_.grid
    assert len(leaf_chunks(sys_)) == 4
    monkeypatch.setattr(consumption, "_CHUNK", 7)
    monkeypatch.setenv("MUSE_THREADS", threads)
    maps, _, consumed = consumption._evaluate_grids([sys_], True, keep=consumption.MAP_FIELDS)[0]
    members = {e.id for e in entity_selector(sys_, "system")}
    assert set(consumed) == members
    per_slot = {}
    for nu in range(grid.band_count):
        budget = consumption._LinkBudget(sys_, nu)
        noise = consumption._noise_vector(sys_, nu, 0, grid.region_count)
        for tau in range(grid.horizon):
            block = np.empty((4, 1, grid.region_count))  # the rows of consumption.MAP_FIELDS
            part = consumption._evaluate([budget.slot(tau)], grid.points(0, grid.region_count), {budget: noise}, True, block)
            assert part.shape == (3 + len(budget.ids), 1)
            assert part[:3, 0].tobytes() == np.sum(block[[0, 1, 3], 0], axis=-1).tobytes()
            per_slot[nu, tau] = dict(zip(budget.ids, part[3:, 0]))
            for name, field in zip(consumption.MAP_FIELDS, block[:, 0]):
                assert maps[name][:, tau, nu].tobytes() == field.tobytes()
    totals = dict.fromkeys(members, 0.0)
    for nu, tau in sorted(per_slot):
        for member in members:
            totals[member] += per_slot[nu, tau][member]
    assert consumed == totals
    assert consumed["tc"] == 0.0 and consumed["ta"] > 0.0
    for tau in range(grid.horizon):
        quantum, _, part = consumption._evaluate_grids([sys_], True, times=[tau], keep=consumption.MAP_FIELDS)[0]
        for name in consumption.MAP_FIELDS:
            assert quantum[name][:, 0, :].tobytes() == maps[name][:, tau, :].tobytes()
        for member in members:
            expected = 0.0
            for nu in range(grid.band_count):
                expected += per_slot[nu, tau][member]
            assert part[member] == expected


# ---------------------------------------------------------------------------
# point and cell queries read the same slice pass as the map


@st.composite
def generated_systems(draw):
    offset = draw(st.one_of(st.none(), st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))))
    spec = small_grid(
        horizon=draw(st.integers(1, 2)),
        n_bands=draw(st.integers(1, 2)),
        worst_case_placement=draw(st.booleans()),
        sample_offset=offset,
    )
    position = st.tuples(st.floats(0.0, spec.region_width), st.floats(0.0, spec.region_height))
    antenna = st.one_of(
        st.just(OMNI),
        st.builds(
            lambda boresight, beamwidth, main, back: AntennaPattern("sector", boresight, beamwidth, main, back * main),
            st.floats(-math.pi, math.pi),
            st.floats(0.3, 2.0 * math.pi),
            st.floats(1.0, 8.0),
            st.floats(0.05, 1.0),
        ),
    )
    quanta = st.one_of(st.none(), st.frozensets(st.integers(0, spec.horizon - 1)))
    bands = st.one_of(st.none(), st.frozensets(st.integers(0, spec.band_count - 1)))
    links = []
    for k in range(draw(st.integers(1, 4))):
        tx = None
        if draw(st.booleans()):
            tx = Transmitter(
                id=f"t{k}",
                position=draw(position),
                tx_power=dbm_to_watts(draw(st.floats(-30.0, 30.0))),
                antenna=draw(antenna),
                active_intervals=draw(quanta),
                bands=draw(bands),
            )
        rxs = tuple(
            Receiver(
                id=f"r{k}-{m}",
                position=draw(position),
                beta=db_to_linear(draw(st.floats(0.0, 15.0))),
                antenna=draw(antenna),
                active_intervals=draw(quanta),
                bands=draw(bands),
                explicit_margin=None if tx else dbm_to_watts(draw(st.floats(-110.0, -60.0))),
            )
            for m in range(draw(st.integers(0 if tx else 1, 2)))
        )
        links.append(RFLink(id=f"l{k}", transmitter=tx, receivers=rxs))
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=draw(st.floats(2.0, 4.0))),
        grid_spec=spec,
        networks=(RFNetwork(id="net", links=tuple(links), orthogonal=draw(st.booleans())),),
        noise_cell_overrides=draw(
            st.dictionaries(
                st.tuples(st.integers(0, 24), st.integers(0, spec.band_count - 1)),
                st.floats(-110.0, -90.0).map(dbm_to_watts),
                max_size=3,
            )
        ),
    )


@settings(max_examples=25, deadline=None)
@given(generated_systems())
def test_point_and_cell_queries_equal_map_bitwise(sys_):
    maps = compute_maps(sys_)
    p_cmax = sys_.params.p_cmax
    assert np.all(np.abs(maps.occupancy + maps.opportunity + maps.liability - p_cmax) <= 1e-12 * p_cmax)
    grid = sys_.grid
    for at in np.ndindex(grid.region_count, grid.horizon, grid.band_count):
        cell = grid.cell(*at)
        point, tau, nu = cell.sample_point, cell.time_index, cell.band_index
        pm = point_metrics(sys_, point, tau, nu)
        assert pm.occupancy == maps.occupancy[at]
        assert pm.net_opportunity == maps.raw_opportunity[at]
        assert net_opportunity_at(sys_, point, tau, nu) == maps.raw_opportunity[at]
        assert aggregate_occupancy_at(sys_, point, tau, nu) == maps.occupancy[at]
        cm = cell_metrics(sys_, cell)
        assert (cm.occupancy, cm.opportunity, cm.raw_opportunity, cm.liability) == (
            maps.occupancy[at],
            maps.opportunity[at],
            maps.raw_opportunity[at],
            maps.liability[at],
        )


@settings(max_examples=20, deadline=None)
@given(generated_systems())
def test_receiver_queries_read_one_slot(sys_):
    """At each cell's sample point, every active receiver's interference opportunity
    is its point_metrics view's, its SINR is signal / (interference + noise) of the
    same slot, and cell_metrics flags exactly the receivers whose opportunity is negative."""
    import muse.consumption as consumption

    grid = sys_.grid
    for at in np.ndindex(grid.region_count, grid.horizon, grid.band_count):
        cell = grid.cell(*at)
        point, tau, nu = cell.sample_point, cell.time_index, cell.band_index
        views = {view.receiver_id: view for view in point_metrics(sys_, point, tau, nu).receivers}
        slot = consumption._LinkBudget(sys_, nu).slot(tau)
        budget = slot.budget
        for rx_id, view in views.items():
            assert interference_opportunity(sys_, rx_id, point, tau, nu).hex() == view.opportunity.hex()
            if sys_.link_of(rx_id).transmitter is not None:
                r = budget.row[rx_id]
                sinr = budget.signal[r] / (slot.interference[r] + budget.noise[r])
                assert receiver_sinr(sys_, rx_id, tau, nu).hex() == float(sinr).hex()
        harmful = {rx_id for rx_id, view in views.items() if view.opportunity < 0.0}
        assert cell_metrics(sys_, cell).harmful_interference == harmful


def test_each_point_cell_and_receiver_query_builds_one_link_budget(monkeypatch):
    import muse.consumption as consumption
    from muse import link_feasibility

    sys_ = region_link_system()
    grid = sys_.grid
    cell = grid.cell(12, 0, 0)
    point = cell.sample_point
    queries = {
        "tx_occupancy_at": lambda: tx_occupancy_at(sys_, "tx-1", point),
        "aggregate_occupancy_at": lambda: aggregate_occupancy_at(sys_, point),
        "interference_margin": lambda: interference_margin(sys_, "rx-1"),
        "interference_opportunity": lambda: interference_opportunity(sys_, "rx-1", point),
        "net_opportunity_at": lambda: net_opportunity_at(sys_, point),
        "receiver_sinr": lambda: receiver_sinr(sys_, "rx-1"),
        "point_metrics": lambda: point_metrics(sys_, point),
        "cell_metrics": lambda: cell_metrics(sys_, cell),
        "link_feasibility": lambda: link_feasibility(sys_, cell, grid.cell(grid.neighbors(12)[0]), 0, 4.0),
    }
    built = []
    init = consumption._LinkBudget.__init__
    monkeypatch.setattr(consumption._LinkBudget, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    for name, query in queries.items():
        built.clear()
        query()
        assert len(built) == 1, name


# ---------------------------------------------------------------------------
# monotonicity under growth


@settings(max_examples=25, deadline=None)
@given(generated_systems(), st.integers(0, 2**32 - 1))
def test_adding_transmitter_monotone(base, seed):
    from helpers import add_random_transmitter

    before = compute_maps(base)
    after = compute_maps(add_random_transmitter(base, np.random.default_rng(seed)))
    assert np.all(after.occupancy >= before.occupancy)
    assert np.all(after.raw_opportunity <= before.raw_opportunity)


@settings(max_examples=25, deadline=None)
@given(generated_systems(), st.integers(0, 2**32 - 1))
def test_adding_receiver_monotone(base, seed):
    from helpers import add_random_receiver

    before = compute_maps(base)
    after = compute_maps(add_random_receiver(base, np.random.default_rng(seed)))
    assert np.all(after.raw_opportunity <= before.raw_opportunity)
    assert np.array_equal(after.occupancy, before.occupancy)


# ---------------------------------------------------------------------------
# streamed totals


def bits(x) -> str:
    return float(x).hex()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 5000)),
    st.integers(1, 6000),
    st.integers(0, 2**32 - 1),
)
def test_tree_fold_equals_np_sum_bitwise(n, cap, seed):
    """Chunk sums of three fields of mixed magnitudes, taken along the last
    axis of a strided block as the grid pass takes them, fold to each field's
    np.sum for any chunk cap."""
    import muse.consumption as consumption

    rng = np.random.default_rng(seed)
    block = rng.standard_normal((3, n + 5)) * 10.0 ** rng.integers(-8, 9, (3, n + 5))
    spans = consumption._tree_spans(0, n, cap)
    folded = consumption._tree_fold({(lo, hi): np.sum(block[:, lo:hi], axis=-1) for lo, hi in spans}, 0, n)
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]] and spans[-1][1] == n
    assert all(hi - lo <= max(cap, 128) for lo, hi in spans)
    assert [bits(v) for v in folded] == [bits(np.sum(np.ascontiguousarray(row[:n]))) for row in block]


def slot_sums(field) -> float:
    """A psi total from its map: each (band, quantum) slot's np.sum of its
    contiguous column, added up from 0.0 in (band, quantum) order."""
    total = 0.0
    for nu in range(field.shape[2]):
        for tau in range(field.shape[1]):
            total += np.sum(np.ascontiguousarray(field[:, tau, nu]))
    return total


def assert_totals_equal_maps(sys_, chunk, threads):
    """system_report's psi totals are the per-slot sums of the maps bit for
    bit, its psi and entity sums the maps path's (whose chunks are smaller
    where a map is kept), and a transmitter's the per-slot
    np.sum of its received power over the whole grid, at ``chunk`` regions
    per chunk, on a grid of 3 or more chunks."""
    import muse.consumption as consumption

    with mock.patch.object(consumption, "_CHUNK", chunk), mock.patch.dict(os.environ, {"MUSE_THREADS": threads}):
        assert len(consumption._tree_spans(0, sys_.grid.region_count, chunk)) >= 3
        maps = compute_maps(sys_)
        _, sums, consumed = consumption._evaluate_grids([sys_], True, keep=("occupancy",))[0]
        rep = system_report(sys_)
    assert bits(rep.psi_utilized) == bits(slot_sums(maps.occupancy))
    assert bits(rep.psi_available) == bits(slot_sums(maps.opportunity))
    assert bits(rep.psi_forbidden) == bits(slot_sums(maps.liability))
    assert [bits(v) for v in sums] == [bits(rep.psi_utilized), bits(rep.psi_available), bits(rep.psi_forbidden)]
    assert {k: bits(v) for k, v in rep.entity_consumption.items()} == {k: bits(v) for k, v in consumed.items()}
    for _, _, tx in sys_.iter_transmitters():
        total, points, origin = 0.0, sys_.grid.points(0, sys_.grid.region_count), sys_.position_of(tx)
        for nu in range(sys_.grid.band_count):
            power = tx.tx_power * consumption.link_gain(sys_.model_for_band(nu), tx.antenna, origin, points)
            for tau in range(sys_.grid.horizon):
                if tx.is_active(tau, nu):
                    total += np.sum(power)
        assert bits(rep.entity_consumption[tx.id]) == bits(total)


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("chunk", [1, 3, 7, 43])
def test_report_totals_equal_map_sums_bitwise(chunk, threads):
    assert_totals_equal_maps(repeating_system(hex_side=25.0), chunk, threads)


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("chunk", [1, 3, 7, 43])
@settings(max_examples=10, deadline=None)
@given(sys_=generated_systems())
def test_generated_report_totals_equal_map_sums_bitwise(sys_, chunk, threads):
    spec = sys_.grid_spec  # a quarter of the side, the sample offset scaled with it
    offset = None if spec.sample_offset is None else (spec.sample_offset[0] / 4, spec.sample_offset[1] / 4)
    fine = dataclasses.replace(sys_, grid_spec=dataclasses.replace(spec, hex_side=25.0, sample_offset=offset))
    assert_totals_equal_maps(fine, chunk, threads)


@pytest.mark.parametrize("added", [10, 400])
def test_report_memory_does_not_grow_with_transmitters(monkeypatch, added):
    import muse.consumption as consumption

    base = dataclasses.replace(repeating_system(), grid_spec=small_grid(hex_side=5.0, horizon=4, n_bands=3))
    rng = np.random.default_rng(5)
    extra = tuple(
        RFLink(id=f"lx{k}", transmitter=Transmitter(id=f"x{k}", position=tuple(rng.uniform(0.0, 590.0, 2)), tx_power=1e-3))
        for k in range(added)
    )
    sys_ = dataclasses.replace(base, networks=base.networks + (RFNetwork(id="extra", links=extra),))
    grid = sys_.grid  # built before the trace starts
    monkeypatch.setattr(consumption, "_CHUNK", 1 << 12)
    monkeypatch.setenv("MUSE_THREADS", "1")
    spans = consumption._tree_spans(0, grid.region_count, 1 << 12)
    assert len(spans) == 2
    width = max(hi - lo for lo, hi in spans)
    _, peak = traced_peak(system_report, sys_)
    # a block of three fields x six slots beside one gain field, one received power and link_gain's
    # temporaries, whatever the transmitter count; a field kept per transmitter in a chunk takes 400 widths
    assert peak < 48 * width * 8


@pytest.mark.parametrize("hex_side, regions", [(24.0, 10_868), (8.0, 96_565)])
def test_report_memory_does_not_grow_with_the_grid(monkeypatch, hex_side, regions):
    import muse.consumption as consumption

    sys_ = region_link_system(hex_side=hex_side)  # the grid is built in the trace
    monkeypatch.setattr(consumption, "_CHUNK", 1 << 12)
    monkeypatch.setenv("MUSE_THREADS", "1")
    _, peak = traced_peak(system_report, sys_)
    # a block of three 4096-region rows beside the gain field and link_gain's temporaries, whatever the
    # region count; the whole lattice peaks at six float64 per region, 141 chunk-widths at 8 m
    assert sys_.grid.region_count == regions
    assert peak < 16 * (1 << 12) * 8


@pytest.mark.parametrize("worst_case", [False, True], ids=["as-placed", "worst-case"])
def test_streamed_queries_build_no_lattice(monkeypatch, tmp_path, worst_case):
    from muse import SpectrumGrid, save_scenario
    from muse.cli import main

    sys_ = region_link_system(worst_case=worst_case, hex_side=50.0)
    probe = (1500.0, 1500.0)
    system_report(sys_)
    entity_consumption(sys_, "link-1")
    point_metrics(sys_, probe)
    cell_metrics(sys_, sys_.grid.cell(sys_.grid.locate(probe)))
    assert holds_only_row_tables(sys_.grid)

    grids, build = [], SpectrumGrid.__init__
    monkeypatch.setattr(SpectrumGrid, "__init__", lambda grid, spec: (build(grid, spec), grids.append(grid))[0])
    save_scenario(sys_, tmp_path / "scenario.yaml")
    main(["sweep", "--scenario", str(tmp_path / "scenario.yaml"), "--hex-sides", "25,100"], standalone_mode=False)
    assert sorted(grid.spec.hex_side for grid in grids) == [25.0, 50.0, 100.0]  # loaded, then each side
    for grid in grids:
        assert holds_only_row_tables(grid)


def test_maps_blocks_stay_small_beside_the_maps(monkeypatch):
    import muse.consumption as consumption

    sys_ = dataclasses.replace(repeating_system(), grid_spec=small_grid(hex_side=5.0, horizon=4, n_bands=3))
    grid = sys_.grid  # built before the trace starts
    monkeypatch.setattr(consumption, "_CHUNK", 1 << 12)
    monkeypatch.setenv("MUSE_THREADS", "4")
    _, peak = traced_peak(compute_maps, sys_)
    # six distinct slots, so chunks of 4096 // 6 regions; 4096-region chunks would take it to about 1.9 x
    assert grid.region_count > 4 * (1 << 12) // 6
    assert peak < 1.5 * 4 * grid.cell_count * 8


def test_totals_block_is_capped_in_points(monkeypatch):
    """Where no map is kept, a chunk holds at most min(_CHUNK, 4 x _CHUNK // slots) regions, so
    each thread's block is at most three fields x 2^18 points x 8 B however many distinct slots
    the grid has; 2^16-region chunks would give these 12 slots a block of about 19 MB."""
    import muse.consumption as consumption

    txs = [Transmitter(id=f"t{q}", position=(100.0 + 150.0 * q, 300.0), tx_power=1e-3, active_intervals=frozenset({q}))
           for q in range(4)]  # one active per quantum, so each band's four quanta differ
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=small_grid(hex_side=1.6, horizon=4, n_bands=3),
        networks=(RFNetwork(id="n", links=tuple(RFLink(id=f"l{q}", transmitter=tx) for q, tx in enumerate(txs))),),
    )
    blocks = []

    class Local:  # the one thread's store, recording the block it allocates
        def __setattr__(self, name, value):
            blocks.append(value.nbytes)
            super().__setattr__(name, value)

    monkeypatch.setattr(consumption, "threading", SimpleNamespace(local=Local))
    monkeypatch.setenv("MUSE_THREADS", "1")
    system_report(sys_)
    assert len(consumption._plan(sys_, range(4), ()).slots) == 12
    assert 4 * (1 << 16) // 12 < sys_.grid.region_count <= 1 << 16
    assert len(blocks) == 1 and blocks[0] <= 3 * (1 << 18) * 8


def test_opportunity_map_holds_only_its_map(monkeypatch):
    import muse.consumption as consumption

    sys_ = dataclasses.replace(repeating_system(), grid_spec=small_grid(hex_side=5.0, horizon=4, n_bands=3))
    grid = sys_.grid  # built before the trace starts
    monkeypatch.setattr(consumption, "_CHUNK", 1 << 12)
    monkeypatch.setenv("MUSE_THREADS", "1")
    assert len(consumption._tree_spans(0, grid.region_count, (1 << 12) // 6)) >= 8  # six distinct slots
    omap, peak = traced_peak(opportunity_map, sys_)
    # the one map it returns, beside a block of three fields x six slots x 4096 // 6 regions and its gain fields;
    # holding all four maps would take it above 4 x
    assert omap.values.nbytes == grid.cell_count * 8
    assert peak < 2 * omap.values.nbytes


# ---------------------------------------------------------------------------
# entity and system aggregation


def test_inactive_transmitter_consumes_nothing():
    tx = Transmitter(id="t", position=(345.0, 290.0), tx_power=0.5, bands=frozenset())
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=small_grid(),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx),)),),
    )
    assert entity_consumption(sys_, "t") == 0.0


def test_entity_consumption_matches_oracle_sums():
    rng = np.random.default_rng(41)
    sys_ = random_system(rng, spec=small_grid())
    grid = sys_.grid
    per_cell = [oracle.evaluate_cell(sys_, grid.cell(chi)) for chi in range(grid.region_count)]
    for _, _, tx in sys_.iter_transmitters():
        expected = math.fsum(c["tx_occupancy"][tx.id] for c in per_cell)
        assert entity_consumption(sys_, tx.id) == pytest.approx(expected, rel=1e-9)
    for _, _, rx in sys_.iter_receivers():
        expected = math.fsum(c["rx_liability"][rx.id] for c in per_cell)
        assert entity_consumption(sys_, rx.id) == pytest.approx(expected, rel=1e-9, abs=1e-30)


@settings(max_examples=30, deadline=None)
@given(generated_systems())
def test_entity_sums_come_only_from_the_report(sys_):
    """The system's, every network's, link's and transceiver's consumption is
    the report's per-transceiver sums over its member ids, added from 0.0 in
    sorted id order, bit for bit."""
    consumed = system_report(sys_).entity_consumption
    links = [link for net in sys_.networks for link in net.links]
    for entity in ["system", *(net.id for net in sys_.networks), *(link.id for link in links), *consumed]:
        total = 0.0
        for member_id in sorted({m.id for m in entity_selector(sys_, entity)}):
            total += consumed[member_id]
        assert entity_consumption(sys_, entity).hex() == total.hex(), entity


def test_an_unknown_entity_raises_before_any_evaluation(monkeypatch):
    import muse.consumption as consumption

    calls = []
    monkeypatch.setattr(consumption, "_evaluate_grids", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(UnknownEntityError, match="nope"):
        entity_consumption(region_link_system(), "nope")
    assert calls == []


def test_point_liability_is_the_clipped_complement():
    """A receiver's liability at a point is p_cmax - (occupancy + its
    opportunity), clipped to [0, p_cmax], from the point's own fields; near
    the transmitter the occupancy is a sizeable share of p_cmax."""
    sys_ = region_link_system()
    p_cmax = sys_.params.p_cmax
    for point in [(1000.0, 2000.5), (1010.0, 2000.0), (1200.0, 1230.0), (1100.0, 1600.0)]:
        pm = point_metrics(sys_, point)
        (rx,) = pm.receivers
        assert rx.liability == min(max(p_cmax - (pm.occupancy + rx.opportunity), 0.0), p_cmax)


def test_entity_consumption_composite_is_sum():
    sys_ = probe_scenario("low")
    total = entity_consumption(sys_, "tx-1") + entity_consumption(sys_, "rx-1")
    assert entity_consumption(sys_, "link-1") == pytest.approx(total, rel=1e-12)
    assert entity_consumption(sys_, "system") == pytest.approx(total, rel=1e-12)


def test_lone_transmitter_consumed_scale():
    # 15 dBm omni transmitter on the reference grid occupies a vanishing
    # slice of the 676-unit space, concentrated near its own cell
    tx = Transmitter(id="t", position=(1000.0, 2000.0), tx_power=dbm_to_watts(15.0))
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=reference_grid(),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx),)),),
    )
    omega = entity_consumption(sys_, "t")
    assert omega == pytest.approx(1.8e-8, rel=0.25)  # lattice-dependent within a few percent
    grid = sys_.grid
    expected = math.fsum(
        oracle.evaluate_cell(sys_, grid.cell(chi))["tx_occupancy"]["t"] for chi in range(grid.region_count)
    )
    assert omega == pytest.approx(expected, rel=1e-9)


def test_region_link_fractions():
    rep = system_report(region_link_system())
    assert rep.forbidden_fraction == pytest.approx(0.166, abs=0.05)
    assert rep.available_fraction == pytest.approx(0.834, abs=0.05)
    assert rep.utilized_fraction < 1e-6
    assert rep.entity_consumption["rx-1"] == pytest.approx(rep.psi_forbidden, rel=0.02)


def test_empty_system_report():
    rep = system_report(empty_system())
    assert rep.psi_forbidden == 0.0
    assert rep.psi_available == pytest.approx(rep.psi_total, rel=1e-9)
    assert rep.conservation_residual <= 1e-12


@pytest.mark.parametrize("include_entities", [True, False])
def test_system_reports_equal_each_system_report(monkeypatch, include_entities):
    """Reports of several systems from one pool equal each system's own report, entity
    sums included: each system reports its own transceivers only."""
    monkeypatch.setenv("MUSE_THREADS", "4")
    systems = [region_link_system(worst_case=True, hex_side=60.0), four_pair_system(hex_side=100.0), empty_system()]
    together = system_reports(systems, include_entities=include_entities)
    assert together == [system_report(s, include_entities=include_entities) for s in systems]
    assert [len(rep.entity_consumption) for rep in together] == ([2, 8, 0] if include_entities else [0, 0, 0])


def test_report_identity_random():
    rng = np.random.default_rng(59)
    for _ in range(5):
        rep = system_report(random_system(rng), include_entities=False)
        total = rep.psi_utilized + rep.psi_forbidden + rep.psi_available
        assert total == pytest.approx(rep.psi_total, rel=1e-9)


# ---------------------------------------------------------------------------
# engine vs straight-line oracle (smoke; the acceptance suite runs 1000)


def test_cell_metrics_matches_oracle():
    rng = np.random.default_rng(71)
    for _ in range(20):
        sys_ = random_system(rng, spec=small_grid(horizon=2, n_bands=2))
        grid = sys_.grid
        chi = int(rng.integers(grid.region_count))
        tau = int(rng.integers(grid.horizon))
        nu = int(rng.integers(grid.band_count))
        cell = grid.cell(chi, tau, nu)
        got = cell_metrics(sys_, cell)
        want = oracle.evaluate_cell(sys_, cell)
        scale = sys_.params.p_cmax
        assert got.occupancy == pytest.approx(want["occupancy"], rel=1e-9)
        assert got.raw_opportunity == pytest.approx(want["raw_opportunity"], rel=1e-9, abs=1e-12 * scale)
        assert got.opportunity == pytest.approx(want["opportunity"], rel=1e-9, abs=1e-12 * scale)
        assert got.liability == pytest.approx(want["liability"], rel=1e-9, abs=1e-12 * scale)
