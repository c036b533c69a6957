import dataclasses
import math

import pytest

from muse import (
    AntennaPattern,
    Band,
    GridSpec,
    PropagationModel,
    Receiver,
    RFLink,
    RFNetwork,
    RFSystem,
    SystemParams,
    Transmitter,
    UnknownEntityError,
    entity_selector,
    validate_system,
)

from helpers import probe_scenario, reference_grid, reference_params


def test_p_cmax_is_derived():
    params = reference_params()
    assert params.p_cmax == params.p_max - params.p_min
    assert SystemParams(p_max=2.0, p_min=0.5, ambient_noise=1e-12).p_cmax == 1.5


def test_params_invariants():
    with pytest.raises(ValueError):
        SystemParams(p_max=1.0, p_min=1.0, ambient_noise=1e-12)
    with pytest.raises(ValueError):
        SystemParams(p_max=1.0, p_min=-1.0, ambient_noise=1e-12)
    with pytest.raises(ValueError):
        SystemParams(p_max=1.0, p_min=1e-20, ambient_noise=0.0)
    with pytest.raises(ValueError):
        Transmitter(id="t", position=(0, 0), tx_power=0.0)
    with pytest.raises(ValueError):
        Receiver(id="r", position=(0, 0), beta=0.0)


def test_empty_system_is_valid():
    sys_ = RFSystem(params=reference_params(), propagation=PropagationModel(), grid_spec=reference_grid())
    assert validate_system(sys_).ok


def test_two_transmitter_link_flagged():
    t1 = Transmitter(id="a", position=(10.0, 10.0), tx_power=0.1)
    t2 = Transmitter(id="b", position=(20.0, 20.0), tx_power=0.1)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitters=(t1, t2)),)),),
    )
    report = validate_system(sys_)
    assert any("2 transmitters" in v for v in report.violations)
    with pytest.raises(ValueError):
        report.raise_if_invalid()


def test_co_activity_violations():
    tx = Transmitter(id="t", position=(10.0, 10.0), tx_power=0.1, active_intervals=frozenset({0}))
    rx = Receiver(id="r", position=(20.0, 20.0), beta=2.0, active_intervals=frozenset({0, 1}))
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(horizon=2),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitters=(tx,), receivers=(rx,)),)),),
    )
    report = validate_system(sys_)
    assert any("inactive" in v for v in report.violations)


def test_violations_of_one_transmitter_and_one_receiver_in_order():
    tx = Transmitter(id="t", position=(-1.0, 10.0), tx_power=2.0, active_intervals={5}, bands={3})
    rx = Receiver(id="l", position=(10.0, 5000.0), beta=2.0, active_intervals={0, 7}, bands={0, 2}, explicit_margin=1e-12)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(horizon=2),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitters=(tx,), receivers=(rx,)),)),),
    )
    assert validate_system(sys_).violations == (
        "transmitter t: tx_power exceeds p_max",
        "transmitter t: position outside the scenario region",
        "transmitter t: active interval outside the time horizon",
        "transmitter t: band index outside the frequency range",
        "duplicate id 'l' (link and receiver)",
        "receiver l: position outside the scenario region",
        "receiver l: active interval outside the time horizon",
        "receiver l: band index outside the frequency range",
        "receiver l: explicit margin not allowed when link l has a transmitter",
        "receiver l: active while serving transmitter t is inactive",
        "receiver l: uses a band the serving transmitter t does not occupy",
    )


def test_per_band_noise_of_the_wrong_length_flagged():
    grid = reference_grid(bands=(Band(6e8, 6e6), Band(6.1e8, 6e6), Band(6.2e8, 6e6)))
    params = dataclasses.replace(reference_params(), ambient_noise=(1e-13, 2e-13))
    sys_ = RFSystem(params=params, propagation=PropagationModel(), grid_spec=grid)
    assert validate_system(sys_).violations == ("ambient noise: 2 per-band values for 3 bands",)
    fixed = dataclasses.replace(params, ambient_noise=(1e-13, 2e-13, 3e-13))
    assert validate_system(dataclasses.replace(sys_, params=fixed)).ok


def test_degenerate_grid_flagged():
    """A region too small for one hexagon: the grid's own error is the one violation."""
    spec = GridSpec(region_width=150.0, region_height=150.0, hex_side=100.0)
    sys_ = RFSystem(params=reference_params(), propagation=PropagationModel(), grid_spec=spec)
    (violation,) = validate_system(sys_).violations
    assert violation.startswith("degenerate grid")


def test_receive_only_needs_explicit_margin():
    rx = Receiver(id="r", position=(20.0, 20.0), beta=2.0)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", receivers=(rx,)),)),),
    )
    assert any("explicit interference margin" in v for v in validate_system(sys_).violations)
    fixed = dataclasses.replace(rx, explicit_margin=1e-12)
    sys_ok = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", receivers=(fixed,)),)),),
    )
    assert validate_system(sys_ok).ok


def test_structural_violations():
    outside = Transmitter(id="t", position=(9000.0, 10.0), tx_power=0.1)
    hot = Transmitter(id="h", position=(10.0, 10.0), tx_power=2.0)  # p_max is 1 W
    dup = Transmitter(id="t", position=(10.0, 10.0), tx_power=0.1)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(),
        networks=(
            RFNetwork(
                id="n",
                links=(RFLink(id="l1", transmitters=(outside,)), RFLink(id="l2", transmitters=(hot,)), RFLink(id="l3", transmitters=(dup,))),
            ),
        ),
    )
    messages = "\n".join(validate_system(sys_).violations)
    assert "outside the scenario region" in messages
    assert "exceeds p_max" in messages
    assert "duplicate id" in messages


def test_entity_selector():
    sys_ = probe_scenario("low")
    tx2 = Transmitter(id="tx-2", position=(500.0, 500.0), tx_power=0.01)
    rx2 = Receiver(id="rx-2", position=(600.0, 600.0), beta=2.0)
    rx3 = Receiver(id="rx-3", position=(700.0, 700.0), beta=2.0)
    link2 = RFLink(id="link-2", transmitters=(tx2,), receivers=(rx2, rx3))
    sys_ = dataclasses.replace(sys_, networks=sys_.networks + (RFNetwork(id="net-2", links=(link2,)),))

    link_set = entity_selector(sys_, "link-2")
    assert {m.id for m in link_set} == {"tx-2", "rx-2", "rx-3"}
    assert {m.id for m in entity_selector(sys_, "rx-2")} == {"rx-2"}
    everything = entity_selector(sys_, "system")
    assert {m.id for m in everything} == {"tx-1", "rx-1", "tx-2", "rx-2", "rx-3"}

    # nesting: link subset of network subset of system
    net_set = entity_selector(sys_, "net-2")
    assert link_set <= net_set <= everything
    with pytest.raises(UnknownEntityError):
        entity_selector(sys_, "nope")


def test_worst_case_positions_sit_on_vertices():
    sys_ = probe_scenario("low")
    spec = dataclasses.replace(sys_.grid_spec, worst_case_placement=True)
    moved = dataclasses.replace(sys_, grid_spec=spec)
    grid = moved.grid
    for _, _, tx in moved.iter_transmitters():
        chi = grid.locate(tx.position)
        eff = moved.position_of(tx)
        d_sample = math.hypot(eff[0] - grid.sample_points[chi][0], eff[1] - grid.sample_points[chi][1])
        assert d_sample == pytest.approx(spec.hex_side, rel=1e-12)
    # receiver vertex maximizes distance from serving transmitter
    rx = moved.receiver("rx-1")
    tx = moved.transmitter("tx-1")
    eff = moved.position_of(rx)
    others = grid.hex_vertices(grid.locate(rx.position))
    d_chosen = math.hypot(eff[0] - tx.position[0], eff[1] - tx.position[1])
    d_all = [math.hypot(v[0] - tx.position[0], v[1] - tx.position[1]) for v in others]
    assert d_chosen == pytest.approx(max(d_all), rel=1e-12)


def test_band_override_lookup():
    base = PropagationModel(alpha=3.5)
    override = PropagationModel(alpha=2.0)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=base,
        grid_spec=reference_grid(),
        networks=(),
        band_propagation={1: override},
    )
    assert sys_.model_for_band(0) is base
    assert sys_.model_for_band(1) is override


def test_weakest_link_gain_must_be_normal():
    base = probe_scenario("low")
    assert validate_system(base).ok
    # a band override whose gain underflows to zero across the region
    override = dataclasses.replace(base, band_propagation={0: PropagationModel(alpha=1.0e308)})
    assert [v for v in validate_system(override).violations if "link gain" in v] == [
        "band 0: link gain 0 at 6236.99 m is not a normal float"
    ]
    # a normal path gain times a tiny sector back lobe is subnormal
    link = base.networks[0].links[0]
    sector = AntennaPattern("sector", beamwidth=1.0, main_gain=1.0, back_gain=1e-300)
    weak = dataclasses.replace(link.receivers[0], antenna=sector)
    network = RFNetwork(id="net-1", links=(dataclasses.replace(link, receivers=(weak,)),))
    report = validate_system(dataclasses.replace(base, networks=(network,)))
    assert len(report.violations) == 1 and "is not a normal float" in report.violations[0]
    assert not validate_system(dataclasses.replace(base, propagation=PropagationModel(reference_distance=5e-324))).ok


def test_region_whose_squared_distances_overflow_is_rejected():
    base = dataclasses.replace(probe_scenario("low"), propagation=PropagationModel(alpha=0.01))
    grid = dataclasses.replace(base.grid_spec, region_width=1e200, region_height=1e200, hex_side=1e199)
    assert validate_system(dataclasses.replace(base, grid_spec=grid)).violations == (
        "region diagonal 1.9799e+200 m (grown by two hex sides) exceeds 2^511 m",
    )
    # just inside the bound: the grown diagonal is 1.47e153 m, below 2^511 = 6.7e153 m
    grid = dataclasses.replace(base.grid_spec, region_width=1e153, region_height=1e153, hex_side=1e151)
    assert validate_system(dataclasses.replace(base, grid_spec=grid)).ok
