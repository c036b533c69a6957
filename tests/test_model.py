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

from helpers import probe_scenario, reference_grid, reference_params, region_link_system, traced_peak


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
    """A link holds at most one transmitter by type: a second has no field to go in."""
    t1 = Transmitter(id="a", position=(10.0, 10.0), tx_power=0.1)
    t2 = Transmitter(id="b", position=(20.0, 20.0), tx_power=0.1)
    assert [f.name for f in dataclasses.fields(RFLink)] == ["id", "transmitter", "receivers"]
    with pytest.raises(TypeError):
        RFLink(id="l", transmitters=(t1, t2))
    link = RFLink(id="l", transmitter=t1)
    assert link.transceivers == (t1,) and RFLink(id="l").transceivers == ()


def test_co_activity_violations():
    tx = Transmitter(id="t", position=(10.0, 10.0), tx_power=0.1, active_intervals=frozenset({0}))
    rx = Receiver(id="r", position=(20.0, 20.0), beta=2.0, active_intervals=frozenset({0, 1}))
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(horizon=2),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx, receivers=(rx,)),)),),
    )
    report = validate_system(sys_)
    assert any("inactive" in v for v in report.violations)


@pytest.mark.parametrize(
    "tx_active, rx_active, violations",
    [
        (None, None, ()),
        (None, {0, 1}, ()),
        ({0, 1}, None, ()),
        ({1, 0, 0}, {1}, ()),
        ({0}, None, ("receiver r: active while serving transmitter t is inactive",)),
        (
            {0, 5},
            None,
            (
                "transmitter t: active interval outside the time horizon",
                "receiver r: active while serving transmitter t is inactive",
            ),
        ),
        ({0, 1, 5}, None, ("transmitter t: active interval outside the time horizon",)),
        (
            None,
            {0, 7},
            (
                "receiver r: active interval outside the time horizon",
                "receiver r: active while serving transmitter t is inactive",
            ),
        ),
    ],
    ids=["all-all", "all-given", "given-covers-all", "given-covers-given", "given-short", "given-as-many-not-all",
         "given-covers-all-and-more", "given-outside"],
)
def test_activity_within_the_horizon_and_the_serving_transmitter(tx_active, rx_active, violations):
    """Over two time quanta: a given set covers "every quantum" only if it holds each of them,
    also when it has as many indices; a receiver index outside the horizon is also one its
    always-active serving transmitter does not have."""
    tx = Transmitter(id="t", position=(10.0, 10.0), tx_power=0.1, active_intervals=tx_active)
    rx = Receiver(id="r", position=(20.0, 20.0), beta=2.0, active_intervals=rx_active)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(horizon=2),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx, receivers=(rx,)),)),),
    )
    assert validate_system(sys_).violations == violations


def test_validation_builds_no_set_of_every_time_quantum():
    """A 200 m square of 100 m hexagons (7 regions) over 2,000,000 time quanta is 14 M cells,
    under MAX_CELLS.  Validation once built a set of every quantum up to three times per
    transceiver (0.96 s and 290 MB here); it checks the given sets alone."""
    tx = Transmitter(id="t", position=(50.0, 50.0), tx_power=0.1)
    rx = Receiver(id="r", position=(150.0, 150.0), beta=2.0)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=GridSpec(region_width=200.0, region_height=200.0, hex_side=100.0, horizon=2_000_000),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx, receivers=(rx,)),)),),
    )
    assert sys_.grid.region_count == 7
    report, peak = traced_peak(validate_system, sys_)
    assert report.ok and peak < 5 * 2**20
    late = RFLink(id="l", transmitter=dataclasses.replace(tx, active_intervals={1_999_999}), receivers=(rx,))
    report, peak = traced_peak(validate_system, dataclasses.replace(sys_, networks=(RFNetwork(id="n", links=(late,)),)))
    assert report.violations == ("receiver r: active while serving transmitter t is inactive",) and peak < 5 * 2**20


def test_violations_of_one_transmitter_and_one_receiver_in_order():
    tx = Transmitter(id="t", position=(-1.0, 10.0), tx_power=2.0, active_intervals={5}, bands={3})
    rx = Receiver(id="l", position=(10.0, 5000.0), beta=2.0, active_intervals={0, 7}, bands={0, 2}, explicit_margin=1e-12)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(),
        grid_spec=reference_grid(horizon=2),
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx, receivers=(rx,)),)),),
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
                links=(RFLink(id="l1", transmitter=outside), RFLink(id="l2", transmitter=hot), RFLink(id="l3", transmitter=dup)),
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
    link2 = RFLink(id="link-2", transmitter=tx2, receivers=(rx2, rx3))
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
        (sample,) = grid.points(chi, chi + 1)
        d_sample = math.hypot(eff[0] - sample[0], eff[1] - sample[1])
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


def test_worst_case_vertex_rule():
    """Worst-case placement puts a transceiver on a vertex of its hexagon:
    vertex 0 (the top) without a counterpart, else the vertex farthest from
    the counterpart, the first such vertex on ties."""
    import numpy as np

    from muse.grid import SpectrumGrid
    from muse.model import _worst_case_vertex

    grid = SpectrumGrid(reference_grid(100.0))
    position = (1000.0, 2000.0)
    vertices = grid.hex_vertices(grid.locate(position))
    assert vertices[0][1] == max(v[1] for v in vertices)
    assert _worst_case_vertex(grid, position, None) == tuple(vertices[0])
    for counterpart, k in [((1000.0, 0.0), 0), ((3000.0, 3000.0), 2), ((0.0, 2000.0), 4), ((1000.0, 3700.0), 3)]:
        assert _worst_case_vertex(grid, position, counterpart) == tuple(vertices[k])

    class Ties:  # vertices 1, 3 and 4 all lie 2 from the counterpart at the origin
        def locate(self, point):
            return 0

        def hex_vertices(self, region_index):
            return np.array([(0.0, 1.0), (2.0, 0.0), (0.0, -1.0), (0.0, 2.0), (-2.0, 0.0), (1.0, 0.0)])

    assert _worst_case_vertex(Ties(), (0.0, 0.0), (0.0, 0.0)) == (2.0, 0.0)
    assert _worst_case_vertex(Ties(), (0.0, 0.0), None) == (0.0, 1.0)

    # in a scenario: the transmitter's counterpart is the mean of its link's
    # receivers, the receiver's its serving transmitter, both as placed
    sys_ = region_link_system(worst_case=True)
    tx, rx = sys_.transmitter("tx-1"), sys_.receiver("rx-1")
    assert sys_.position_of(tx) == _worst_case_vertex(sys_.grid, tx.position, rx.position)
    assert sys_.position_of(rx) == _worst_case_vertex(sys_.grid, rx.position, tx.position)
    assert sys_.position_of(rx) != _worst_case_vertex(sys_.grid, rx.position, None)
