import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from muse import (
    OMNI,
    PropagationModel,
    Receiver,
    RFLink,
    RFNetwork,
    RFSystem,
    Transmitter,
    build_connectivity_map,
    compute_maps,
    db_to_linear,
    dbm_to_watts,
    link_feasibility,
    load_scenario,
    watts_to_dbm,
)
from muse import connectivity, consumption
from muse.connectivity import _hop_gains
from muse.propagation import link_gain

from helpers import add_random_receiver, assert_same_text, empty_system, random_system, reference_params, small_grid
from test_consumption import generated_systems

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def multi_band_system(n_bands=3, **kwargs):
    spec = small_grid(n_bands=n_bands, **kwargs)
    tx = Transmitter(id="t0", position=(340.0, 300.0), tx_power=dbm_to_watts(10.0), bands=frozenset({0}))
    rx = Receiver(id="r0", position=(500.0, 300.0), beta=db_to_linear(6.0), bands=frozenset({0}))
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=spec,
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitters=(tx,), receivers=(rx,)),)),),
    )


def test_empty_system_adjacent_link_budget():
    sys_ = empty_system()
    grid = sys_.grid
    a = grid.locate((2000.0, 2000.0))
    b = grid.neighbors(a)[0]
    feasible, max_power, sinr = link_feasibility(sys_, grid.cell(a), grid.cell(b), 0, db_to_linear(10.0))
    assert feasible
    # hand budget: ~1 W over one hexagon pitch (sqrt(3)*100 m) against -106 dBm noise
    pitch = math.sqrt(3.0) * 100.0
    expected_sinr_db = (
        10.0 * math.log10(sys_.params.p_max - dbm_to_watts(-106.0))
        - 35.0 * math.log10(pitch)
        + 106.0
        + 30.0
    )
    assert 10.0 * math.log10(sinr) == pytest.approx(expected_sinr_db, abs=1e-6)
    assert 10.0 * math.log10(sinr) == pytest.approx(57.6504, abs=1e-3)
    assert max_power == pytest.approx(sys_.params.p_max - dbm_to_watts(-106.0), rel=1e-12)


def test_non_adjacent_rejected():
    sys_ = empty_system()
    grid = sys_.grid
    with pytest.raises(ValueError, match="not adjacent"):
        link_feasibility(sys_, grid.cell(0), grid.cell(400), 0, 2.0)
    with pytest.raises(ValueError, match="beta"):
        link_feasibility(sys_, grid.cell(0), grid.cell(1), 0, 0.0)


def test_zero_opportunity_blocks_link():
    spec = small_grid()
    guard = Receiver(id="guard", position=(340.0, 290.0), beta=2.0, explicit_margin=0.0)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=spec,
        networks=(RFNetwork(id="n", links=(RFLink(id="l", receivers=(guard,)),)),),
    )
    grid = sys_.grid
    a = grid.locate(guard.position)
    b = grid.neighbors(a)[0]
    feasible, max_power, sinr = link_feasibility(sys_, grid.cell(a), grid.cell(b), 0, db_to_linear(3.0))
    assert max_power == 0.0
    assert sinr == 0.0
    assert not feasible


def test_best_band_prefers_quiet_spectrum():
    sys_ = multi_band_system()
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    grid = sys_.grid
    a = grid.locate((340.0, 300.0))  # transmitter cell: band 0 is busy there
    b = grid.neighbors(a)[0]
    best = cmap.best_band[(a, b)]
    assert best in (1, 2)
    # bands 1 and 2 are identical; the tie must break to the lower index
    assert best == 1


def test_single_band_best_band():
    sys_ = empty_system()
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    assert set(cmap.best_band.values()) == {0}


def test_edges_cover_ordered_pairs_and_bands():
    sys_ = multi_band_system()
    grid = sys_.grid
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    n_pairs = sum(len(grid.neighbors(a)) for a in range(grid.region_count))
    assert len(cmap.edges) == n_pairs * grid.band_count
    # directionality: both orientations present and independently assessed
    sinr_ab = {(e.cell_a, e.cell_b, e.band_index): e.sinr for e in cmap.edges}
    assert all((b, a, nu) in sinr_ab for (a, b, nu) in sinr_ab)
    asymmetric = [abs(sinr_ab[(a, b, 0)] - sinr_ab[(b, a, 0)]) for (a, b, nu) in sinr_ab if nu == 0]
    assert max(asymmetric) > 0.0


def test_csv_byte_identical_runs():
    sys_ = multi_band_system()
    a = build_connectivity_map(sys_, db_to_linear(6.0)).to_csv()
    b = build_connectivity_map(sys_, db_to_linear(6.0)).to_csv()
    assert a == b
    header = a.splitlines()[0]
    assert header == "cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band"


def test_adding_receiver_never_raises_power():
    rng = np.random.default_rng(211)
    for _ in range(3):
        base = random_system(rng, spec=small_grid())
        cmap_before = build_connectivity_map(base, db_to_linear(6.0))
        grown = add_random_receiver(base, rng)
        cmap_after = build_connectivity_map(grown, db_to_linear(6.0))
        before = {(e.cell_a, e.cell_b, e.band_index): e.max_power for e in cmap_before.edges}
        for e in cmap_after.edges:
            assert e.max_power <= before[(e.cell_a, e.cell_b, e.band_index)] + 1e-18


def test_connectivity_does_not_import_scipy():
    code = (
        "import sys\n"
        "from helpers import empty_system\n"
        "from muse import build_connectivity_map\n"
        "build_connectivity_map(empty_system(), 4.0)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_link_feasibility_equals_map_bitwise():
    sys_ = multi_band_system()
    grid = sys_.grid
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    for e in cmap.edges:
        single = link_feasibility(sys_, grid.cell(e.cell_a), grid.cell(e.cell_b), e.band_index, db_to_linear(6.0))
        assert (single[0], single[1].hex(), single[2].hex()) == (e.feasible, e.max_power.hex(), e.sinr.hex())


def test_link_feasibility_evaluates_only_its_two_regions(monkeypatch):
    sys_ = multi_band_system(horizon=2)
    grid = sys_.grid
    quanta, slices = [], []
    active, evaluate = consumption._LinkBudget.active, consumption._evaluate

    def record(slots, pts, *args):
        slices.append(([budget.band_index for budget, _ in slots], np.asarray(pts).tolist()))
        return evaluate(slots, pts, *args)

    monkeypatch.setattr(consumption._LinkBudget, "active", lambda self, tau: quanta.append(tau) or active(self, tau))
    monkeypatch.setattr(consumption, "_evaluate", record)
    a = 12
    for b in grid.neighbors(a):
        for src, dst in ((a, b), (b, a)):
            quanta.clear()
            slices.clear()
            link_feasibility(sys_, grid.cell(src, 1), grid.cell(dst, 1), 1, db_to_linear(6.0))
            # two one-point slices, at the source's and the destination's sample point,
            # each on the requested band and in the cells' quantum
            assert quanta == [1, 1]
            assert slices == [([1], [grid.sample_points[chi].tolist()]) for chi in (src, dst)]


def test_best_band_is_first_feasible_argmax():
    base = multi_band_system()
    # guards that shrink the opportunity of band 1 in one corner and of band 2 in the other
    guards = tuple(
        Receiver(id=f"g{nu}", position=pos, beta=2.0, explicit_margin=dbm_to_watts(-95.0), bands=frozenset({nu}))
        for nu, pos in ((1, (150.0, 150.0)), (2, (550.0, 450.0)))
    )
    sys_ = dataclasses.replace(base, networks=base.networks + (RFNetwork(id="g", links=(RFLink(id="gl", receivers=guards),)),))
    cmap = build_connectivity_map(sys_, db_to_linear(20.0))
    by_pair = {}
    for e in cmap.edges:
        by_pair.setdefault((e.cell_a, e.cell_b), []).append(e)
    assert list(by_pair) == list(cmap.best_band)
    for pair, edges in by_pair.items():
        feasible = [e for e in edges if e.feasible]
        # max() keeps the first of equal SINRs, i.e. the lowest band index
        expected = max(feasible, key=lambda e: e.sinr).band_index if feasible else None
        assert cmap.best_band[pair] == expected
    assert {1, 2, None} <= set(cmap.best_band.values())


def test_connectivity_evaluates_only_the_requested_quantum(monkeypatch):
    base = multi_band_system(horizon=3)
    # the transmitter and receiver are active in quanta 0 and 2 only, so quantum 1 differs
    link = base.networks[0].links[0]
    tx = dataclasses.replace(link.transmitters[0], bands=None, active_intervals=frozenset({0, 2}))
    rx = dataclasses.replace(link.receivers[0], bands=None, active_intervals=frozenset({0, 2}))
    sys_ = dataclasses.replace(
        base, networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitters=(tx,), receivers=(rx,)),)),)
    )
    maps = compute_maps(sys_)
    quanta, slices = [], []
    active, evaluate = consumption._LinkBudget.active, consumption._evaluate
    monkeypatch.setattr(consumption._LinkBudget, "active", lambda self, tau: quanta.append(tau) or active(self, tau))
    monkeypatch.setattr(consumption, "_evaluate", lambda *args: slices.extend(b.band_index for b, _ in args[0]) or evaluate(*args))
    beta = db_to_linear(6.0)
    bands = range(sys_.grid.band_count)
    for tau in range(sys_.grid_spec.horizon):
        quanta.clear()
        slices.clear()
        cmap = build_connectivity_map(sys_, beta, tau)
        # each band reads the masks of the requested quantum only and evaluates one slice
        assert quanta == [tau] * sys_.grid.band_count
        assert slices == list(bands)
        # the budget as computed from the full maps before
        a, b = cmap.cell_a, cmap.cell_b
        max_power = np.minimum(np.maximum(maps.raw_opportunity[a, tau, :], 0.0), sys_.params.p_max)
        sinr = max_power * _hop_gains(sys_, a, b, bands) / maps.occupancy[b, tau, :]
        assert max_power.tobytes() == cmap.max_power.tobytes()
        assert sinr.tobytes() == cmap.sinr.tobytes()
        assert np.array_equal(sinr >= beta, cmap.feasible)
    quiet = build_connectivity_map(sys_, beta, 1).max_power
    assert not np.array_equal(quiet, build_connectivity_map(sys_, beta, 0).max_power)


def test_hop_gains_equal_link_gains_bitwise():
    """Hops and gain fields measure distance with one formula: on random,
    mostly non-adjacent, region pairs of an 8 m grid the hop gains equal
    ``link_gain`` of an omni antenna at the source's sample point."""
    sys_ = random_system(np.random.default_rng(3), spec=small_grid(8.0))
    rng = np.random.default_rng(11)
    a, b = rng.integers(0, sys_.grid.region_count, size=(2, 2000))
    pts = sys_.grid.sample_points
    hops = _hop_gains(sys_, a, b, [0])[:, 0]
    model = sys_.model_for_band(0)
    assert hops.tolist() == [link_gain(model, OMNI, pts[i], [pts[j]])[0] for i, j in zip(a, b)]


# ---------------------------------------------------------------------------
# the connectivity CSV is byte-identical to one f-string per row


def reference_edges_csv_text(cmap) -> str:
    lines = ["cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band"]
    for p, (a, b, best) in enumerate(zip(cmap.cell_a.tolist(), cmap.cell_b.tolist(), cmap.best.tolist())):
        for nu in range(cmap.sinr.shape[1]):
            ok, power, sinr = bool(cmap.feasible[p, nu]), float(cmap.max_power[p, nu]), float(cmap.sinr[p, nu])
            sinr_db = 10.0 * math.log10(sinr) if sinr > 0.0 else -math.inf
            lines.append(
                f"{a},{b},{nu},{1 if ok else 0},{watts_to_dbm(power):.12g},{sinr_db:.12g},"
                f"{'' if best < 0 else best}"
            )
    return "\n".join(lines) + "\n"


def assert_csv_matches_reference(cmap):
    for chunk_rows in (1, 7, 64, 4096):
        with mock.patch.object(connectivity, "_CSV_CHUNK_ROWS", chunk_rows):
            assert_same_text(cmap.to_csv(), reference_edges_csv_text(cmap))


# No explain phase: on a failure it reruns the failing example some 500 times
# (about 28 s on 2 vCPUs) only to annotate the report; the verdict is the same.
@settings(max_examples=25, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(generated_systems(), st.integers(0, 2))
def test_csv_matches_reference_on_generated_systems(sys_, time_index):
    time_index = min(time_index, sys_.grid_spec.horizon - 1)
    for beta_db in (6.0, 20.0):
        assert_csv_matches_reference(build_connectivity_map(sys_, db_to_linear(beta_db), time_index))


def test_csv_zero_power_source_and_no_feasible_band():
    spec = small_grid(n_bands=2)
    guard = Receiver(id="guard", position=(340.0, 290.0), beta=2.0, explicit_margin=0.0)
    sys_ = RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=spec,
        networks=(RFNetwork(id="n", links=(RFLink(id="l", receivers=(guard,)),)),),
    )
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    assert_csv_matches_reference(cmap)
    source = sys_.grid.locate(guard.position)
    rows = [line.split(",") for line in cmap.to_csv().splitlines()[1:] if line.startswith(f"{source},")]
    assert len(rows) == 2 * len(sys_.grid.neighbors(source))
    # no power at the guard's region: both dB columns are -inf and no band is feasible
    assert all(row[3:] == ["0", "-inf", "-inf", ""] for row in rows)


def test_csv_one_band_grid():
    sys_ = dataclasses.replace(multi_band_system(), grid_spec=small_grid(n_bands=1))
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    assert cmap.sinr.shape[1] == 1
    assert_csv_matches_reference(cmap)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_csv_matches_reference_on_demo_scenarios(path):
    sys_ = load_scenario(path)
    for beta_db in (6.0, 10.0):
        assert_csv_matches_reference(build_connectivity_map(sys_, db_to_linear(beta_db)))
