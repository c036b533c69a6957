import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from muse import (
    OMNI,
    Cell,
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
from muse import cli, consumption
from muse.connectivity import _hop_gains
from muse.grid import SQRT3, GridSpec
from muse.propagation import link_gain

from helpers import (
    add_random_receiver,
    assert_same_text,
    empty_system,
    holds_only_row_tables,
    random_system,
    reference_params,
    small_grid,
    traced_peak,
)
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
        networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx, receivers=(rx,)),)),),
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
    _, cell_b, _, _, best = cmap.pairs(a, a + 1)
    best = best[cell_b.tolist().index(b)]
    assert best in (1, 2)
    # bands 1 and 2 are identical; the tie must break to the lower index
    assert best == 1


def test_single_band_best_band():
    sys_ = empty_system()
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    assert set(cmap.pairs()[4].tolist()) == {0}


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


def test_pairs_of_a_region_range_outside_the_grid_raise():
    """``pairs(lo, hi)`` takes a range of [0, regions], as the grid's range methods do:
    a range past either end raises the grid's IndexError, not numpy's or none."""
    cmap = build_connectivity_map(empty_system(), db_to_linear(6.0))
    n = cmap.grid.region_count
    for lo, hi in ((-3, 2), (n - 2, n + 3), (2, 1)):
        with pytest.raises(IndexError, match=rf"^region range \[{lo}, {hi}\) outside \[0, {n}\)$"):
            cmap.pairs(lo, hi)
    whole = cmap.pairs()
    for part, full in zip(cmap.pairs(n - 2, n), whole):
        assert np.array_equal(part, full[-len(part):])


def test_csv_byte_identical_runs():
    sys_ = multi_band_system()
    a = "".join(build_connectivity_map(sys_, db_to_linear(6.0)).csv_chunks())
    b = "".join(build_connectivity_map(sys_, db_to_linear(6.0)).csv_chunks())
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


def test_a_sinr_equal_to_beta_is_feasible():
    """Feasible iff SINR >= beta: a pair whose SINR is beta exactly is
    feasible, in the map and in the one-pair query; one ulp more is not."""
    sys_ = multi_band_system()
    grid = sys_.grid
    a, b, nu = 12, grid.neighbors(12)[0], 0
    sinr = link_feasibility(sys_, grid.cell(a), grid.cell(b), nu, 1.0)[2]
    assert 0.0 < sinr < math.inf
    for beta, feasible in [(sinr, True), (np.nextafter(sinr, math.inf), False)]:
        assert link_feasibility(sys_, grid.cell(a), grid.cell(b), nu, beta)[::2] == (feasible, sinr)
        cell_a, cell_b, feasible_pairs, sinr_pairs, _ = build_connectivity_map(sys_, beta).pairs()
        k = int(np.flatnonzero((cell_a == a) & (cell_b == b))[0])
        assert (bool(feasible_pairs[k, nu]), float(sinr_pairs[k, nu])) == (feasible, sinr)


def test_link_feasibility_takes_only_the_grids_own_cells_in_one_quantum():
    """Each cell must equal the grid's own, and both lie in one quantum: else a
    ValueError.  The cells' band indices are not read; ``band_index`` governs."""
    sys_ = multi_band_system(horizon=2)
    grid = sys_.grid
    a, b = 12, grid.neighbors(12)[0]
    result = link_feasibility(sys_, grid.cell(a, 1, 0), grid.cell(b, 1, 0), 1, 4.0)
    assert link_feasibility(sys_, grid.cell(a, 1, 2), grid.cell(b, 1, 1), 1, 4.0) == result
    by_hand = Cell(a, 1, 0, tuple(map(float, grid.cell(a).centroid)), tuple(map(float, grid.cell(a).sample_point)))
    assert link_feasibility(sys_, by_hand, grid.cell(b, 1, 0), 1, 4.0) == result
    moved = dataclasses.replace(grid.cell(b, 1, 0), sample_point=grid.cell(a).sample_point)
    for pair in ((dataclasses.replace(by_hand, centroid=(0.0, 0.0)), grid.cell(b, 1)), (grid.cell(a, 1), moved)):
        with pytest.raises(ValueError, match=r"^cell \(\d+, 1, 0\) is not the grid's own$"):
            link_feasibility(sys_, *pair, 1, 4.0)
    with pytest.raises(ValueError, match="^cells in time quanta 0 and 1: a link is assessed in one$"):
        link_feasibility(sys_, grid.cell(a, 0), grid.cell(b, 1), 1, 4.0)


def test_link_feasibility_evaluates_only_its_two_regions(monkeypatch):
    sys_ = multi_band_system(horizon=2)
    grid = sys_.grid
    budgets, quanta, slices = [], [], []
    init, slot, evaluate = consumption._LinkBudget.__init__, consumption._LinkBudget.slot, consumption._evaluate

    def record(slots, pts, *args):
        slices.append(([s.budget.band_index for s in slots], [s.budget for s in slots], np.asarray(pts).tolist()))
        return evaluate(slots, pts, *args)

    monkeypatch.setattr(consumption._LinkBudget, "__init__", lambda self, s, nu: budgets.append(self) or init(self, s, nu))
    monkeypatch.setattr(consumption._LinkBudget, "slot", lambda self, tau: quanta.append(tau) or slot(self, tau))
    monkeypatch.setattr(consumption, "_evaluate", record)
    a = 12
    for b in grid.neighbors(a):
        for src, dst in ((a, b), (b, a)):
            budgets.clear()
            quanta.clear()
            slices.clear()
            link_feasibility(sys_, grid.cell(src, 1), grid.cell(dst, 1), 1, db_to_linear(6.0))
            # one link budget on the requested band and its slot in the cells' quantum, evaluated as two
            # one-point slices, at the source's and the destination's sample point
            assert [budget.band_index for budget in budgets] == [1] and quanta == [1]
            assert slices == [([1], budgets, grid.points(chi, chi + 1).tolist()) for chi in (src, dst)]


def test_link_feasibility_builds_no_lattice():
    """One pair on a 2 m grid of 1,534,487 regions: its two sample points are
    computed alone, so the call holds a few kilobytes, not the lattice."""
    sys_ = load_scenario(SCENARIOS / "region_with_link.yaml")
    sys_ = dataclasses.replace(sys_, grid_spec=dataclasses.replace(sys_.grid_spec, hex_side=2.0))
    grid = sys_.grid
    a = grid.locate((2000.0, 2000.0))
    cells = grid.cell(a), grid.cell(grid.neighbors(a)[0])
    result, peak = traced_peak(link_feasibility, sys_, *cells, 0, db_to_linear(10.0))
    assert grid.region_count == 1_534_487 and result[0]
    assert peak < 1 << 20
    assert holds_only_row_tables(grid)


def test_best_band_is_first_feasible_argmax():
    base = multi_band_system()
    # guards that shrink the opportunity of band 1 in one corner and of band 2 in the other
    guards = tuple(
        Receiver(id=f"g{nu}", position=pos, beta=2.0, explicit_margin=dbm_to_watts(-95.0), bands=frozenset({nu}))
        for nu, pos in ((1, (150.0, 150.0)), (2, (550.0, 450.0)))
    )
    sys_ = dataclasses.replace(base, networks=base.networks + (RFNetwork(id="g", links=(RFLink(id="gl", receivers=guards),)),))
    cmap = build_connectivity_map(sys_, db_to_linear(20.0))
    a, b, _, _, best = cmap.pairs()
    by_pair = {}
    for e in cmap.edges:
        by_pair.setdefault((e.cell_a, e.cell_b), []).append(e)
    assert list(by_pair) == list(zip(a.tolist(), b.tolist()))
    for edges, nu in zip(by_pair.values(), best.tolist()):
        feasible = [e for e in edges if e.feasible]
        # max() keeps the first of equal SINRs, i.e. the lowest band index
        expected = max(feasible, key=lambda e: e.sinr).band_index if feasible else -1
        assert nu == expected
    assert {1, 2, -1} <= set(best.tolist())


def test_connectivity_evaluates_only_the_requested_quantum(monkeypatch):
    base = multi_band_system(horizon=3)
    # the transmitter and receiver are active in quanta 0 and 2 only, so quantum 1 differs
    link = base.networks[0].links[0]
    tx = dataclasses.replace(link.transmitter, bands=None, active_intervals=frozenset({0, 2}))
    rx = dataclasses.replace(link.receivers[0], bands=None, active_intervals=frozenset({0, 2}))
    sys_ = dataclasses.replace(
        base, networks=(RFNetwork(id="n", links=(RFLink(id="l", transmitter=tx, receivers=(rx,)),)),)
    )
    maps = compute_maps(sys_)
    quanta, slices = [], []
    slot, evaluate = consumption._LinkBudget.slot, consumption._evaluate
    monkeypatch.setattr(consumption._LinkBudget, "slot", lambda self, tau: quanta.append(tau) or slot(self, tau))
    monkeypatch.setattr(consumption, "_evaluate", lambda *args: slices.extend(s.budget.band_index for s in args[0]) or evaluate(*args))
    beta = db_to_linear(6.0)
    bands = range(sys_.grid.band_count)
    for tau in range(sys_.grid_spec.horizon):
        quanta.clear()
        slices.clear()
        cmap = build_connectivity_map(sys_, beta, tau)
        # each band builds the slot of the requested quantum only and evaluates one slice
        assert quanta == [tau] * sys_.grid.band_count
        assert slices == list(bands)
        # the budget as computed from the full maps before
        a, b, feasible, pair_sinr, _ = cmap.pairs()
        max_power = np.minimum(np.maximum(maps.raw_opportunity[a, tau, :], 0.0), sys_.params.p_max)
        sinr = max_power * _hop_gains(sys_, bands) / maps.occupancy[b, tau, :]
        assert max_power.tobytes() == cmap.power[a].tobytes()
        assert sinr.tobytes() == pair_sinr.tobytes()
        assert np.array_equal(sinr >= beta, feasible)
    quiet = build_connectivity_map(sys_, beta, 1).power
    assert not np.array_equal(quiet, build_connectivity_map(sys_, beta, 0).power)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1.5, 100.0),
    st.tuples(st.floats(690.0, 4300.0), st.floats(590.0, 3700.0)),
    st.one_of(st.none(), st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))),
    st.floats(0.0, 1.0),
    st.floats(2.0, 6.0),
)
def test_a_hop_is_one_lattice_pitch(side, size, offset, where, alpha):
    """Every adjacent pair's sample points, centroid or offset, lie one column
    pitch apart, so the hop gain is ``link_gain`` of an omni antenna at the
    source's sample point toward the destination's.  Checked on up to 2,000
    regions from anywhere in grids of up to 4300 x 3700 m at 1.5 m."""
    spec = GridSpec(
        *size,
        side,
        sample_offset=None if offset is None else (offset[0] * side, offset[1] * side),
    )
    sys_ = dataclasses.replace(empty_system(), grid_spec=spec, propagation=PropagationModel(alpha=alpha))
    grid = sys_.grid
    lo = int(where * max(0, grid.region_count - 2000))
    regions = np.arange(lo, min(lo + 2000, grid.region_count))
    candidates, valid = grid._neighbor_table(regions)
    a, b = np.repeat(regions, 6)[valid.ravel()], candidates[valid]
    first = min(a.min(), b.min())
    pts = grid.points(first, max(a.max(), b.max()) + 1)
    a, b = a - first, b - first
    assert np.allclose(np.hypot(*(pts[b] - pts[a]).T), SQRT3 * side, rtol=1e-12, atol=0.0)
    (hop,) = _hop_gains(sys_, [0])
    for i, j in zip(a[::41].tolist(), b[::41].tolist()):
        assert hop == pytest.approx(link_gain(sys_.propagation, OMNI, pts[i], [pts[j]])[0], rel=1e-11, abs=0.0)


# ---------------------------------------------------------------------------
# the connectivity CSV is byte-identical to one f-string per row


def reference_edges_csv_text(cmap) -> str:
    lines = ["cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band"]
    cell_a, cell_b, feasible, pair_sinr, best_band = cmap.pairs()
    max_power = cmap.power[cell_a]
    for p, (a, b, best) in enumerate(zip(cell_a.tolist(), cell_b.tolist(), best_band.tolist())):
        for nu in range(pair_sinr.shape[1]):
            ok, power, sinr = bool(feasible[p, nu]), float(max_power[p, nu]), float(pair_sinr[p, nu])
            sinr_db = 10.0 * math.log10(sinr) if sinr > 0.0 else -math.inf
            lines.append(
                f"{a},{b},{nu},{1 if ok else 0},{watts_to_dbm(power):.12g},{sinr_db:.12g},"
                f"{'' if best < 0 else best}"
            )
    return "\n".join(lines) + "\n"


def assert_csv_matches_reference(cmap):
    """``csv_chunks()`` joined and the file ``muse connectivity`` streams through
    ``cli._write`` equal the reference byte for byte, whatever the chunk size."""
    expected = reference_edges_csv_text(cmap)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.csv"
        for chunk_rows in (1, 7, 64, 4096):
            with mock.patch.object(consumption, "_TEXT_CHUNK", chunk_rows):
                assert_same_text("".join(cmap.csv_chunks()), expected)
                cli._write(str(path), cmap.csv_chunks())
            assert_same_text(path.read_bytes().decode("utf-8"), expected)


# No explain phase: on a failure it reruns the failing example some 500 times
# (about 28 s on 2 vCPUs) only to annotate the report; the verdict is the same.
@settings(max_examples=25, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(generated_systems(), st.integers(0, 2))
def test_csv_matches_reference_on_generated_systems(sys_, time_index):
    time_index = min(time_index, sys_.grid_spec.horizon - 1)
    for beta_db in (6.0, 20.0):
        cmap = build_connectivity_map(sys_, db_to_linear(beta_db), time_index)
        assert_csv_matches_reference(cmap)
        # the best band is the first SINR argmax over the feasible bands
        _, _, feasible, sinr, best = cmap.pairs()
        masked = np.argmax(np.where(feasible, sinr, -np.inf), axis=1)
        assert np.array_equal(best, np.where(feasible.any(axis=1), masked, -1))


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
    rows = [line.split(",") for line in "".join(cmap.csv_chunks()).splitlines()[1:] if line.startswith(f"{source},")]
    assert len(rows) == 2 * len(sys_.grid.neighbors(source))
    # no power at the guard's region: both dB columns are -inf and no band is feasible
    assert all(row[3:] == ["0", "-inf", "-inf", ""] for row in rows)


@pytest.mark.parametrize("bands", [1, 2, 4])
def test_csv_band_counts(bands):
    """The row table, one fixed text per (band, feasible, best band), at each
    of its sizes: 1 x 2 x 2, 2 x 2 x 3 and 4 x 2 x 5 entries."""
    sys_ = dataclasses.replace(multi_band_system(), grid_spec=small_grid(n_bands=bands))
    cmap = build_connectivity_map(sys_, db_to_linear(6.0))
    assert cmap.pairs()[3].shape[1] == bands
    assert_csv_matches_reference(cmap)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_csv_matches_reference_on_demo_scenarios(path):
    sys_ = load_scenario(path)
    for beta_db in (6.0, 10.0):
        assert_csv_matches_reference(build_connectivity_map(sys_, db_to_linear(beta_db)))
