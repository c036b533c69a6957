import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from muse import SpectrumGrid, cli, compute_maps, consumption, dbm_to_watts, load_scenario, read_map_csv, scenario_io
from muse.cli import main
from muse.model import UnknownEntityError
from muse.scenario_io import heatmap_chunks

from helpers import holds_only_row_tables, probe_scenario, region_link_system, traced_peak
from muse import serialize_scenario
from test_io import LOADERS, SCENARIO_TEXT, SCENARIOS as DEMO_SCENARIOS

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO_TEXT)
    return str(path)


@pytest.fixture
def high_power_path(tmp_path):
    path = tmp_path / "high.yaml"
    path.write_text(serialize_scenario(probe_scenario("high")))
    return str(path)


def test_point_command_reports_capped_opportunity(runner, high_power_path):
    result = runner.invoke(
        main, ["point", "--scenario", high_power_path, "--x", "2250", "--y", "1800"]
    )
    assert result.exit_code == 0, result.output
    assert "net opportunity:  30.00 dBm" in result.output
    assert "liability:      -inf dBm (0 mW)" in result.output


def test_point_outside_region(runner, scenario_path):
    result = runner.invoke(main, ["point", "--scenario", scenario_path, "--x", "-5", "--y", "0"])
    assert result.exit_code == 2
    assert "outside the scenario region" in result.output


def test_point_json_out(runner, high_power_path, tmp_path):
    out = tmp_path / "point.json"
    result = runner.invoke(
        main,
        ["point", "--scenario", high_power_path, "--x", "2250", "--y", "1800", "--out", str(out)],
    )
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["receivers"][0]["liability"] == 0.0
    assert payload["net_opportunity_w"] == pytest.approx(1.0, rel=1e-9)


def test_map_command(runner, scenario_path, tmp_path):
    out = tmp_path / "map.csv"
    result = runner.invoke(main, ["map", "--scenario", scenario_path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 676

    # byte-identical across runs
    out2 = tmp_path / "map2.csv"
    result = runner.invoke(main, ["map", "--scenario", scenario_path, "--out", str(out2)])
    assert result.exit_code == 0
    assert out.read_bytes() == out2.read_bytes()


def test_map_empty_scenario_zero_liability(runner, tmp_path):
    bare = SCENARIO_TEXT.split("networks:")[0] + "networks: []\n"
    path = tmp_path / "empty.yaml"
    path.write_text(bare)
    out = tmp_path / "empty.csv"
    result = runner.invoke(main, ["map", "--scenario", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 676
    assert all(float(r.split(",")[-1]) == 0.0 for r in rows)


def test_map_heatmap_files(runner, scenario_path, tmp_path):
    out = tmp_path / "map.csv"
    result = runner.invoke(
        main, ["map", "--scenario", scenario_path, "--out", str(out), "--heatmap", "opportunity"]
    )
    assert result.exit_code == 0
    mat = tmp_path / "map-opportunity-t0b0.mat"
    assert mat.exists()
    assert len(mat.read_text().strip().splitlines()) == 26


def test_map_heatmap_repeated(runner, scenario_path, tmp_path):
    out = tmp_path / "map.csv"
    args = ["map", "--scenario", scenario_path, "--out", str(out)]
    for quantity in ("opportunity", "liability", "opportunity"):
        args += ["--heatmap", quantity]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    written = [line.split()[-1] for line in result.output.splitlines()[1:]]
    assert written == [str(tmp_path / f"map-{q}-t0b0.mat") for q in ("opportunity", "liability")]
    maps = compute_maps(load_scenario(scenario_path))
    for q in ("opportunity", "liability"):
        assert (tmp_path / f"map-{q}-t0b0.mat").read_text() == "".join(heatmap_chunks(maps, q, 0, 0))


def test_report_command(runner, scenario_path, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["report", "--scenario", scenario_path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "conservation residual" in result.output
    payload = json.loads(out.read_text())
    total = payload["psi_utilized"] + payload["psi_forbidden"] + payload["psi_available"]
    assert total == pytest.approx(payload["psi_total"], rel=1e-9)


def test_entity_command(runner, scenario_path):
    result = runner.invoke(main, ["entity", "--scenario", scenario_path, "--id", "rx-1"])
    assert result.exit_code == 0
    assert "W*m^2" in result.output
    missing = runner.invoke(main, ["entity", "--scenario", scenario_path, "--id", "ghost"])
    assert missing.exit_code == 2


def test_connectivity_command(runner, scenario_path, tmp_path):
    out = tmp_path / "edges.csv"
    result = runner.invoke(
        main, ["connectivity", "--scenario", scenario_path, "--beta-db", "6", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "cell_a,cell_b,band,feasible,max_power_dbm,sinr_db,best_band"
    assert len(lines) > 676


@pytest.mark.parametrize("path", sorted(DEMO_SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_connectivity_counts_what_it_wrote(runner, path, tmp_path):
    """The counts on stdout are tallied while the edge file streams: they equal
    its row count and its count of feasible rows."""
    out = tmp_path / "edges.csv"
    result = runner.invoke(main, ["connectivity", "--scenario", str(path), "--beta-db", "10", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    feasible = sum(row[3] == "1" for row in rows)
    assert 0 < feasible < len(rows)
    assert result.output == f"wrote {len(rows)} directed edges ({feasible} feasible) to {out}\n"


def test_smf_simulated(runner, scenario_path, tmp_path):
    out = tmp_path / "smf.json"
    result = runner.invoke(
        main,
        [
            "smf",
            "--scenario",
            scenario_path,
            "--p-missed",
            "0.5",
            "--false-positives",
            "2",
            "--geo-sigma",
            "50",
            "--power-sigma-db",
            "2",
            "--fp-power-dbm",
            "-10",
            "--seed",
            "7",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "recovered available" in result.output
    payload = json.loads(out.read_text())
    assert payload["recovered_available"] + payload["lost_available"] == pytest.approx(
        payload["truth_total"], rel=1e-9
    )


def test_smf_compare_maps(runner, scenario_path, tmp_path):
    map_a = tmp_path / "a.csv"
    runner.invoke(main, ["map", "--scenario", scenario_path, "--out", str(map_a)])
    result = runner.invoke(
        main,
        ["smf", "--scenario", scenario_path, "--truth-map", str(map_a), "--other-map", str(map_a)],
    )
    assert result.exit_code == 0, result.output
    assert "lost available:        0 " in result.output


@pytest.mark.parametrize("shift_centroid", [False, True], ids=["other-shape", "other-centroids"])
def test_smf_rejects_truth_map_of_another_grid(runner, tmp_path, shift_centroid):
    map_a = tmp_path / "a.csv"
    runner.invoke(main, ["map", "--scenario", str(DEMO_SCENARIOS / "region_with_link.yaml"), "--out", str(map_a)])
    scenario = str(DEMO_SCENARIOS / "four_pair_field.yaml")
    if shift_centroid:  # the scenario's own map, one centroid moved by a metre
        runner.invoke(main, ["map", "--scenario", scenario, "--out", str(map_a)])
        header, first, *rows = map_a.read_text().splitlines()
        fields = first.split(",")
        fields[3] = repr(float(fields[3]) + 1.0)
        map_a.write_text("\n".join([header, ",".join(fields), *rows]) + "\n")
    for maps in (["--truth-map", str(map_a), "--other-map", str(map_a)], ["--other-map", str(map_a)]):
        result = runner.invoke(main, ["smf", "--scenario", scenario, *maps])
        assert result.exit_code == 2
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "grid mismatch: maps were built on different discretizations", "exit_code": 2}


def test_smf_rejects_a_truth_map_row_with_a_tenth_field(runner, scenario_path, tmp_path):
    """smf converts only the columns it scores, yet a row with a field too many still exits 2."""
    map_a = tmp_path / "a.csv"
    runner.invoke(main, ["map", "--scenario", scenario_path, "--out", str(map_a)])
    header, first, *rows = map_a.read_text().splitlines()
    map_a.write_text("\n".join([header, first + ",0.0", *rows]) + "\n")
    result = runner.invoke(main, ["smf", "--scenario", scenario_path, "--truth-map", str(map_a)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert "map CSV has a row without 9 fields" in err["error"] and err["exit_code"] == 2


@pytest.mark.parametrize(
    "where, message",
    [
        ("header", r"map CSV is not UTF-8 text: 'utf-8' codec can't decode byte 0xd0 in position 5: .*"),
        ("past-8k", r"map CSV is not UTF-8 text: 'utf-8' codec can't decode byte 0xd0 in position \d+: .*"),
        ("long-header", r"unexpected map CSV header: 'xxx+\.\.\.'"),
    ],
)
def test_smf_rejects_a_truth_map_it_cannot_read_in_one_short_line(runner, scenario_path, tmp_path, where, message):
    """A byte that is not UTF-8 once exited 2 with a bare codec message naming neither the
    map CSV nor the problem, and a 1,000,000-character header was echoed whole."""
    map_a = tmp_path / "a.csv"
    runner.invoke(main, ["map", "--scenario", scenario_path, "--out", str(map_a)])
    data = map_a.read_bytes()
    at = {"header": 5, "past-8k": data.index(b"\n", 8192) + 3}.get(where)
    if at is None:
        data = b"x" * 1_000_000 + data[data.index(b"\n") :]
    else:
        assert len(data) > 8192 + 100
        data = data[:at] + b"\xd0" + data[at:]
    map_a.write_bytes(data)
    result = runner.invoke(main, ["smf", "--scenario", scenario_path, "--truth-map", str(map_a)])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) <= 300, lines[0][:400]
    err = json.loads(lines[0])
    assert re.fullmatch(message, err["error"]) and err["exit_code"] == 2, err


def test_sweep_command(runner, tmp_path):
    path = tmp_path / "region.yaml"
    path.write_text(serialize_scenario(region_link_system(worst_case=True)))
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        main, ["sweep", "--scenario", str(path), "--hex-sides", "50,100", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("hex_side_m,cells")
    assert len(rows) == 3
    cells_50 = int(rows[1].split(",")[1])
    cells_100 = int(rows[2].split(",")[1])
    assert cells_100 == 676 and cells_50 > cells_100
    # available mass shrinks as the hexagons grow
    available_50 = float(rows[1].split(",")[5])
    available_100 = float(rows[2].split(",")[5])
    assert available_100 < available_50


def test_missing_file_exit_code(runner):
    result = runner.invoke(main, ["report", "--scenario", "/nonexistent/path.yaml"])
    assert result.exit_code == 3
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["exit_code"] == 3


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("power_dbm: -24.0", "power_dbm: 99.0", "exceeds p_max"),
        ("width_m: 4300.0", "width_m: .inf", "expected a finite number"),
        ("hex_side_m: 100.0", "hex_side_m: 0.001", "grid too large"),
        ("time_quanta: 1", "time_quanta: 1000000000", "grid too large"),
        ("p_max_dbm: 30.0", "p_max_dbm: 1.0e+300", "expected a finite number"),
        ("noise_dbm: -106.0", "noise_dbm: 200.0", "occupancy may reach 1e+17 W, above 2^20 x p_cmax (1 W)"),
        (
            "antenna: omni",
            "antenna: {kind: sector, main_gain_db: 250.0}",
            "occupancy may reach 3.98107e+19 W, above 2^20 x p_cmax (1 W)",
        ),
        (
            "noise_dbm: -106.0",
            "noise_dbm: -106.0\n  noise_overrides: [{region: 676, band: 0, noise_dbm: -90.0}]",
            "noise override (676, 0) outside the grid",
        ),
        ("noise_dbm: -106.0", "noise_dbm: []", "malformed scenario: system: ambient noise needs one value, or one per band"),
    ],
    ids=["above-p-max", "infinite-width", "tiny-hex-side", "huge-horizon", "overflowing-dbm", "noise-far-above-p-max",
         "gain-far-above-p-max", "override-past-grid", "empty-per-band-noise"],
)
def test_invalid_scenario_exit_code(runner, tmp_path, field, bad, message):
    path = tmp_path / "bad.yaml"
    path.write_text(SCENARIO_TEXT.replace(field, bad))
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.output.strip().splitlines()[-1])
    assert message in err["error"]


@pytest.mark.parametrize(
    "field, bad",
    [("alpha: 3.5", "alpha: 1.0e+308"), ("reference_distance_m: 1.0", "reference_distance_m: 5.0e-324")],
    ids=["huge-alpha", "subnormal-reference-distance"],
)
@pytest.mark.parametrize("command", ["point", "report", "map"])
def test_zero_link_gain_exit_code(runner, tmp_path, field, bad, command):
    path = tmp_path / "bad.yaml"
    path.write_text(SCENARIO_TEXT.replace(field, bad))
    args = {"point": ["--x", "2250", "--y", "1800"], "report": [], "map": ["--out", str(tmp_path / "map.csv")]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the command
        result = runner.invoke(main, [command, "--scenario", str(path)] + args[command])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert "band 0: link gain 0 at" in err["error"] and "is not a normal float" in err["error"]


@pytest.mark.parametrize("command", ["point", "report", "map"])
def test_region_whose_squared_distances_overflow_exit_code(runner, tmp_path, command):
    path = tmp_path / "huge.yaml"
    text = SCENARIO_TEXT.replace("alpha: 3.5", "alpha: 0.01").replace("hex_side_m: 100.0", "hex_side_m: 1.0e+199")
    path.write_text(text.replace("width_m: 4300.0", "width_m: 1.0e+200").replace("height_m: 3700.0", "height_m: 1.0e+200"))
    args = {"point": ["--x", "2250", "--y", "1800"], "report": [], "map": ["--out", str(tmp_path / "map.csv")]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the command
        result = runner.invoke(main, [command, "--scenario", str(path)] + args[command])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "invalid scenario: region diagonal 1.9799e+200 m (grown by two hex sides) exceeds 2^511 m",
        "exit_code": 2,
    }


def test_per_band_noise_of_the_wrong_length_exit_code(runner, tmp_path):
    path = tmp_path / "noise.yaml"
    path.write_text(SCENARIO_TEXT.replace("noise_dbm: -106.0", "noise_dbm: [-106.0, -105.0]"))
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "invalid scenario: ambient noise: 2 per-band values for 1 bands", "exit_code": 2}


def test_map_writes_noise_override_as_occupancy(runner, tmp_path):
    text = SCENARIO_TEXT.split("networks:")[0].replace(
        "noise_dbm: -106.0", "noise_dbm: -106.0\n  noise_overrides: [{region: 5, band: 0, noise_dbm: -90.0}]"
    )
    path = tmp_path / "quiet.yaml"
    path.write_text(text + "networks: []\n")
    out = tmp_path / "map.csv"
    result = runner.invoke(main, ["map", "--scenario", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    occupancy = read_map_csv(out)["occupancy"][:, 0, 0]
    assert occupancy[5] == dbm_to_watts(-90.0)
    assert np.all(np.delete(occupancy, 5) == dbm_to_watts(-106.0))


def _link(doc):
    return doc["networks"][0]["links"][0]


def _band(doc):
    return doc["grid"]["bands"][0]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["networks"][0].update(links=5), "network net-1.links: expected a list"),
        (lambda d: _link(d).update(receivers=5), "link link-1.receivers: expected a list"),
        (lambda d: _link(d).update(transmitters=7), "link link-1: unknown key(s) ['transmitters']"),
        (lambda d: _link(d).update(transmitters=[_link(d).pop("transmitter")]), "link link-1: unknown key(s) ['transmitters']"),
        (lambda d: _link(d)["transmitter"].update(id=[1]), "link link-1.transmitter.id: expected a scalar id, got [1]"),
        (
            lambda d: _link(d)["receivers"][0].update(id={"a": 1}),
            "link link-1.receivers[0].id: expected a scalar id, got {'a': 1}",
        ),
        (lambda d: _link(d).update(id=["l"]), "network net-1.links[0].id: expected a scalar id, got ['l']"),
        (lambda d: d["networks"][0].update(id={"n": 1}), "networks[0].id: expected a scalar id, got {'n': 1}"),
        (lambda d: d["networks"][0].update(id=None), "networks[0].id: expected a scalar id, got None"),
        (lambda d: _link(d).update(id=None), "network net-1.links[0].id: expected a scalar id, got None"),
        (
            lambda d: _link(d)["transmitter"].update(id=None),
            "link link-1.transmitter.id: expected a scalar id, got None",
        ),
        (
            lambda d: _link(d)["receivers"][0].update(id=None),
            "link link-1.receivers[0].id: expected a scalar id, got None",
        ),
        (
            lambda d: _band(d).update(center_mhz=1.0e308),
            "grid.bands[0].center_mhz: expected a finite number, got 1e+308",
        ),
        (lambda d: _band(d).update(center_mhz=0.0), "grid.bands[0].center_mhz: expected a positive number, got 0.0"),
        (
            lambda d: _band(d).update(center_mhz=-600.0),
            "grid.bands[0].center_mhz: expected a positive number, got -600.0",
        ),
        (lambda d: _band(d).update(bandwidth_mhz=0), "grid.bands[0].bandwidth_mhz: expected a positive number, got 0"),
        (
            lambda d: _band(d).update(bandwidth_mhz=-6.0),
            "grid.bands[0].bandwidth_mhz: expected a positive number, got -6.0",
        ),
        (lambda d: d.update({1: "x", "zz": "y"}), "scenario: unknown key(s) [1, 'zz']"),
        (
            lambda d: _link(d)["transmitter"].update(antenna={"kind": "omni", "main_gain_db": "high"}),
            "transmitter tx-1.antenna.main_gain_db: expected a number, got 'high'",
        ),
        (
            lambda d: _link(d)["transmitter"].update(antenna={"kind": [1]}),
            "transmitter tx-1.antenna: unknown antenna kind [1]",
        ),
        (
            lambda d: _link(d)["transmitter"].update(position=[1000.0]),
            "transmitter tx-1.position: expected [x_m, y_m], got [1000.0]",
        ),
        (
            lambda d: _link(d)["transmitter"].update(antenna={"kind": "sector", "main_gain_db": -3}),
            "transmitter tx-1.antenna: sector main_gain must be >= 1",
        ),
        (
            lambda d: _link(d)["receivers"][0].update(antenna={"kind": "sector", "beamwidth_deg": 0}),
            "receiver rx-1.antenna: sector beamwidth must be in (0, 2*pi]",
        ),
        (
            lambda d: _link(d)["transmitter"].update(antenna={"kind": "sector", "main_gain_db": 3, "back_gain_db": 6}),
            "transmitter tx-1.antenna: sector back_gain must be in (0, main_gain]",
        ),
    ],
    ids=["links-int", "receivers-int", "transmitters-int", "transmitters-list", "list-id", "mapping-id", "list-link-id",
         "mapping-network-id", "null-network-id", "null-link-id", "null-transmitter-id", "null-receiver-id",
         "overflowing-center", "zero-center", "negative-center", "zero-bandwidth", "negative-bandwidth",
         "mixed-type-unknown-keys", "omni-antenna-text-gain", "antenna-context-once", "position-context-once",
         "sector-main-gain", "sector-beamwidth", "sector-back-gain"],
)
def test_malformed_structure_exit_code(runner, tmp_path, mutate, message):
    doc = yaml.safe_load(SCENARIO_TEXT)
    mutate(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"malformed scenario: {message}", "exit_code": 2}


def test_alias_expansion_is_bounded_by_the_file_length(runner, tmp_path):
    """Sixty aliases of a network, of a link and of a receiver make 216,000
    receivers of a 2 KB file; parsing stops once the document holds more values
    than the file has characters, also where they make a cube of 64,000 numbers
    of a path-loss exponent, which its error message would print.  An anchor shared
    by two transceivers, as ``yaml.safe_dump`` writes for a reused list, still parses."""
    receiver = "&x {id: rx-1, position: [1000.0, 2100.0], beta_db: 3.0}"
    transmitter = "{id: tx-1, position: [1000.0, 2000.0], power_dbm: -24.0}"
    link = f"&l {{id: link-1, transmitter: {transmitter}, receivers: [{receiver}{', *x' * 59}]}}"
    networks = f"networks: [&n {{id: net-1, links: [{link}{', *l' * 59}]}}{', *n' * 59}]\n"
    cube = f"[&b [&c [{', '.join(['0'] * 40)}]{', *c' * 39}]{', *b' * 39}]"
    path = tmp_path / "bomb.yaml"
    for bomb in (
        SCENARIO_TEXT.split("networks:")[0] + networks,
        SCENARIO_TEXT.replace("alpha: 3.5", f"alpha: {cube}"),
    ):
        path.write_text(bomb)
        result = runner.invoke(main, ["report", "--scenario", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.output) == {
            "error": f"malformed scenario: scenario: aliases expand it to more values than its {len(bomb)} characters",
            "exit_code": 2,
        }

    shared = SCENARIO_TEXT.replace("antenna: omni", "antenna: &sector {kind: sector, main_gain_db: 6.0}").replace(
        "beta_db: 3.0", "beta_db: 3.0\n            antenna: *sector"
    )
    system = scenario_io.parse_scenario(shared)
    link = system.networks[0].links[0]
    assert link.transmitter.antenna == link.receivers[0].antenna != scenario_io.OMNI
    path.write_text(shared)
    assert runner.invoke(main, ["report", "--scenario", str(path)]).exit_code == 0


def test_bad_thread_env_exit_code(runner, scenario_path):
    result = runner.invoke(main, ["report", "--scenario", scenario_path], env={"MUSE_THREADS": "many"})
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "MUSE_THREADS must be an integer, got 'many'", "exit_code": 2}


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
@pytest.mark.parametrize(
    "content, message",
    [
        (SCENARIO_TEXT.replace("system:", "system: {p_max_dbm: 30").encode(), "malformed YAML"),
        (SCENARIO_TEXT.replace("time_quanta: 1", "time_quanta: 1" + "0" * 5000).encode(), "malformed YAML"),
        (b"\xff\xfe" + SCENARIO_TEXT.encode(), "not UTF-8"),
    ],
    ids=["unclosed-brace", "integer-too-long", "not-utf8"],
)
def test_unparsable_scenario_exit_code(runner, tmp_path, monkeypatch, loader, content, message):
    if not hasattr(yaml, loader):
        pytest.skip(f"pyyaml has no {loader}")
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", getattr(yaml, loader))
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert message in err["error"] and err["exit_code"] == 2


# `muse` with the scenario loader named by its first argument, in a process of its own
_MUSE_WITH_LOADER = "import sys, yaml; from muse import cli, scenario_io; " \
    "scenario_io._YAML_LOADER = getattr(yaml, sys.argv.pop(1)); cli.main(sys.argv[1:], prog_name='muse')"


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize(
    "case, where",
    [("flow-100000", "line 1, column 65"), ("position-2000", "line 26, column 79")],
)
def test_deep_nesting_exits_2(tmp_path, loader, case, where):
    """100,000 nested `[` (which crashed libyaml's recursive composer) and a 2,000-deep
    transmitter position (a RecursionError) end in exit 2 and one JSON line naming the
    bound; each runs in a process of its own, so that a crash fails the test."""
    if case == "flow-100000":
        text = "[" * 100_000
    else:
        text = SCENARIO_TEXT.replace("position: [1000.0, 2000.0]", "position: " + "[" * 2000 + "1.0" + "]" * 2000)
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", _MUSE_WITH_LOADER, loader, "report", "--scenario", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (result.returncode, result.stdout) == (2, ""), result.stderr[-2000:]
    message = f"malformed scenario: malformed YAML: collections nested deeper than 64 levels ({where})"
    assert result.stderr.splitlines() == [json.dumps({"error": message, "exit_code": 2})]


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("anchored", [False, True], ids=["events", "yaml-load"])  # an anchor once took yaml.load's path
def test_a_duplicated_key_exits_2(runner, tmp_path, monkeypatch, loader, anchored):
    """A link that gives `receivers:` twice once lost its first list and reported rx-1
    alone; it is malformed, also in a document with an anchor."""
    first = "        receivers:\n          - id: rx-0\n            position: [1000.0, 2200.0]\n            beta_db: 3.0\n"
    text = SCENARIO_TEXT.replace("        receivers:\n", first + "        receivers:\n")
    if anchored:
        text = text.replace("antenna: omni", "antenna: &a omni")
    lines = text.split("\n")
    line = lines.index("        receivers:", lines.index("        receivers:") + 1) + 1  # the second, 1-based
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", getattr(yaml, loader))
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2
    message = f"malformed scenario: malformed YAML: duplicate key 'receivers' (line {line}, column 9)"
    assert result.output.splitlines() == [json.dumps({"error": message, "exit_code": 2})]
    path.write_text(text.replace("        receivers:\n          - id: rx-1", "          - id: rx-1"))
    assert runner.invoke(main, ["report", "--scenario", str(path)]).exit_code == 0


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize(
    "value, fault",
    [
        ("!!bool maybe", "'maybe' is not a valid !!bool"),
        ("!!timestamp x", "a !!timestamp value is not supported"),
        ("2001-12-14", "a !!timestamp value is not supported"),
        ("!!binary aGk=", "a !!binary value is not supported"),
        ("!!set {a: null}", "a !!set collection is not supported"),
    ],
    ids=["bool", "timestamp", "plain-timestamp", "binary", "set"],
)
def test_a_tagged_scalar_its_constructor_cannot_read_exits_2(runner, tmp_path, monkeypatch, loader, value, fault):
    """pyyaml's constructors raise their own exceptions on the first two tagged scalars; each
    once ended `muse report` in a traceback with exit 1.  Timestamps, bytes and sets are no
    scenario value.  Each error names the construct and where it starts."""
    text = (DEMO_SCENARIOS / "region_with_link.yaml").read_text()
    assert "  alpha: 3.5\n" in text
    line = text.split("\n").index("  alpha: 3.5") + 1
    fault += f" (line {line}, column 10)"
    path = tmp_path / "tagged.yaml"
    path.write_text(text.replace("  alpha: 3.5\n", f"  alpha: {value}\n"))
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", getattr(yaml, loader))
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2
    message = f"malformed scenario: malformed YAML: {fault}"
    assert result.output.splitlines() == [json.dumps({"error": message, "exit_code": 2})]


_LONG = "1" + ":00" * 2599  # a sexagesimal integer of 2,600 parts: 4,622 digits, past what repr() takes


@pytest.mark.parametrize(
    "replacements, key",
    [
        ([("alpha: 3.5", f"alpha: {_LONG}")], "propagation.alpha"),
        ([("id: tx-1", "id: " + "t" * 5000), ("power_dbm: 29.068905972359147", "power_dbm: abc")], ".power_dbm"),
        ([("position: [1000.0, 2000.0]", "position: [" + ", ".join(["1.0"] * 100_000) + "]")], "tx-1.position"),
        ([("id: tx-1", f"id: {_LONG}")], ".id"),
        ([("position: [1000.0, 2000.0]", f"position: [{_LONG}, 2000.0, 3.0]")], "tx-1.position"),
        ([("id: link-1", "id: link-1\n" + "".join(f"        k{n}: 0\n" for n in range(10_000)))], "link link-1"),
        ([("antenna: omni", "antenna: {kind: " + "k" * 5000 + "}")], "tx-1.antenna"),
    ],
    ids=["sexagesimal-alpha", "long-id", "long-position", "sexagesimal-id", "sexagesimal-in-a-position",
         "many-unknown-keys", "long-antenna-kind"],
)
def test_every_echoed_value_is_bounded(runner, tmp_path, replacements, key):
    """An integer past Python's 4,300-digit limit, which repr() refuses, once ended the
    command with that conversion's error; a 5,000-character id and a 100,000-item
    position were echoed whole (a 5 KB and a 500 KB line).  Each is one JSON line of at
    most 300 bytes that names the key."""
    text = (DEMO_SCENARIOS / "region_with_link.yaml").read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "long.yaml"
    path.write_text(text)
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) <= 300, lines
    error = json.loads(lines[0])["error"]
    assert error.startswith("malformed scenario: ") and key in error, error


@pytest.mark.parametrize("pattern", ["main_gain_db: 10.0", "boresight_deg: 30.0", "beamwidth_deg: 90.0",
                                     "back_gain_db: 0.0", "beamwidth_deg: 90.0, main_gain_db: 0.0"])
def test_an_omni_antenna_takes_only_a_kind(runner, tmp_path, pattern):
    """An omni mapping once dropped its pattern keys, so a 10 dB omni read as a 1x one."""
    text = (DEMO_SCENARIOS / "region_with_link.yaml").read_text()
    path = tmp_path / "omni.yaml"
    path.write_text(text.replace("antenna: omni", f"antenna: {{kind: omni, {pattern}}}", 1))
    result = runner.invoke(main, ["report", "--scenario", str(path)])
    assert result.exit_code == 2
    keys = sorted(item.split(":")[0] for item in pattern.split(", "))
    message = f"malformed scenario: transmitter tx-1.antenna: an omni antenna takes only a kind, not {keys}"
    assert result.output.splitlines() == [json.dumps({"error": message, "exit_code": 2})]


@pytest.mark.parametrize("antenna", ["antenna: omni", "antenna: {kind: omni}", "antenna: null", ""])
def test_omni_spellings_read_as_omni(runner, tmp_path, antenna):
    text = (DEMO_SCENARIOS / "region_with_link.yaml").read_text()
    path = tmp_path / "omni.yaml"
    path.write_text(text.replace("antenna: omni", antenna, 1))
    assert load_scenario(path).networks[0].links[0].transmitter.antenna == scenario_io.OMNI
    assert runner.invoke(main, ["report", "--scenario", str(path)]).exit_code == 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["connectivity", "--beta-db", "6", "--time", "99"], "time index 99 out of range"),
        (["connectivity", "--beta-db", "6", "--time", "-1"], "time index -1 out of range"),
        (["connectivity", "--beta-db", "-inf"], "candidate beta must be positive"),
        (["connectivity", "--beta-db", "nan"], "candidate beta must be positive"),
        (["connectivity", "--beta-db", "4000"], "--beta-db 4000.0 is out of range"),
        (["connectivity", "--beta-db", "-4000"], "--beta-db -4000.0 is out of range"),
        (["connectivity", "--beta-db", "inf"], "--beta-db inf is out of range"),
        (["sweep", "--hex-sides", "0"], "hex_side must be positive"),
        (["sweep", "--hex-sides", "-5"], "hex_side must be positive"),
        (["sweep", "--hex-sides", "nan"], "hex_side must be positive"),
        (["sweep", "--hex-sides", "0.001"], "grid too large"),
        (["smf", "--fp-power-dbm", "1e300", "--false-positives", "3"], "false_positive_power must be finite and positive"),
        (["smf", "--fp-power-dbm", "-inf"], "false_positive_power must be finite and positive"),
        (["smf", "--fp-power-dbm", "nan"], "false_positive_power must be finite and positive"),
        (["smf", "--geo-sigma", "nan"], "error sigmas must be finite and nonnegative"),
        (["smf", "--geo-sigma", "inf"], "error sigmas must be finite and nonnegative"),
        (["smf", "--power-sigma-db", "inf"], "error sigmas must be finite and nonnegative"),
        (["smf", "--false-positives", "nan"], "false_positive_rate must be finite and nonnegative"),
        (["smf", "--false-positives", "inf"], "false_positive_rate must be finite and nonnegative"),
        (["smf", "--false-positives", "1e18"], "false_positive_rate must be finite and nonnegative, at most 65536"),
        (["smf", "--power-sigma-db", "1e6"], "sensing error: a power error of 104900 dB puts transmitter tx-1 out of range"),
        (["smf", "--power-sigma-db", "1e6", "--seed", "1"], "sensing error: a power error of -1.30316e+06 dB puts transmitter tx-1"),
        (["smf", "--power-sigma-db", "1e4", "--false-positives", "3", "--p-missed", "1"], "puts transmitter sensed-artifact-tx-0"),
        (["smf", "--seed", "-1"], "rng_seed must be nonnegative"),
    ],
    ids=["time-past-horizon", "time-negative", "beta-minus-inf", "beta-nan", "beta-overflow", "beta-underflow", "beta-inf",
         "side-zero", "side-negative", "side-nan", "side-too-small", "fp-power-overflow", "fp-power-minus-inf",
         "fp-power-nan", "geo-sigma-nan", "geo-sigma-inf", "power-sigma-inf", "false-positives-nan", "false-positives-inf",
         "false-positives-huge", "power-sigma-overflow", "power-sigma-underflow", "power-sigma-false-positive",
         "seed-negative"],
)
def test_invalid_option_exit_code(runner, scenario_path, tmp_path, args, message):
    if args[0] == "connectivity":
        args = args + ["--out", str(tmp_path / "edges.csv")]
    result = runner.invoke(main, args + ["--scenario", scenario_path])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert message in err["error"] and err["exit_code"] == 2


@pytest.mark.parametrize(
    "field, bad, sides, message",
    [
        ("  noise_dbm: -106.0\n", "  noise_dbm: -106.0\n  noise_overrides: [{region: 600, band: 0, noise_dbm: -90.0}]\n",
         "100,400", "bad --hex-sides value 400: invalid scenario: noise override (600, 0) outside the grid"),
        ("alpha: 3.5", "alpha: 80.0", "100,1800",
         "bad --hex-sides value 1800: invalid scenario: band 0: link gain 0 at 15844.9 m is not a normal float"),
    ],
    ids=["noise-override-outside-a-side", "link-gain-underflows-at-a-side"],
)
def test_sweep_validates_every_side(runner, tmp_path, field, bad, sides, message):
    """A scenario valid at its own side is validated again at every swept side,
    as ``report`` validates it: a side that would drop a noise override or
    divide by a zero link gain fails the sweep before any side is evaluated."""
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO_TEXT.replace(field, bad))
    assert runner.invoke(main, ["report", "--scenario", str(path)]).exit_code == 0
    result = runner.invoke(main, ["sweep", "--scenario", str(path), "--hex-sides", sides])
    assert result.exit_code == 2
    assert result.output.splitlines() == [json.dumps({"error": message, "exit_code": 2})]


def test_units_flag(runner, high_power_path):
    dbm_only = runner.invoke(
        main, ["point", "--scenario", high_power_path, "--x", "2250", "--y", "1800", "--units", "dbm"]
    )
    assert "mW" not in dbm_only.output
    w_only = runner.invoke(
        main, ["point", "--scenario", high_power_path, "--x", "2250", "--y", "1800", "--units", "w"]
    )
    assert "dBm" not in w_only.output


USAGE_ERRORS = [
    (["report"], "usage: Missing option '--scenario'."),
    (["point", "--scenario", "s.yaml", "--x", "abc", "--y", "1"], "usage: Invalid value for '--x': 'abc' is not a valid float."),
    (["report", "--bogus"], "usage: No such option '--bogus'."),
    (["bogus"], "usage: No such command 'bogus'."),
    (["--bogus"], "usage: No such option '--bogus'."),
    (["map", "--scenario", "s.yaml", "--out", "m.csv", "--heatmap", "nope"], "usage: Invalid value for '--heatmap': 'nope'"),
]


@pytest.mark.parametrize("args, message", USAGE_ERRORS, ids=["missing", "bad-value", "unknown-option", "unknown-command",
                                                             "unknown-group-option", "bad-choice"])
def test_usage_error_exit_code(runner, capsys, args, message):
    """Click's usage and parameter errors keep the error contract, as the console
    script runs the group and as ``main(args, standalone_mode=False)`` does."""
    result = runner.invoke(main, args)
    lines = result.output.strip().splitlines()
    assert result.exit_code == 2 and len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(message) and json.loads(lines[0])["exit_code"] == 2
    with pytest.raises(SystemExit) as exc:
        main(args, standalone_mode=False)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == lines[0] + "\n"


FAILURES = [
    (ValueError("bad value"), 2, "bad value"),
    (IndexError("band index 9 out of range"), 2, "band index 9 out of range"),
    (UnknownEntityError("no such entity: ghost"), 2, "no such entity: ghost"),
    (PermissionError(13, "Permission denied"), 3, "[Errno 13] Permission denied"),
    (OSError("No space left on device"), 3, "No space left on device"),
]


@pytest.mark.parametrize("error, code, message", FAILURES, ids=["value", "index", "entity", "permission", "os"])
def test_library_errors_map_to_exit_codes_in_one_handler(runner, monkeypatch, scenario_path, error, code, message):
    """Whatever command raises it, a rejected input exits 2 and an I/O error
    exits 3, each with the exception's text as the one JSON line."""
    import muse.cli as cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "system_report", fail)
    result = runner.invoke(main, ["report", "--scenario", scenario_path])
    assert result.exit_code == code
    assert result.output.splitlines() == [json.dumps({"error": message, "exit_code": code})]


# Each writer's arguments after ``--scenario``, given a directory, and the file it fails to write there.
WRITERS = {
    "point": (lambda d: ["point", "--x", "10", "--y", "10", "--out", f"{d}/point.json"], "point.json"),
    "map": (lambda d: ["map", "--out", f"{d}/map.csv"], "map.csv"),
    "map --heatmap": (lambda d: ["map", "--out", f"{d}/map.csv", "--heatmap", "opportunity"], "map-opportunity-t0b0.mat"),
    "report": (lambda d: ["report", "--out", f"{d}/report.json"], "report.json"),
    "connectivity": (lambda d: ["connectivity", "--beta-db", "10", "--out", f"{d}/edges.csv"], "edges.csv"),
    "smf": (lambda d: ["smf", "--out", f"{d}/smf.json"], "smf.json"),
    "sweep": (lambda d: ["sweep", "--hex-sides", "250", "--out", f"{d}/sweep.csv"], "sweep.csv"),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_every_out_writer_fails_with_exit_3(capsys, scenario_path, tmp_path, writer):
    """An ``--out`` file that cannot be opened ends in exit 3 and one JSON line naming it:
    a missing directory, and for the heatmap (written after the map CSV) a directory in
    the file's place."""
    args, name = WRITERS[writer]
    out = tmp_path if writer == "map --heatmap" else tmp_path / "missing"
    if writer == "map --heatmap":
        (out / name).mkdir()
    with pytest.raises(OSError) as opening:
        open(out / name, "w")
    with pytest.raises(SystemExit) as exc:
        main([*args(out), "--scenario", scenario_path], standalone_mode=False)
    assert exc.value.code == 3
    error = {"error": f"cannot write {out / name}: {opening.value}", "exit_code": 3}
    assert capsys.readouterr().err.splitlines() == [json.dumps(error)]


def test_cli_reads_no_private_muse_name():
    """cli.py and the demos import no underscore name from muse and read no single-underscore attribute."""
    import ast

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    demos = sorted((README.parent / "demos").glob("*.py"))
    assert len(demos) == 5
    found = []
    for path in [Path(cli.__file__), *demos]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "muse"):
                found += [f"{path.name}: import {alias.name}" for alias in node.names if private(alias.name)]
            elif isinstance(node, ast.Attribute) and private(node.attr):
                found.append(f"{path.name}: .{node.attr}")
    assert found == []


@pytest.mark.parametrize("error", [KeyError("psi"), TypeError("not a float")], ids=["key", "type"])
def test_program_faults_keep_their_traceback(monkeypatch, scenario_path, error):
    import muse.cli as cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "system_report", fail)
    with pytest.raises(type(error)):
        main(["report", "--scenario", scenario_path], standalone_mode=False)


@pytest.mark.parametrize("args, message", [(["--time", "99"], "time index 99 out of range"),
                                           (["--band", "-1"], "band index -1 out of range")], ids=["time", "band"])
def test_point_outside_the_grid_reports_the_library_error(runner, scenario_path, args, message):
    result = runner.invoke(main, ["point", "--scenario", scenario_path, "--x", "10", "--y", "10"] + args)
    assert result.exit_code == 2
    assert result.output.splitlines() == [json.dumps({"error": message, "exit_code": 2})]


def test_closed_stdout_is_left_to_click():
    """``muse report | head -c 1`` with ``head`` already gone: the write to the
    closed pipe ends the command as click ends it (exit 1), with nothing on
    stderr, not as an I/O failure."""
    head = subprocess.Popen(["head", "-c", "1"], stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
    head.stdin.write(b"x")
    head.stdin.flush()
    head.wait()
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "muse.cli", "report", "--scenario", str(DEMO_SCENARIOS / "region_with_link.yaml")],
            stdout=head.stdin, stderr=subprocess.PIPE, env=env,
        )
    finally:
        head.stdin.close()
    assert (result.returncode, result.stderr) == (1, b"")


def test_help_still_prints_usage(runner):
    bare = runner.invoke(main, [])
    assert bare.output.startswith("Usage: ") and bare.exit_code in (0, 2)  # click 8.2 and later exit 2
    for args in (["--help"], ["report", "--help"]):
        result = runner.invoke(main, args)
        assert result.output.startswith("Usage: ") and result.exit_code == 0


@pytest.mark.parametrize("n", [1, 6, 7, 8, 14, 15, 100])
def test_smf_json_is_json_dumps_of_the_payload(monkeypatch, n):
    """The streamed report equals json.dumps(payload, indent=2) byte for byte, at
    chunk boundaries and with non-finite values and signed zeros."""
    import dataclasses
    import math

    from muse.smf import SMFReport

    monkeypatch.setattr(consumption, "_TEXT_CHUNK", 7)
    rng = np.random.default_rng(n)
    theta = rng.normal(size=(n, 1, 1)) * 10.0 ** rng.integers(-300, 300, size=(n, 1, 1)).astype(float)
    special = [math.inf, -math.inf, -0.0, 0.0, 5e-324]
    theta.ravel()[: min(n, 5)] = special[: min(n, 5)]
    rep = SMFReport(theta=theta, theta_total=1.0, truth_total=2.5, recovered_available=-0.0, lost_available=math.inf)
    payload = dataclasses.asdict(rep)
    payload["theta"] = theta.ravel().tolist()
    assert "".join(rep.json_chunks()) == json.dumps(payload, indent=2) + "\n"


def _memory_table() -> dict[str, dict[str, float]]:
    """README's memory table: each command's bound, as its numbers of maps, lattices and blocks."""
    lines = README.read_text().split("| command | arrays held | bound |")[1].splitlines()[2:]
    rows = [line.split("|")[1:-1] for line in lines[: lines.index("")]]
    return {row[0].strip(" `"): {unit: float(k) for k, unit in re.findall(r"([\d.]+) (map|lattice|block)", row[2])} for row in rows}


MEMORY_TABLE = _memory_table()


@pytest.mark.parametrize("scenario, side, regions", [("three_band_campus", 12.0, 8287), ("region_with_link", 24.0, 10868)])
@pytest.mark.parametrize("command", list(MEMORY_TABLE))
def test_memory_table(monkeypatch, tmp_path, command, scenario, side, regions):
    """Each command of README's memory table, traced with one thread, peaks within its
    bound, and no command has a grid compute more than a chunk of its regions at once, so none
    builds the lattice, not even for a moment, and no grid keeps one.  The grids and the
    chunks (evaluation and text) are scaled down together, as with the default chunks
    on grids above 2^16 regions."""
    path, csv, out = tmp_path / "scenario.yaml", str(tmp_path / "map.csv"), str(tmp_path / "out")
    path.write_text((DEMO_SCENARIOS / f"{scenario}.yaml").read_text().replace("hex_side_m: 100.0", f"hex_side_m: {side}"))
    grid = load_scenario(path).grid
    monkeypatch.setenv("MUSE_THREADS", "1")
    monkeypatch.setattr(consumption, "_CHUNK", 1 << 12)
    monkeypatch.setattr(consumption, "_TEXT_CHUNK", 1 << 8)
    if command == "smf --truth-map --other-map":
        main(["map", "--scenario", str(path), "--out", csv], standalone_mode=False)
    args, fields, keeps_maps = {  # the arguments after --scenario, the block's fields, whether chunks hold _CHUNK // slots regions
        "point": (["point", "--x", "1000", "--y", "1000"], 2, False),
        "report": (["report", "--out", out], 2, False),
        "entity": (["entity", "--id", "system"], 2, False),
        "sweep": (["sweep", "--hex-sides", f"{side},100", "--out", out], 2, False),
        "map": (["map", "--out", out], 4, True),
        "map --heatmap": (["map", "--out", out, "--heatmap", "opportunity"], 4, True),
        "smf": (["smf", "--p-missed", "0.1", "--false-positives", "3", "--seed", "8", "--out", out], 2, True),
        "smf --truth-map --other-map": (["smf", "--truth-map", csv, "--other-map", csv, "--out", out], 2, False),
        "connectivity": (["connectivity", "--beta-db", "10", "--out", out], 3, True),
    }[command]
    grids, build, ranges, centroids = [], SpectrumGrid.__init__, [], SpectrumGrid.region_centroids
    monkeypatch.setattr(SpectrumGrid, "__init__", lambda grid, spec: (build(grid, spec), grids.append(grid))[0])
    monkeypatch.setattr(SpectrumGrid, "region_centroids", lambda grid, lo, hi: (ranges.append(hi - lo), centroids(grid, lo, hi))[1])
    _, peak = traced_peak(main, [args[0], "--scenario", str(path), *args[1:]], standalone_mode=False)
    slots = grid.horizon * grid.band_count
    cap = consumption._CHUNK // slots if keeps_maps else min(consumption._CHUNK, 4 * consumption._CHUNK // slots)
    spans = consumption._tree_spans(0, grid.region_count, cap)
    units = {"map": grid.cell_count * 8, "lattice": grid.region_count * 16, "block": fields * slots * max(hi - lo for lo, hi in spans) * 8}
    assert grid.region_count == regions
    assert peak <= sum(k * units[unit] for unit, k in MEMORY_TABLE[command].items())
    assert max(ranges, default=0) <= consumption._CHUNK < grid.region_count
    assert all(holds_only_row_tables(g) for g in grids)


@pytest.mark.parametrize("command", ["report", "sweep"])
def test_each_further_thread_adds_a_block(monkeypatch, tmp_path, command):
    """README's memory note: a second thread adds at most its own block and its chunk's
    transients, eight values per region (the sample points, a gain field with a sector's
    temporaries, the field buffers, the entity sums' clipped liability).  tracemalloc sees
    every thread.  Each command runs once untraced first, so a first pool's set-up is not
    counted; the grid and the chunks are scaled down as in ``test_memory_table``."""
    path, out = tmp_path / "scenario.yaml", str(tmp_path / "out")
    path.write_text((DEMO_SCENARIOS / "three_band_campus.yaml").read_text().replace("hex_side_m: 100.0", "hex_side_m: 12.0"))
    grid = load_scenario(path).grid
    monkeypatch.setattr(consumption, "_CHUNK", 1 << 12)
    monkeypatch.setattr(consumption, "_TEXT_CHUNK", 1 << 8)
    argv = [command, "--scenario", str(path), "--out", out] + (["--hex-sides", "12,100"] if command == "sweep" else [])
    peaks = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MUSE_THREADS", threads)
        main(argv, standalone_mode=False)
        peaks.append(traced_peak(main, argv, standalone_mode=False)[1])
    slots = grid.horizon * grid.band_count
    spans = consumption._tree_spans(0, grid.region_count, min(consumption._CHUNK, 4 * consumption._CHUNK // slots))
    assert len(spans) >= 2
    chunk = max(hi - lo for lo, hi in spans)
    assert peaks[1] <= peaks[0] + (2 * slots + 8) * chunk * 8  # a two-row block and eight values per region, 8 B each
