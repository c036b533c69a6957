import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from muse import cli, compute_maps, consumption, dbm_to_watts, load_scenario, read_map_csv, scenario_io
from muse.cli import main
from muse.model import UnknownEntityError
from muse.scenario_io import heatmap_text

from helpers import probe_scenario, region_link_system
from muse import serialize_scenario
from test_io import SCENARIO_TEXT, SCENARIOS as DEMO_SCENARIOS


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
        assert (tmp_path / f"map-{q}-t0b0.mat").read_text() == heatmap_text(maps, q, 0, 0)


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
    result = runner.invoke(main, ["smf", "--scenario", scenario, "--truth-map", str(map_a), "--other-map", str(map_a)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert "grid mismatch" in json.loads(lines[0])["error"]


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
    ],
    ids=["above-p-max", "infinite-width", "tiny-hex-side", "huge-horizon", "overflowing-dbm", "noise-far-above-p-max",
         "gain-far-above-p-max", "override-past-grid"],
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
        (lambda d: _link(d).update(transmitters=7), "link link-1.transmitters: expected a list"),
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
    ids=["links-int", "receivers-int", "transmitters-int", "list-id", "mapping-id", "list-link-id",
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
    than the file has characters, also where they hide in a ``!!pairs`` pair
    that an error message would print.  An anchor shared by two transceivers,
    as ``yaml.safe_dump`` writes for a reused list, still parses."""
    receiver = "&x {id: rx-1, position: [1000.0, 2100.0], beta_db: 3.0}"
    transmitter = "{id: tx-1, position: [1000.0, 2000.0], power_dbm: -24.0}"
    link = f"&l {{id: link-1, transmitter: {transmitter}, receivers: [{receiver}{', *x' * 59}]}}"
    networks = f"networks: [&n {{id: net-1, links: [{link}{', *l' * 59}]}}{', *n' * 59}]\n"
    cube = f"[&b [&c [{', '.join(['0'] * 40)}]{', *c' * 39}]{', *b' * 39}]"
    path = tmp_path / "bomb.yaml"
    for bomb in (
        SCENARIO_TEXT.split("networks:")[0] + networks,
        SCENARIO_TEXT.replace("alpha: 3.5", f"alpha: !!pairs [{{a: {cube}}}]"),
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
    assert link.transmitters[0].antenna == link.receivers[0].antenna != scenario_io.OMNI
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


@pytest.mark.parametrize(
    "args, message",
    [
        (["connectivity", "--beta-db", "6", "--time", "99"], "time index 99 outside the horizon"),
        (["connectivity", "--beta-db", "6", "--time", "-1"], "time index -1 outside the horizon"),
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
    ],
    ids=["time-past-horizon", "time-negative", "beta-minus-inf", "beta-nan", "beta-overflow", "beta-underflow", "beta-inf",
         "side-zero", "side-negative", "side-nan", "side-too-small", "fp-power-overflow", "fp-power-minus-inf",
         "fp-power-nan", "geo-sigma-nan", "geo-sigma-inf", "power-sigma-inf", "false-positives-nan", "false-positives-inf",
         "false-positives-huge", "power-sigma-overflow", "power-sigma-underflow", "power-sigma-false-positive"],
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

    import muse.cli as cli
    from muse.smf import SMFReport

    monkeypatch.setattr(cli, "_THETA_CHUNK", 7)
    rng = np.random.default_rng(n)
    theta = rng.normal(size=(n, 1, 1)) * 10.0 ** rng.integers(-300, 300, size=(n, 1, 1)).astype(float)
    special = [math.inf, -math.inf, -0.0, 0.0, 5e-324]
    theta.ravel()[: min(n, 5)] = special[: min(n, 5)]
    rep = SMFReport(theta=theta, theta_total=1.0, truth_total=2.5, recovered_available=-0.0, lost_available=math.inf)
    payload = dataclasses.asdict(rep)
    payload["theta"] = theta.ravel().tolist()
    assert "".join(cli._smf_json(rep)) == json.dumps(payload, indent=2) + "\n"


def _traced_peak(args) -> int:
    """The tracemalloc peak of one in-process command."""
    import tracemalloc

    tracemalloc.start()
    try:
        main(args, standalone_mode=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smf_out_holds_no_copies_of_theta(monkeypatch, tmp_path):
    """Writing the simulated smf report holds theta a chunk at a time: the whole
    command stays below 8 maps, where a list and a formatted copy of theta took
    it past 20."""
    path = tmp_path / "campus.yaml"
    path.write_text((DEMO_SCENARIOS / "three_band_campus.yaml").read_text().replace("hex_side_m: 100.0", "hex_side_m: 5.0"))
    grid = load_scenario(path).grid
    assert grid.cell_count > 1 << 17
    monkeypatch.setenv("MUSE_THREADS", "1")
    args = ["smf", "--scenario", str(path), "--p-missed", "0.1", "--false-positives", "3", "--seed", "8"]
    peak = _traced_peak(args + ["--out", str(tmp_path / "smf.json")])
    assert len(json.loads((tmp_path / "smf.json").read_text())["theta"]) == grid.cell_count
    assert peak < 8 * grid.cell_count * 8


def test_connectivity_streams_its_edge_csv(monkeypatch, tmp_path):
    """``muse connectivity`` on the 12 m campus (8,287 regions x 3 bands, about
    36 CSV chunks) holds its edge arrays and one chunk of text: it peaks near 27
    one-quantum maps, its build's own peak, where holding the 6.4 MB text (32
    maps) and its chunk list took it to 107, and per-pair sample points and
    distances to 35.  A hop is one lattice pitch, so no lattice is built."""
    path = tmp_path / "campus.yaml"
    path.write_text((DEMO_SCENARIOS / "three_band_campus.yaml").read_text().replace("hex_side_m: 100.0", "hex_side_m: 12.0"))
    grid = load_scenario(path).grid
    one_map = grid.region_count * grid.band_count * 8
    monkeypatch.setenv("MUSE_THREADS", "1")
    systems, build = [], cli.build_connectivity_map
    monkeypatch.setattr(cli, "build_connectivity_map", lambda system, *args: systems.append(system) or build(system, *args))
    out = tmp_path / "edges.csv"
    peak = _traced_peak(["connectivity", "--scenario", str(path), "--beta-db", "10", "--out", str(out)])
    assert grid.region_count == 8287 and out.stat().st_size > 30 * one_map
    assert peak <= 31 * one_map
    assert not {"sample_points", "centroids"} & systems[0].grid.__dict__.keys()


def test_map_heatmap_streams_its_slice(monkeypatch, tmp_path):
    """A heatmap is formatted a chunk of hexagon rows at a time, so on a one-slot
    grid ``map --heatmap`` peaks within half a map of ``map`` alone; formatting the
    whole slice added four maps.  The grid (10,868 regions) and the chunks are
    scaled down together, so the four held maps set the peak as they do with the
    default chunks on grids above 2^16 regions."""
    path = tmp_path / "region.yaml"
    path.write_text((DEMO_SCENARIOS / "region_with_link.yaml").read_text().replace("hex_side_m: 100.0", "hex_side_m: 24.0"))
    grid = load_scenario(path).grid
    assert grid.cell_count == grid.region_count == 10868
    monkeypatch.setenv("MUSE_THREADS", "1")
    monkeypatch.setattr(consumption, "_CHUNK", 1 << 12)
    monkeypatch.setattr(scenario_io, "_CSV_CHUNK_ROWS", 256)
    args = ["map", "--scenario", str(path), "--out", str(tmp_path / "map.csv")]
    alone = _traced_peak(args)
    with_heatmap = _traced_peak(args + ["--heatmap", "opportunity"])
    assert len((tmp_path / "map-opportunity-t0b0.mat").read_text().splitlines()) == len(grid._row_counts)
    assert with_heatmap <= alone + 0.5 * grid.cell_count * 8
