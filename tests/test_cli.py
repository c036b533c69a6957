import json
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from muse import dbm_to_watts, read_map_csv, scenario_io
from muse.cli import main

from helpers import probe_scenario, region_link_system
from muse import serialize_scenario
from test_io import SCENARIO_TEXT


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
        (
            "noise_dbm: -106.0",
            "noise_dbm: -106.0\n  noise_overrides: [{region: 676, band: 0, noise_dbm: -90.0}]",
            "noise override (676, 0) outside the grid",
        ),
    ],
    ids=["above-p-max", "infinite-width", "tiny-hex-side", "huge-horizon", "overflowing-dbm", "override-past-grid"],
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
    ],
    ids=["time-past-horizon", "time-negative", "beta-minus-inf", "beta-nan", "beta-overflow", "beta-underflow", "beta-inf",
         "side-zero", "side-negative", "side-nan", "side-too-small"],
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
