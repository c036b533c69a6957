import hashlib
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from muse import (
    GridSpec,
    ScenarioError,
    SpectrumGrid,
    compute_maps,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    load_scenario,
    parse_scenario,
    read_map_csv,
    save_scenario,
    serialize_scenario,
    validate_system,
    write_map_csv,
)
from muse import cli, consumption, scenario_io
from muse.consumption import ConsumptionMaps
from muse.scenario_io import MAP_CSV_HEADER, heatmap_chunks

from helpers import assert_same_text, region_link_system, small_grid
from test_consumption import generated_systems
import dataclasses

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
LOADERS = [name for name in ("SafeLoader", "CSafeLoader") if hasattr(yaml, name)]  # CSafeLoader: pyyaml with libyaml

SCENARIO_TEXT = """
muse_scenario: 1
system:
  p_max_dbm: 30.0
  p_min_dbm: -200.0
  noise_dbm: -106.0
propagation:
  alpha: 3.5
  reference_distance_m: 1.0
grid:
  width_m: 4300.0
  height_m: 3700.0
  hex_side_m: 100.0
  time_quantum_s: 10.0
  time_quanta: 1
  bands:
    - {center_mhz: 600.0, bandwidth_mhz: 6.0}
  sample_point_policy: centroid
  worst_case_placement: false
networks:
  - id: net-1
    links:
      - id: link-1
        transmitter:
          id: tx-1
          position: [1000.0, 2000.0]
          power_dbm: -24.0
          antenna: omni
        receivers:
          - id: rx-1
            position: [1000.0, 2100.0]
            beta_db: 3.0
"""


def equivalent(a, b, rel=1e-12):
    """Structural equality with float tolerance."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(equivalent(x, y, rel) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        if type(a) is not type(b):
            return False
        return all(
            equivalent(getattr(a, f.name), getattr(b, f.name), rel) for f in dataclasses.fields(a)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(equivalent(a[k], b[k], rel) for k in a)
    return a == b


def test_parse_basics():
    sys_ = parse_scenario(SCENARIO_TEXT)
    assert validate_system(sys_).ok
    assert sys_.params.p_max == 1.0
    assert sys_.params.ambient_noise == pytest.approx(dbm_to_watts(-106.0), rel=1e-15)
    assert sys_.propagation.alpha == 3.5
    tx = sys_.transmitter("tx-1")
    assert tx.tx_power == pytest.approx(dbm_to_watts(-24.0), rel=1e-15)
    rx = sys_.receiver("rx-1")
    assert rx.beta == pytest.approx(10.0 ** 0.3, rel=1e-15)
    assert sys_.grid.region_count == 676


def test_round_trip_structural_equality():
    first = parse_scenario(SCENARIO_TEXT)
    second = parse_scenario(serialize_scenario(first))
    assert equivalent(first.params, second.params)
    assert equivalent(first.grid_spec, second.grid_spec)
    assert equivalent(first.propagation, second.propagation)
    assert equivalent(list(first.networks), list(second.networks))


def test_round_trip_rich_scenario():
    sys_ = region_link_system(worst_case=True)
    again = parse_scenario(serialize_scenario(sys_))
    assert again.grid_spec.worst_case_placement
    assert equivalent(list(sys_.networks), list(again.networks))


def test_round_trip_sector_antenna_and_masks():
    text = SCENARIO_TEXT.replace(
        "antenna: omni",
        "antenna: {kind: sector, boresight_deg: 45.0, beamwidth_deg: 60.0, main_gain_db: 6.0, back_gain_db: -10.0}\n          active: [0]",
    )
    sys_ = parse_scenario(text)
    tx = sys_.transmitter("tx-1")
    assert tx.antenna.kind == "sector"
    assert tx.antenna.boresight == pytest.approx(math.radians(45.0))
    assert tx.antenna.main_gain == pytest.approx(10.0 ** 0.6)
    assert tx.active_intervals == frozenset({0})
    again = parse_scenario(serialize_scenario(sys_))
    assert equivalent(list(sys_.networks), list(again.networks))


# sha256 of serialize_scenario(load_scenario(demo)) once the unit writers gave
# the shortest exact decimal (beta_db: 3.0, not 2.999999999999999); any moved
# byte of the writer changes a digest.
DEMO_SERIALIZED_SHA256 = {
    "four_pair_field.yaml": "0c58c4452f7039beff0816dd616fb67af08384ec95afee3c9779cc4257af7b20",
    "region_with_link.yaml": "7d195c9ef1e8fbece64915baee4aeb2041b617309f3db62d5e1d69b6303e0e76",
    "single_link_far_receiver.yaml": "53030fdb308082f834fafb6ef18a75b97cc47f0404b5473fbca65ca98ffce179",
    "single_link_high_power.yaml": "6bb6517cf1b5007bca550bac34ab219eace4bf342493a6760bded42d1648c956",
    "single_link_low_power.yaml": "a153d3f6464a102903446b718bfbed1ef379d39ce7102e1056dffb362f6cda04",
    "three_band_campus.yaml": "142a3a87567cfca623ad025222adb10868a2baa82f6f2b93c83efdd9c3b78995",
}


@pytest.mark.parametrize("name", sorted(DEMO_SERIALIZED_SHA256))
def test_demo_serialization_bytes_pinned(name):
    text = serialize_scenario(load_scenario(SCENARIOS / name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEMO_SERIALIZED_SHA256[name]


@pytest.mark.parametrize("name", sorted(DEMO_SERIALIZED_SHA256))
def test_demo_round_trip_exact(name):
    sys_ = load_scenario(SCENARIOS / name)
    assert parse_scenario(serialize_scenario(sys_)) == sys_


@pytest.mark.parametrize("name", sorted(DEMO_SERIALIZED_SHA256))
def test_save_scenario_writes_the_serialized_bytes(monkeypatch, tmp_path, name):
    sys_ = load_scenario(SCENARIOS / name)
    newlines = []
    monkeypatch.setattr(scenario_io, "open", lambda *args, **kw: newlines.append(kw.get("newline")) or open(*args, **kw), raising=False)
    save_scenario(sys_, tmp_path / name)
    # "\n" line ends on every platform, so the file holds serialize_scenario's bytes
    assert newlines == ["\n"]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == DEMO_SERIALIZED_SHA256[name]
    assert load_scenario(tmp_path / name) == sys_


def test_unit_writers_give_the_shortest_exact_decimal():
    assert linear_to_db(db_to_linear(3.0)) == 2.999999999999999
    assert scenario_io._DB[1](db_to_linear(3.0)) == 3.0
    assert scenario_io._DBM[1](dbm_to_watts(-24.0)) == -24.0
    # one ulp above: no decimal reads back to it, so the converted value is written
    above = math.nextafter(db_to_linear(3.0), math.inf)
    assert scenario_io._DB[1](above) == linear_to_db(above) and db_to_linear(linear_to_db(above)) != above


# Every optional key and special shape of the format, with its serialized sha256
# (first pinned before the schema became one table, re-pinned once the unit
# writers gave the shortest exact decimal, and once a link's one transmitter
# became its only transmitter key): key order, omitted defaults and unit
# conversions of the writer are all pinned.
EVERY_KEY_TEXT = """
muse_scenario: 1
system:
  p_max_dbm: 30.0
  p_min_dbm: -200.0
  noise_dbm: [-106.0, -104.0]
  noise_overrides:
    - {region: 7, band: 0, noise_dbm: -95.5}
    - {region: 3, band: 1, noise_dbm: -90.0}
propagation:
  alpha: 3.5
  band_overrides: {1: {alpha: 2.8}, 0: {reference_distance_m: 2.0}}
grid:
  width_m: 4300.0
  height_m: 3700.0
  hex_side_m: 100.0
  bands:
    - {center_mhz: 600.0, bandwidth_mhz: 6.0}
    - {center_mhz: 606.0, bandwidth_mhz: 6.0}
  sample_point_policy: {offset_m: [3.0, -4.0]}
networks:
  - id: net-1
    orthogonal: true
    links:
      - id: link-1
        transmitter:
          id: tx-1
          position: [1000.0, 2000.0]
          power_dbm: -24.0
          antenna: {kind: sector, boresight_deg: 45.0, beamwidth_deg: 60.0, main_gain_db: 6.0, back_gain_db: -10.0}
          active: [0]
          bands: [1, 0]
        receivers:
          - {id: rx-1, position: [1000.0, 2100.0], beta_db: 3.0, antenna: {kind: sector}, active: all}
      - id: link-2
        transmitter: {id: tx-2, position: [10.0, 20.0], power_dbm: -30.0, antenna: {kind: omni}}
      - id: link-3
        transmitter: {id: tx-3, position: [30.0, 40.0], power_dbm: -31.0}
  - id: net-2
    links:
      - id: observatory
        transmitter: null
        receivers:
          - {id: rx-9, position: [300.0, 400.0], beta_db: 1.0, margin_dbm: -90.0}
      - id: empty
"""
EVERY_KEY_SERIALIZED_SHA256 = "5a72054009fff8589be14918f48c35f4f30265bf6f21798fc54612a2d028c3ba"


def test_serialization_bytes_of_every_key_pinned():
    text = serialize_scenario(parse_scenario(EVERY_KEY_TEXT))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EVERY_KEY_SERIALIZED_SHA256


@settings(max_examples=25, deadline=None)
@given(generated_systems())
def test_round_trip_generated_systems(sys_):
    assert equivalent(sys_, parse_scenario(serialize_scenario(sys_)))


def test_round_trip_per_band_noise_and_overrides():
    text = SCENARIO_TEXT.replace(
        "noise_dbm: -106.0", "noise_dbm: [-106.0, -104.0]"
    ).replace(
        "    - {center_mhz: 600.0, bandwidth_mhz: 6.0}",
        "    - {center_mhz: 600.0, bandwidth_mhz: 6.0}\n    - {center_mhz: 606.0, bandwidth_mhz: 6.0}",
    ).replace(
        "  reference_distance_m: 1.0",
        "  reference_distance_m: 1.0\n  band_overrides: {1: {alpha: 2.8}}",
    ).replace(
        "  noise_dbm: [-106.0, -104.0]",
        "  noise_dbm: [-106.0, -104.0]\n"
        "  noise_overrides:\n"
        "    - {region: 7, band: 0, noise_dbm: -95.5}\n"
        "    - {region: 3, band: 1, noise_dbm: -90.0}",
    )
    sys_ = parse_scenario(text)
    assert sys_.params.noise_for_band(1) == pytest.approx(dbm_to_watts(-104.0), rel=1e-15)
    assert sys_.model_for_band(1).alpha == 2.8
    assert sys_.model_for_band(0).alpha == 3.5
    assert sys_.noise_cell_overrides == {(7, 0): dbm_to_watts(-95.5), (3, 1): dbm_to_watts(-90.0)}
    assert validate_system(sys_).ok
    serialized = serialize_scenario(sys_)
    # written sorted by (region, band)
    assert [(o["region"], o["band"]) for o in yaml.safe_load(serialized)["system"]["noise_overrides"]] == [(3, 1), (7, 0)]
    again = parse_scenario(serialized)
    assert again.model_for_band(1).alpha == 2.8
    assert equivalent(sys_.params, again.params)
    assert again.noise_cell_overrides.keys() == sys_.noise_cell_overrides.keys()
    for key, watts in sys_.noise_cell_overrides.items():
        assert again.noise_cell_overrides[key] == pytest.approx(watts, rel=1e-12)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ("[{region: 1, band: 0, noise_dbm: -90.0, note: x}]", "unknown key"),
        ("[{region: 1, noise_dbm: -90.0}]", "missing key"),
        ("[{region: true, band: 0, noise_dbm: -90.0}]", "expected an integer"),
        ("[{region: 1, band: 0.0, noise_dbm: -90.0}]", "expected an integer"),
        ("[{region: '1', band: 0, noise_dbm: -90.0}]", "expected an integer"),
        ("[{region: 1, band: 0, noise_dbm: .inf}]", "finite"),
        ("[{region: 1, band: 0, noise_dbm: 1.0e+300}]", "finite"),
        ("[{region: 1, band: 0, noise_dbm: loud}]", "expected a number"),
        ("[{region: 1, band: 0, noise_dbm: -90.0}, {region: 1, band: 0, noise_dbm: -80.0}]", "overridden twice"),
        ("[-90.0]", "expected a mapping"),
        ("{region: 1, band: 0, noise_dbm: -90.0}", "expected a list"),
    ],
    ids=["unknown-key", "missing-band", "bool-region", "float-band", "string-region", "inf", "overflow",
         "text", "repeated", "not-a-mapping", "not-a-list"],
)
def test_noise_overrides_rejected(overrides, message):
    text = SCENARIO_TEXT.replace("  noise_dbm: -106.0", f"  noise_dbm: -106.0\n  noise_overrides: {overrides}")
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(text)


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(SCENARIO_TEXT.replace("alpha: 3.5", "alpha: 3.5\n  fading: rayleigh"))
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(SCENARIO_TEXT.replace("beta_db: 3.0", "beta_db: 3.0\n            snr: 1"))


def test_schema_version_checked():
    for version in ("99", "true", "1.0", "'1'"):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(SCENARIO_TEXT.replace("muse_scenario: 1", f"muse_scenario: {version}"))
        assert str(info.value) == f"unsupported schema version {yaml.safe_load(version)!r} (expected 1)"


@pytest.mark.parametrize(
    "key, bad",
    [
        ("width_m", ".inf"),
        ("height_m", "'tall'"),
        ("hex_side_m", "[100.0]"),
        ("time_quantum_s", "true"),
        ("time_quanta", "1.5"),
        ("bands", "[]"),
        ("sample_point_policy", "edge"),
        ("worst_case_placement", "'no'"),
    ],
)
def test_grid_reader_errors_name_their_key_once(key, bad):
    doc = yaml.safe_load(SCENARIO_TEXT)
    doc["grid"][key] = yaml.safe_load(bad)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(yaml.safe_dump(doc))
    message = str(info.value)
    assert message.startswith(f"grid.{key}: ") and message.count("grid") == 1, message


def test_grid_constructor_errors_keep_their_text():
    with pytest.raises(ScenarioError) as info:
        parse_scenario(SCENARIO_TEXT.replace("hex_side_m: 100.0", "hex_side_m: -1.0"))
    assert str(info.value) == "grid: hex_side must be positive"


def test_missing_and_malformed_fields():
    with pytest.raises(ScenarioError, match="missing key"):
        parse_scenario(SCENARIO_TEXT.replace("  p_max_dbm: 30.0\n", ""))
    with pytest.raises(ScenarioError, match="expected a number"):
        parse_scenario(SCENARIO_TEXT.replace("power_dbm: -24.0", "power_dbm: loud"))
    with pytest.raises(ScenarioError, match="position"):
        parse_scenario(SCENARIO_TEXT.replace("position: [1000.0, 2000.0]", "position: [1000.0]"))
    # a per-band noise list of the wrong length parses; validation reports it
    wrong = parse_scenario(SCENARIO_TEXT.replace("noise_dbm: -106.0", "noise_dbm: [-106.0, -105.0]"))
    assert validate_system(wrong).violations == ("ambient noise: 2 per-band values for 1 bands",)
    with pytest.raises(ScenarioError, match="finite"):
        parse_scenario(SCENARIO_TEXT.replace("alpha: 3.5", "alpha: .nan"))
    with pytest.raises(ScenarioError, match="finite"):
        parse_scenario(SCENARIO_TEXT.replace("power_dbm: -24.0", "power_dbm: 1" + "0" * 400))
    # finite in dB, but beyond float range once converted to linear
    for field in ("p_max_dbm: 30.0", "noise_dbm: -106.0", "power_dbm: -24.0", "beta_db: 3.0"):
        with pytest.raises(ScenarioError, match="finite"):
            parse_scenario(SCENARIO_TEXT.replace(field, field.split(":")[0] + ": 1.0e+300"))
    with pytest.raises(ScenarioError, match="expected an integer"):
        parse_scenario(SCENARIO_TEXT.replace("  reference_distance_m: 1.0", "  reference_distance_m: 1.0\n  band_overrides: {true: {alpha: 2.8}}"))


@pytest.mark.parametrize(
    "field, template, context, read",
    [
        ("  worst_case_placement: false", "  worst_case_placement: {}", "grid.worst_case_placement",
         lambda sys_: sys_.grid_spec.worst_case_placement),
        ("  - id: net-1", "  - id: net-1\n    orthogonal: {}", "network net-1.orthogonal",
         lambda sys_: sys_.networks[0].orthogonal),
    ],
    ids=["worst_case_placement", "orthogonal"],
)
def test_booleans_must_be_yaml_booleans(field, template, context, read):
    def parse(value):
        return parse_scenario(SCENARIO_TEXT.replace(field, template.format(value)))

    for value, expected in (("false", False), ("true", True), ("no", False), ("yes", True)):  # YAML 1.1 booleans
        assert read(parse(value)) is expected
    for value in ('"no"', "'true'", "0", "1", "[]", "null"):
        with pytest.raises(ScenarioError) as info:
            parse(value)
        assert str(info.value).startswith(f"{context}: expected true or false, got ")


def test_receive_only_margin_parsed():
    text = SCENARIO_TEXT.replace(
        """        transmitter:
          id: tx-1
          position: [1000.0, 2000.0]
          power_dbm: -24.0
          antenna: omni
""",
        "",
    ).replace("beta_db: 3.0", "beta_db: 3.0\n            margin_dbm: -80.0")
    sys_ = parse_scenario(text)
    assert validate_system(sys_).ok
    assert sys_.receiver("rx-1").explicit_margin == pytest.approx(dbm_to_watts(-80.0), rel=1e-15)


def test_map_csv_round_trip(tmp_path):
    sys_ = region_link_system(hex_side=230.0)
    maps = compute_maps(sys_)
    path = tmp_path / "map.csv"
    write_map_csv(path, maps)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == MAP_CSV_HEADER
    assert len(lines) == 1 + maps.grid.cell_count
    # canonical ordering: region-major, then time, then band
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "0"

    loaded = read_map_csv(path)
    for name in ("occupancy", "opportunity", "raw_opportunity", "liability"):
        assert np.array_equal(loaded[name], getattr(maps, name))

    write_map_csv(tmp_path / "again.csv", compute_maps(sys_))
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def _cut_row(rows):
    rows[3] = ",".join(rows[3].split(",")[:5])


def _seven_fields(rows):
    rows[3] = ",".join(rows[3].split(",")[:7])


def _ten_fields(rows):
    rows[3] += ",0.0"


def _balanced_widths(rows):  # as many commas as nine-field rows have
    _seven_fields(rows)
    rows[4] += ",0.0,0.0"


def _negative_index(rows):
    rows[0] = "-1" + rows[0][1:]


def _duplicate_row(rows):
    rows[4] = rows[3]


def _set_field(k, text):
    def mutate(rows):
        fields = rows[2].split(",")
        fields[k] = text
        rows[2] = ",".join(fields)

    return mutate


def _set_value(text):
    return _set_field(6, text)


def _comment_row(rows):
    rows.insert(3, "# comment")


def _no_rows(rows):
    rows.clear()


def _missing_row(rows):
    del rows[-1]


def _stray_centroid(rows):
    fields = rows[0].split(",")  # region 0's first row; its other row keeps x = 0
    fields[3] = "9.9e+03"
    rows[0] = ",".join(fields)


def _extra_region(rows):
    fields = rows[0].split(",")
    fields[0] = str(1 + max(int(row.split(",")[0]) for row in rows))
    rows.append(",".join(fields))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_cut_row, "fields"),
        (_seven_fields, "fields"),
        (_ten_fields, "fields"),
        (_balanced_widths, "fields"),
        (_negative_index, "negative index"),
        (_duplicate_row, "duplicate or missing"),
        (_set_value("nan"), "non-finite"),
        (_set_value("-inf"), "non-finite"),
        (_set_value("0x1p3"), "malformed number"),
        (_set_field(0, "1.5"), "malformed number"),
        (_set_field(0, "1e0"), "malformed number"),
        (_comment_row, "fields"),
        (_no_rows, "no data rows"),
        (_missing_row, "row count does not match its index ranges"),
        (_extra_region, "row count does not match its index ranges"),
        (_stray_centroid, "disagree on its centroid"),
    ],
    ids=["cut-row", "seven-fields", "ten-fields", "seven-and-eleven-fields", "negative-index", "duplicate-row", "nan",
         "infinite", "malformed", "fractional-index", "exponent-index", "comment-row", "header-only", "missing-row",
         "extra-region", "stray-centroid"],
)
def test_read_map_csv_rejects_bad_rows(tmp_path, mutate, message):
    """Every read rejects every bad row: read_map_csv of every field, and the opportunity-only
    read of smf, which converts fewer columns but checks each row's field count all the same."""
    path = tmp_path / "map.csv"
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid(n_bands=2))))
    header, *rows = path.read_text().splitlines()
    mutate(rows)
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ScenarioError, match=message):
        read_map_csv(path)
    with pytest.raises(ScenarioError, match=message):
        read_map_csv(path, ("opportunity",))


@pytest.mark.parametrize("mutate, found", [(_cut_row, 5), (_ten_fields, 10)], ids=["short", "long"])
def test_a_row_of_the_wrong_width_is_named(tmp_path, mutate, found):
    """A short and a long row are named by their data row (after the header, blank lines not
    counted) and width, in every read, without numpy's advice to pass ``usecols``."""
    path = tmp_path / "map.csv"
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid(n_bands=2))))
    header, *rows = path.read_text().splitlines()
    mutate(rows)  # the fourth data row
    path.write_text("\n".join([header, rows[0], ""] + rows[1:]) + "\n")
    for fields in (scenario_io.MAP_FIELDS, ("opportunity",), ()):
        with pytest.raises(ScenarioError) as info:
            read_map_csv(path, fields)
        assert str(info.value) == f"map CSV has a row without 9 fields: data row 4 has {found} fields"


def test_opportunity_read_converts_only_what_smf_scores(tmp_path):
    """The opportunity-only read returns read_map_csv's opportunity and centroids, and does
    not look into the columns it skips: a non-finite occupancy passes it."""
    path = tmp_path / "map.csv"
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid(n_bands=2))))
    full, opportunity = read_map_csv(path), read_map_csv(path, ("opportunity",))
    assert opportunity.keys() == {"opportunity", "centroids"}
    for name in opportunity.keys():
        assert np.array_equal(opportunity[name], full[name])
    header, *rows = path.read_text().splitlines()
    _set_field(5, "nan")(rows)
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ScenarioError, match="non-finite"):
        read_map_csv(path)
    assert np.array_equal(read_map_csv(path, ("opportunity",))["opportunity"], full["opportunity"])


def test_read_map_csv_reads_any_named_map_fields_and_rejects_others(tmp_path):
    """``fields`` may name any of the four map fields, and nothing else (a ValueError, not
    a ScenarioError: the file is not at fault); the centroids come with every read."""
    path = tmp_path / "map.csv"
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid(n_bands=2))))
    full = read_map_csv(path)
    assert full.keys() == {"occupancy", "opportunity", "raw_opportunity", "liability", "centroids"}
    occupancy = read_map_csv(path, ("occupancy",))
    assert occupancy.keys() == {"occupancy", "centroids"}
    assert np.array_equal(occupancy["occupancy"], full["occupancy"])
    assert np.array_equal(occupancy["centroids"], full["centroids"])
    for fields in (("opportunity", "theta"), ("centroid_x",), ("region",), "opportunity"):
        with pytest.raises(ValueError, match="map CSV fields must be of") as exc:
            read_map_csv(path, fields)
        assert not isinstance(exc.value, ScenarioError)


@pytest.mark.parametrize(
    "rewrite",
    [lambda text: text.replace("\n", "\r\n"), lambda text: text + "\n"],
    ids=["crlf", "trailing-blank-line"],
)
def test_read_map_csv_accepts_crlf_and_blank_tail(tmp_path, rewrite):
    maps = compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid(n_bands=2)))
    path = tmp_path / "map.csv"
    write_map_csv(path, maps)
    path.write_bytes(rewrite(path.read_text()).encode())
    loaded = read_map_csv(path)
    for name in ("occupancy", "opportunity", "raw_opportunity", "liability"):
        assert np.array_equal(loaded[name], getattr(maps, name))


# The per-row formatters the map CSV and heatmap writers replaced; the
# batched writers must reproduce their bytes.


def reference_map_csv_text(maps: ConsumptionMaps) -> str:
    grid = maps.grid
    lines = [MAP_CSV_HEADER]
    for chi in range(grid.region_count):
        cx, cy = grid.region_centroids(chi, chi + 1)[0]
        for tau in range(grid.horizon):
            for nu in range(grid.band_count):
                lines.append(
                    f"{chi},{tau},{nu},{cx:.17e},{cy:.17e},"
                    f"{maps.occupancy[chi, tau, nu]:.17e},{maps.opportunity[chi, tau, nu]:.17e},"
                    f"{maps.raw_opportunity[chi, tau, nu]:.17e},{maps.liability[chi, tau, nu]:.17e}"
                )
    return "\n".join(lines) + "\n"


def reference_heatmap_text(maps: ConsumptionMaps, quantity: str, time_index: int, band_index: int) -> str:
    grid = maps.grid
    values = getattr(maps, quantity)[:, time_index, band_index]
    width = int(max(grid._row_counts))
    lines = []
    for i in range(grid.row_count):
        lo, hi = int(grid._row_start[i]), int(grid._row_start[i + 1])
        row = [f"{v:.17e}" for v in values[lo:hi]]
        row += ["nan"] * (width - (hi - lo))
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


_EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-3, 1e300, -1e300, 1.7976931348623157e308]
)


@st.composite
def generated_maps(draw):
    spec = GridSpec(
        region_width=draw(st.floats(200.0, 900.0)),
        region_height=draw(st.floats(200.0, 900.0)),
        hex_side=100.0,
        horizon=draw(st.integers(1, 3)),
        bands=small_grid(n_bands=draw(st.integers(1, 3))).bands,
    )
    grid = SpectrumGrid(spec)
    shape = (grid.region_count, grid.horizon, grid.band_count)
    values = st.one_of(_EDGE_VALUES, st.floats(allow_nan=False, allow_infinity=False))
    fields = [np.array(draw(st.lists(values, min_size=grid.cell_count, max_size=grid.cell_count))).reshape(shape)
              for _ in range(4)]
    return ConsumptionMaps(grid, *fields)


@settings(max_examples=40, deadline=None)
@given(maps=generated_maps(), chunk_rows=st.sampled_from([1, 7, 64, 4096]))
def test_map_writers_match_reference_and_round_trip_bitwise(tmp_path_factory, maps, chunk_rows):
    path = tmp_path_factory.mktemp("map") / "map.csv"
    mat = path.with_suffix(".mat")
    with mock.patch.object(consumption, "_TEXT_CHUNK", chunk_rows):
        write_map_csv(path, maps)
        for tau in range(maps.grid.horizon):
            for nu in range(maps.grid.band_count):
                expected = reference_heatmap_text(maps, "raw_opportunity", tau, nu)
                assert_same_text("".join(heatmap_chunks(maps, "raw_opportunity", tau, nu)), expected)
                cli._write(str(mat), heatmap_chunks(maps, "raw_opportunity", tau, nu))  # as `muse map --heatmap`
                assert_same_text(mat.read_bytes().decode("utf-8"), expected)
    assert_same_text(path.read_bytes().decode("utf-8"), reference_map_csv_text(maps))

    loaded = read_map_csv(path)
    for name in ("occupancy", "opportunity", "raw_opportunity", "liability"):
        assert loaded[name].tobytes() == getattr(maps, name).tobytes()
    assert loaded["centroids"].tobytes() == maps.grid.region_centroids(0, maps.grid.region_count).tobytes()


# Bit patterns whose texts a writer keyed on ``==`` would merge or mix up: both zeros, the
# smallest and largest subnormals, the extreme exponents, both infinities, and NaNs of either
# sign, quiet and signalling, with distinct payloads.
_SPECIAL_BITS = st.sampled_from(
    [0x0, 0x8000000000000000, 0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
     0xFFEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
     0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]
)


@st.composite
def repeating_maps(draw):
    """Maps whose cells draw from a pool of a few values, both zeros always among them, so
    that every chunk repeats values, across fields too."""
    grid = SpectrumGrid(GridSpec(
        region_width=draw(st.floats(200.0, 900.0)),
        region_height=draw(st.floats(200.0, 900.0)),
        hex_side=100.0,
        horizon=draw(st.integers(1, 3)),
        bands=small_grid(n_bands=draw(st.integers(1, 3))).bands,
    ))
    floats = st.floats(allow_nan=False).map(lambda v: int(np.float64(v).view(np.uint64)))
    pool = np.array([0x0, 0x8000000000000000] + draw(st.lists(st.one_of(_SPECIAL_BITS, floats), max_size=6)),
                    dtype=np.uint64).view(np.float64)
    shape = (grid.region_count, grid.horizon, grid.band_count)
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=grid.cell_count, max_size=grid.cell_count)
    return ConsumptionMaps(grid, *(pool[draw(picks)].reshape(shape) for _ in range(4)))


@settings(max_examples=60, deadline=None)
@given(maps=repeating_maps(), chunk_rows=st.integers(1, 24))
def test_map_csv_formats_each_bit_pattern_as_its_own_value(tmp_path_factory, maps, chunk_rows):
    """Chunks of a few regions, each formatting its distinct values once, give the row-by-row
    ``f"{v:.17e}"`` text: -0.0 is not written as 0.0, nor a NaN of one payload as another's
    text.  The fields that are finite read back bit for bit, and the centroids too."""
    path = tmp_path_factory.mktemp("map") / "map.csv"
    with mock.patch.object(consumption, "_TEXT_CHUNK", chunk_rows):
        assert_same_text("".join(scenario_io.map_csv_chunks(maps)), reference_map_csv_text(maps))
        write_map_csv(path, maps)
    finite = tuple(name for name in scenario_io.MAP_FIELDS if np.isfinite(getattr(maps, name)).all())
    loaded = read_map_csv(path, finite)
    for name in finite:
        assert loaded[name].tobytes() == getattr(maps, name).tobytes()
    assert loaded["centroids"].tobytes() == maps.grid.region_centroids(0, maps.grid.region_count).tobytes()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml built without libyaml")
def test_yaml_loaders_build_the_same_scenario():
    """Both loaders build the same scenario, and on each demo the document built from the
    parser's events equals ``yaml.load``'s, types and key order too."""
    texts = [SCENARIO_TEXT] + [p.read_text() for p in sorted(SCENARIOS.glob("*.yaml"))]
    for text in texts:
        with mock.patch.object(scenario_io, "_YAML_LOADER", yaml.SafeLoader):
            pure = parse_scenario(text)
        with mock.patch.object(scenario_io, "_YAML_LOADER", yaml.CSafeLoader):
            libyaml = parse_scenario(text)
        assert pure == libyaml
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            with mock.patch.object(scenario_io, "_YAML_LOADER", loader):
                doc = scenario_io._document(text)
            assert same_document(doc, yaml.load(text, Loader=loader))


def same_document(a, b) -> bool:
    """Equal and of the same types throughout, mapping keys in the same order; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same_document(ka, kb) and same_document(va, vb) for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_document(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


# Scalars as written: YAML 1.1 booleans and floats, `1e3` (a string in YAML 1.1), big
# integers, nulls and empty values, quoted and tagged forms, timestamps and merge keys.
_TOKENS = st.sampled_from(
    ["yes", "Off", "on", "NO", "y", "True", "false", "~", "null", "", ".inf", "-.Inf", ".NaN", "1e3", "1.0e+3",
     "1_000.5", "0x1F", "0o17", "017", "0b101", "1:30", "190:20:30.15", "+12", "-0", "3.5", "-24.0", "=",
     "2001-12-14", "2001-12-14t21:59:43.10-05:00", "tx-1", "omni", "a b", "'yes'", '"1"', '"a\\tb"', "''",
     "!!str 1", '!!int "7"', "!!float 1", "! 12", "!!binary aGk=", "!!timestamp 2001-01-01", "!custom x",
     "!!bool yes", "!!bool maybe", "9" * 4301, "-" + "9" * 4400, "1" * 40]
)
_KEYS = st.sampled_from(
    ["a", "b", "c", "id", "receivers", "1", "1.0", "true", "yes", "~", "'a'", '"b"', "!!str 1", "<<", "2001-12-14", ".nan"]
)
_TAGS = st.sampled_from(["! ", "!!seq ", "!!pairs ", "!!omap ", "!!set ", "!!map ", "!custom "])


def _rarely(draw, strategy, default=""):
    return draw(strategy) if draw(st.integers(0, 7)) == 5 else default  # 0 and 7 are drawn far more often


@st.composite
def _yaml_node(draw, anchors, depth=0):
    """A flow node's text, now and then anchored or tagged, or an alias of an earlier anchor
    (rarely, of an undefined one where there is none); ``anchors`` holds the names defined so far."""
    kind = draw(st.sampled_from(["scalar"] * 3 + (["seq", "map"] if depth < 4 else [])))
    if _rarely(draw, st.just(True), False) and (anchors or _rarely(draw, st.just(True), False)):
        return "*" + (draw(st.sampled_from(anchors)) if anchors else "undefined")
    anchor = _rarely(draw, st.just(f"a{len(anchors)}"))
    if anchor:  # an alias inside the node itself makes a recursive document
        anchors.append(anchor)
    prefix = anchor and f"&{anchor} "
    if kind == "scalar":
        text = prefix + draw(_TOKENS)
    else:
        prefix += _rarely(draw, _TAGS)
        items = []
        for _ in range(draw(st.integers(0, 4))):
            key = draw(st.one_of(_KEYS, _KEYS, _KEYS, _yaml_node(anchors, depth + 1))) if kind == "map" else None
            value = draw(_yaml_node(anchors, depth + 1))
            items.append(value if key is None else f"? {key} : {value}")
        text = prefix + ("[{}]" if kind == "seq" else "{{{}}}").format(", ".join(items))
    return text


@st.composite
def yaml_streams(draw):
    """One document, or rarely two: a block mapping of flow values (`<<` merges included), or a flow node."""
    documents = []
    for _ in range(1 + _rarely(draw, st.just(1), 0)):
        anchors = []
        if draw(st.booleans()):
            pairs = [(draw(_KEYS), draw(_yaml_node(anchors))) for _ in range(draw(st.integers(1, 5)))]
            documents.append("".join(f"{key}: {value}\n" for key, value in pairs))
        else:
            documents.append(draw(_yaml_node(anchors)) + "\n")
    return "---\n".join(documents)


def _outcome(load, text):
    try:
        return load(text), None
    except Exception as exc:
        return None, exc


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=150, deadline=None)
@given(text=yaml_streams())
def test_events_build_the_document_yaml_load_builds(loader, text):
    """The document built from the parser's events equals ``yaml.load``'s, type for type and
    key order too, or the builder raises ScenarioError; it never accepts a text ``yaml.load``
    rejects.  A parser error keeps pyyaml's text, which ``yaml.load`` raises too; any other
    rejection names its construct and mark in a message that does not grow with the input."""
    loader = getattr(yaml, loader)
    with mock.patch.object(scenario_io, "_YAML_LOADER", loader):
        ours, error = _outcome(scenario_io._document, text)
    theirs, their_error = _outcome(lambda t: yaml.load(t, Loader=loader), text)
    if error is None:
        assert their_error is None and same_document(ours, theirs), (text, ours, theirs, their_error)
    elif isinstance(error.__cause__, yaml.YAMLError):
        assert isinstance(error, ScenarioError), (text, error)
        assert str(error) == "malformed YAML: " + " ".join(str(their_error).split()), (text, error, their_error)
    else:
        assert isinstance(error, ScenarioError), (text, error)
        assert re.fullmatch(r"malformed YAML: .{1,90} \(line \d+, column \d+\)|scenario: aliases .+", str(error)), (text, error)


# Scalars the builder reads, and keys no two of which are equal once read (1 and 1.0,
# true and 1, 'a' and a would each be one key given twice).
_READ_TOKENS = st.sampled_from(
    ["yes", "Off", "false", "~", "null", ".inf", "-.Inf", ".NaN", "1e3", "1.0e+3", "1_000.5", "0x1F", "017", "0b101",
     "1:30", "190:20:30.15", "+12", "-0", "3.5", "-24.0", "tx-1", "omni", "a b", "'yes'", '"1"', '"a\\tb"', "''",
     "!!str 1", '!!int "7"', "!!float 1", "! 12", "!!bool yes", "!!null x", "1" * 40]
)
_DISTINCT_KEYS = ["a", "b", "id", "receivers", "'q'", '"d"', "1", "2.5", "false", "~", "!!str 1", "x y"]


@st.composite
def _anchored_node(draw, anchors, depth=0, kind=None):
    """(text, bound) of a flow node the builder reads, now and then anchored, or an alias of an
    anchor whose node is complete; ``bound`` bounds the values the builder counts for it.  A
    mapping's keys are distinct, and its ``<<`` keys merge mappings alone: anchored ones or one
    written in place.  ``anchors`` maps each anchor to (whether it is a mapping, its bound);
    only nodes of at most three values are aliased, so no document reaches the alias bound."""
    small = sorted(name for name, (_, bound) in anchors.items() if bound <= 3)
    if kind is None and small and draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(small))
        return "*" + name, anchors[name][1]
    kind = kind or draw(st.sampled_from(["scalar", "scalar", "seq", "map", "map"] if depth < 3 else ["scalar"]))
    if kind == "scalar":
        text, bound = draw(_READ_TOKENS), 0
    elif kind == "seq":
        items = [draw(_anchored_node(anchors, depth + 1)) for _ in range(draw(st.integers(0, 3)))]
        text, bound = "[" + ", ".join(t for t, _ in items) + "]", sum(1 + b for _, b in items)
    else:
        keys = draw(st.lists(st.sampled_from(_DISTINCT_KEYS), max_size=3, unique=True))
        items = [(key, *draw(_anchored_node(anchors, depth + 1))) for key in keys]
        mappings = sorted(name for name, (is_map, bound) in anchors.items() if is_map and bound <= 3)
        for _ in range(draw(st.integers(0, 2)) if depth < 3 else 0):  # `<<` keys, each of one or two mappings
            sources = []
            for _ in range(draw(st.integers(1, 2))):
                if mappings and draw(st.booleans()):
                    name = draw(st.sampled_from(mappings))
                    sources.append(("*" + name, anchors[name][1]))
                else:
                    sources.append(draw(_anchored_node(anchors, depth + 1, "map")))
            merged = sources[0][0] if len(sources) == 1 else "[" + ", ".join(t for t, _ in sources) + "]"
            # `<<` is no key of the built mapping; an alias adds its node's values and the merge the node's
            # keys, each at most the node's bound.  It comes after the anchors it may alias.
            items.append(("<<", merged, sum(2 * b for _, b in sources) - 1))
        text, bound = "{" + ", ".join(f"{k}: {t}" for k, t, _ in items) + "}", sum(1 + b for _, _, b in items)
    if draw(st.integers(0, 2)) == 0:
        name = f"a{len(anchors)}"
        anchors[name] = (kind == "map", bound)
        text = f"&{name} {text}"
    return text, bound


@st.composite
def anchored_yaml_streams(draw):
    """A block mapping of such nodes with distinct keys, and now and then ``<<`` keys of anchored
    mappings, or one such node."""
    anchors = {}
    if draw(st.booleans()):
        return draw(_anchored_node(anchors))[0] + "\n"
    lines = [f"{key}: {draw(_anchored_node(anchors))[0]}\n"
             for key in draw(st.lists(st.sampled_from(_DISTINCT_KEYS), min_size=1, max_size=5, unique=True))]
    mappings = sorted(name for name, (is_map, bound) in anchors.items() if is_map and bound <= 3)
    if mappings and draw(st.booleans()):  # after its anchor; its keys still come first
        lines.append(f"<<: *{draw(st.sampled_from(mappings))}\n")
    return "".join(lines)


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=150, deadline=None)
@given(text=anchored_yaml_streams())
def test_anchors_and_merges_build_the_document_yaml_load_builds(loader, text):
    """Anchors of values the builder reads, aliases of them and ``<<`` merges of mappings give
    ``yaml.load``'s document, type for type and key order too: ``yaml_streams()`` draws few such
    documents that both accept, since most of its aliases and merges land on rejected values."""
    loader = getattr(yaml, loader)
    with mock.patch.object(scenario_io, "_YAML_LOADER", loader):
        ours = scenario_io._document(text)
    assert same_document(ours, yaml.load(text, Loader=loader)), text


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize(
    "text, message",
    [
        ("a: 1\nb: {c: [yes, ~, .inf, '1']}\n", None),
        ("a: &x 1\nb: *x\n", None),
        ("a: !!str 1\n", None),
        ("a: ! 1\n", None),
        ("<<: {a: 1}\nb: 2\n", None),
        ("a: 2001-12-14\n", "a !!timestamp value is not supported (line 1, column 4)"),
        ("? [a]\n: 1\n", "a collection key is not supported (line 1, column 3)"),
        ("a: 1\n---\nb: 2\n", "a second document is not supported (line 2, column 1)"),
        ("a: " + "9" * 4301 + "\n", repr("9" * 37 + "...") + " is not a valid !!int (line 1, column 4)"),
        ("a: [1\n", yaml.YAMLError),
        ("", None),
        ("a: !!binary aGk=\n", "a !!binary value is not supported (line 1, column 4)"),
        ("a: !!omap [{b: 1}]\n", "a !!omap collection is not supported (line 1, column 4)"),
        ("a: !!set {b: null}\n", "a !!set collection is not supported (line 1, column 4)"),
        ("a: &r [1, *r]\n", "recursive alias 'r' (line 1, column 11)"),
        ("a: *u\n", "undefined alias 'u' (line 1, column 4)"),
        ("a: &x 1\nb: &x 2\n", "duplicate anchor 'x' (line 2, column 4)"),
        ("a: !!map {b: !!seq [!!int '7', !!float 1, !!bool yes, !!null x]}\n", None),
        ("a: !!str [1]\n", "a !!str collection is not supported (line 1, column 4)"),
        ("a: !custom x\n", "a !custom value is not supported (line 1, column 4)"),
        ("a: !!bool maybe\n", "'maybe' is not a valid !!bool (line 1, column 4)"),
        ("{<<: [{a: 1}, {a: 2, b: 3}], c: 4, <<: {c: 5, d: 6}, e: 7}\n", None),
        ("b: &b {x: 1}\nm: {<<: [*b, {x: 2, y: 3}], y: 4}\n", None),
        ("a: 1\n<<: 1\n", "a << value that is not a mapping or a list of mappings (line 2, column 5)"),
        ("<<: [{a: 1}, [b]]\n", "a << value that is not a mapping or a list of mappings (line 1, column 5)"),
        ("a: <<\n", "a !!merge value is not supported (line 1, column 4)"),
        ("a: !" + "t" * 5000 + " x\n", "a !" + "t" * 39 + " value is not supported (line 1, column 4)"),
        ("a: *" + "u" * 5000 + "\n", f"undefined alias {'u' * 37 + '...'!r} (line 1, column 4)"),
        (f"? {'k' * 5000}\n: 1\n? {'k' * 5000}\n: 2\n", f"duplicate key {'k' * 37 + '...'!r} (line 3, column 3)"),
    ],
    ids=["plain", "alias", "tag", "non-specific-tag", "merge", "timestamp", "complex-key", "two-documents",
         "past-int-digits", "unclosed", "empty", "binary", "omap", "set", "recursive-alias", "undefined-alias",
         "duplicate-anchor", "core-tags", "scalar-tag-on-a-list", "custom-tag", "bool-maybe", "merge-precedence",
         "merge-a-list-of-an-alias", "merge-a-scalar", "merge-a-list-of-a-list", "merge-as-a-value", "long-tag",
         "long-alias", "long-duplicate-key"],
)
def test_events_hand_anchors_tags_and_errors_to_yaml_load(loader, text, message):
    """What the builder reads (``None``) gives ``yaml.load``'s document, types and key order too:
    anchors and aliases, the core scalar tags, ``!!map``/``!!seq`` on their own kind and ``<<``
    merges with pyyaml's precedence.  Anything else is rejected with a message that names the
    construct and where it starts, cut so that it does not grow with the input, and a parser error
    keeps pyyaml's text (``yaml.YAMLError``)."""
    loader = getattr(yaml, loader)
    with mock.patch.object(scenario_io, "_YAML_LOADER", loader):
        ours, error = _outcome(scenario_io._document, text)
    theirs, their_error = _outcome(lambda t: yaml.load(t, Loader=loader), text)
    if message is None:
        assert error is None and their_error is None and same_document(ours, theirs), (error, ours, theirs)
    elif message is yaml.YAMLError:
        assert isinstance(their_error, yaml.YAMLError) and isinstance(error, ScenarioError)
        assert str(error) == "malformed YAML: " + " ".join(str(their_error).split())
    else:
        assert isinstance(error, ScenarioError) and str(error) == "malformed YAML: " + message


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize(
    "text, message",
    [
        ("a: 1\nb: 2\na: 3\n", "duplicate key 'a' (line 3, column 1)"),
        ("a: {c: 1, d: 2, c: 3}\n", "duplicate key 'c' (line 1, column 17)"),
        ("{1: a, 1.0: b}\n", "duplicate key 1.0 (line 1, column 8)"),
        ("{true: a, yes: b}\n", "duplicate key True (line 1, column 11)"),
        ("x: &s 1\nm: {'k': 1, k: 2}\n", "duplicate key 'k' (line 2, column 13)"),
        ("a: " + "[" * 64 + "]" * 64 + "\n", "collections nested deeper than 64 levels (line 1, column 67)"),
        ("a: &x " + "[" * 64 + "]" * 64 + "\n", "collections nested deeper than 64 levels (line 1, column 70)"),
    ],
    ids=["top", "nested", "int-float", "booleans", "after-an-anchor", "deep", "deep-after-an-anchor"],
)
def test_duplicate_keys_and_deep_nesting_are_malformed(loader, text, message):
    """A scalar key given twice in one mapping, compared as a dict compares keys, and a
    collection nested 65 deep are rejected, also in a document with an anchor."""
    with mock.patch.object(scenario_io, "_YAML_LOADER", getattr(yaml, loader)):
        with pytest.raises(ScenarioError) as info:
            scenario_io._document(text)
    assert str(info.value) == "malformed YAML: " + message


def test_merged_keys_overridden_by_explicit_keys_are_not_duplicates():
    text = "base: &b {id: rx-1, beta_db: 3.0}\nrx: {<<: *b, beta_db: 6.0, <<: {x: 1}}\n"
    assert scenario_io._document(text) == yaml.load(text, Loader=yaml.SafeLoader)


def test_map_csv_multiband_order(tmp_path):
    sys_ = dataclasses.replace(region_link_system(hex_side=230.0), grid_spec=small_grid(horizon=2, n_bands=2))
    maps = compute_maps(sys_)
    path = tmp_path / "map.csv"
    write_map_csv(path, maps)
    rows = path.read_text().strip().splitlines()[1:]
    indices = [tuple(int(v) for v in r.split(",")[:3]) for r in rows]
    assert indices == sorted(indices)
    assert len(indices) == maps.grid.cell_count


@pytest.mark.parametrize(
    "quantity, time_index, band_index, error, message",
    [
        ("grid", 0, 0, ValueError, r"^heatmap quantity must be one of \('occupancy', .*\), got 'grid'$"),
        ("theta", 0, 0, ValueError, "heatmap quantity must be one of"),
        ("opportunity", -1, 0, IndexError, "^time index -1 out of range$"),
        ("opportunity", 2, 0, IndexError, "^time index 2 out of range$"),
        ("opportunity", 0, -1, IndexError, "^band index -1 out of range$"),
        ("opportunity", 0, 2, IndexError, "^band index 2 out of range$"),
    ],
    ids=["grid", "theta", "negative-time", "time-past-horizon", "negative-band", "band-past-grid"],
)
def test_heatmap_chunks_reject_a_quantity_or_slice_outside_the_maps(quantity, time_index, band_index, error, message):
    """A quantity outside MAP_FIELDS is a ValueError, as read_map_csv's fields are; a time
    or band outside the grid an IndexError, as for the point queries, not a wrapped index."""
    maps = compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid(horizon=2, n_bands=2)))
    with pytest.raises(error, match=message):
        next(heatmap_chunks(maps, quantity, time_index, band_index))


def test_heatmap_matrix_shape():
    sys_ = region_link_system(hex_side=230.0)
    maps = compute_maps(sys_)
    text = "".join(heatmap_chunks(maps, "opportunity", 0, 0))
    rows = text.strip().splitlines()
    assert len(rows) == maps.grid.row_count
    widths = {len(r.split()) for r in rows}
    assert len(widths) == 1  # rectangular, nan-padded
    total = sum(1 for r in rows for v in r.split() if v != "nan")
    assert total == maps.grid.region_count


def test_read_map_csv_reads_a_bounded_first_line(tmp_path):
    """A 20 MB file with no newline is rejected without its line being held
    (the whole line was read first, a 40 MB peak), and so is the header padded
    past the 1,024 characters read."""
    import tracemalloc

    path = tmp_path / "line.csv"
    path.write_text("x" * 20_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=r"^unexpected map CSV header: 'x{37}\.\.\.'$"):
            read_map_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid())))
    header, rest = path.read_text().split("\n", 1)
    for padding, accepted in ((1023 - len(header) - 1, True), (1023 - len(header), False)):
        path.write_text(header + " " * padding + "\n" + rest)
        if accepted:
            assert read_map_csv(path)["occupancy"].size
        else:
            with pytest.raises(ScenarioError, match=f"^unexpected map CSV header: {re.escape(repr(header[:37] + '...'))}$"):
                read_map_csv(path)


@pytest.mark.parametrize("header", ["", "region,time,band", MAP_CSV_HEADER.replace("liability", "phi")])
def test_read_map_csv_rejects_an_unexpected_header(tmp_path, header):
    path = tmp_path / "map.csv"
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid())))
    rows = path.read_text().splitlines()[1:]
    path.write_text("\n".join([header] + rows) + "\n")
    shown = header if len(header) <= 40 else header[:37] + "..."  # the 129-character header is cut
    with pytest.raises(ScenarioError, match=f"^unexpected map CSV header: {re.escape(repr(shown))}$"):
        read_map_csv(path)
