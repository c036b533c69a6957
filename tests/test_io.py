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
from muse import cli, scenario_io
from muse.consumption import ConsumptionMaps
from muse.scenario_io import MAP_CSV_HEADER, heatmap_text

from helpers import assert_same_text, region_link_system, small_grid
from test_consumption import generated_systems
import dataclasses

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

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
# writers gave the shortest exact decimal): key order, omitted defaults and
# unit conversions of the writer are all pinned.
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
        transmitters:
          - {id: tx-2, position: [10.0, 20.0], power_dbm: -30.0, antenna: {kind: omni}}
          - {id: tx-3, position: [30.0, 40.0], power_dbm: -31.0}
  - id: net-2
    links:
      - id: observatory
        transmitter: null
        receivers:
          - {id: rx-9, position: [300.0, 400.0], beta_db: 1.0, margin_dbm: -90.0}
      - id: empty
"""
EVERY_KEY_SERIALIZED_SHA256 = "6a208cb0fe826ddd0497c8d7f2dc5f3065d11a2dc9de99f4081e4b735699e05d"


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
    assert np.array_equal(loaded["opportunity_map"].values, maps.opportunity)

    write_map_csv(tmp_path / "again.csv", compute_maps(sys_))
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def _cut_row(rows):
    rows[3] = ",".join(rows[3].split(",")[:5])


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
    ids=["cut-row", "negative-index", "duplicate-row", "nan", "infinite", "malformed",
         "fractional-index", "exponent-index", "comment-row", "header-only", "missing-row", "extra-region",
         "stray-centroid"],
)
def test_read_map_csv_rejects_bad_rows(tmp_path, mutate, message):
    path = tmp_path / "map.csv"
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid(n_bands=2))))
    header, *rows = path.read_text().splitlines()
    mutate(rows)
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ScenarioError, match=message):
        read_map_csv(path)


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
        cx, cy = grid.centroids[chi]
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
    with mock.patch.object(scenario_io, "_CSV_CHUNK_ROWS", chunk_rows):
        write_map_csv(path, maps)
        for tau in range(maps.grid.horizon):
            for nu in range(maps.grid.band_count):
                expected = reference_heatmap_text(maps, "raw_opportunity", tau, nu)
                assert_same_text(heatmap_text(maps, "raw_opportunity", tau, nu), expected)
                cli._write(str(mat), scenario_io._heatmap_chunks(maps, "raw_opportunity", tau, nu))  # as `muse map --heatmap`
                assert_same_text(mat.read_bytes().decode("utf-8"), expected)
    assert_same_text(path.read_bytes().decode("utf-8"), reference_map_csv_text(maps))

    loaded = read_map_csv(path)
    for name in ("occupancy", "opportunity", "raw_opportunity", "liability"):
        assert loaded[name].tobytes() == getattr(maps, name).tobytes()
    assert loaded["centroids"].tobytes() == maps.grid.centroids.tobytes()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml built without libyaml")
def test_yaml_loaders_build_the_same_scenario():
    texts = [SCENARIO_TEXT] + [p.read_text() for p in sorted(SCENARIOS.glob("*.yaml"))]
    for text in texts:
        with mock.patch.object(scenario_io, "_YAML_LOADER", yaml.SafeLoader):
            pure = parse_scenario(text)
        with mock.patch.object(scenario_io, "_YAML_LOADER", yaml.CSafeLoader):
            libyaml = parse_scenario(text)
        assert pure == libyaml


def test_map_csv_multiband_order(tmp_path):
    sys_ = dataclasses.replace(region_link_system(hex_side=230.0), grid_spec=small_grid(horizon=2, n_bands=2))
    maps = compute_maps(sys_)
    path = tmp_path / "map.csv"
    write_map_csv(path, maps)
    rows = path.read_text().strip().splitlines()[1:]
    indices = [tuple(int(v) for v in r.split(",")[:3]) for r in rows]
    assert indices == sorted(indices)
    assert len(indices) == maps.grid.cell_count


def test_heatmap_matrix_shape():
    sys_ = region_link_system(hex_side=230.0)
    maps = compute_maps(sys_)
    text = heatmap_text(maps, "opportunity", 0, 0)
    rows = text.strip().splitlines()
    assert len(rows) == maps.grid.row_count
    widths = {len(r.split()) for r in rows}
    assert len(widths) == 1  # rectangular, nan-padded
    total = sum(1 for r in rows for v in r.split() if v != "nan")
    assert total == maps.grid.region_count


@pytest.mark.parametrize("header", ["", "region,time,band", MAP_CSV_HEADER.replace("liability", "phi")])
def test_read_map_csv_rejects_an_unexpected_header(tmp_path, header):
    path = tmp_path / "map.csv"
    write_map_csv(path, compute_maps(dataclasses.replace(region_link_system(), grid_spec=small_grid())))
    rows = path.read_text().splitlines()[1:]
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ScenarioError, match=f"^unexpected map CSV header: {re.escape(repr(header))}$"):
        read_map_csv(path)
