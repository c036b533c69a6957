"""The CLI's contract over generated scenario files.

The strategy walks the scenario schema table (``scenario_io._SCENARIO`` and
the sections below it) over the six demo documents and changes one key:
it drops it, or sets it (present or not) to a value of another YAML type.
Every such file must end ``muse report`` with exit 0, 2 or 3; a failure
prints exactly one JSON line on stderr, a success a conservation residual
of at most 1e-9.  So must every demo with one receiver moved onto a
transmitter.
"""

import contextlib
import copy
import io
import itertools
import json
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from muse import scenario_io as S
from muse.cli import main
from muse.grid import MAX_CELLS

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
DEMOS = {p.name: yaml.safe_load(p.read_text()) for p in sorted(SCENARIOS.glob("*.yaml"))}

# The section of each mapping-valued key, or of the elements of a list- or
# mapping-valued one; the table's readers hold these in closures.
CHILDREN = {
    S._SCENARIO: {"system": S._SYSTEM, "propagation": S._PROPAGATION, "grid": S._GRID, "networks": S._NETWORK},
    S._SYSTEM: {"noise_overrides": S._NOISE_OVERRIDE},
    S._PROPAGATION: {"band_overrides": S._BAND_OVERRIDE},
    S._GRID: {"bands": S._BAND, "sample_point_policy": S._OFFSET},
    S._NETWORK: {"links": S._LINK},
    S._LINK: {"transmitter": S._TX, "transmitters": S._TX, "receivers": S._RX},
    S._TX: {"antenna": S._ANTENNA},
    S._RX: {"antenna": S._ANTENNA},
}

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 7, 10**30]),
    st.sampled_from([1e308, 5e-324, -1.0, 0.0, 0.5, 1e-3, 250.0, math.inf, math.nan]),
    st.sampled_from(["", "x", "all", "omni", "centroid", "sector", "1"]),
    st.sampled_from([[], [0], [1, 2], [1.0, 2.0], ["a"], [[1]]]),
    st.sampled_from([{}, {"a": 1}, {"kind": "sector"}, {"offset_m": [1.0, 2.0]}, {1: {"alpha": 3.0}}]),
    st.just([{"region": 0, "band": 0, "noise_dbm": -90.0}]),
)


def keys_in(section, doc, path=()):
    """(path, key, present) for every key of ``section``'s table at ``doc``, and below it."""
    if not isinstance(doc, dict):
        return
    for entry in section.keys:
        yield path, entry.key, entry.key in doc
        child = CHILDREN.get(section, {}).get(entry.key)
        value = doc.get(entry.key)
        if child is None or value is None:
            continue
        if isinstance(value, list):
            for k, item in enumerate(value):
                yield from keys_in(child, item, path + (entry.key, k))
        elif isinstance(value, dict) and child is S._BAND_OVERRIDE:
            for k, item in value.items():
                yield from keys_in(child, item, path + (entry.key, k))
        else:
            yield from keys_in(child, value, path + (entry.key,))


def region_count(doc) -> float:
    """The grid's regions as ``GridSpec`` estimates them, or 0 where the grid is not a positive number triple."""
    grid = doc.get("grid")
    sides = [grid.get(k) for k in ("width_m", "height_m", "hex_side_m")] if isinstance(grid, dict) else []
    if len(sides) < 3 or not all(type(v) in (int, float) and v > 0 for v in sides):
        return 0.0
    width, height, hex_side = (float(v) for v in sides)
    return (width / hex_side) * (height / hex_side) / (1.5 * math.sqrt(3.0))


@st.composite
def mutated_demos(draw):
    name = draw(st.sampled_from(sorted(DEMOS)))
    doc = yaml.safe_load(yaml.safe_dump(DEMOS[name]))
    path, key, present = draw(st.sampled_from(list(keys_in(S._SCENARIO, doc))))
    node = doc
    for step in path:
        node = node[step]
    if present and draw(st.booleans()):
        del node[key]
        change = f"drop {key}"
    else:
        node[key] = draw(VALUES)
        change = f"{key} = {node[key]!r}"
    # Grids this fine take seconds to evaluate; MAX_CELLS rejects the far finer ones at once.
    assume(region_count(doc) <= 20_000 or region_count(doc) > 4 * MAX_CELLS)
    return name, path, change, yaml.safe_dump(doc)


def assert_report_keeps_the_contract(scenario: Path, text: str, *context):
    """``muse report`` on ``text`` ends with exit 0, 2 or 3: a failure prints
    exactly one JSON line on stderr, a success a residual of at most 1e-9."""
    scenario.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(["report", "--scenario", str(scenario)], standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (*context, code)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (*context, lines)
        assert json.loads(lines[0]).keys() == {"error", "exit_code"}
        assert json.loads(lines[0])["exit_code"] == code
    else:
        assert err.getvalue() == ""
        residual = re.search(r"conservation residual: +(\S+) \(relative\)", out.getvalue())
        assert float(residual.group(1)) <= 1e-9, (*context, out.getvalue())
    return code


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_demos())
def test_report_on_generated_scenarios_keeps_the_cli_contract(tmp_path, case):
    name, path, change, text = case
    assert_report_keeps_the_contract(tmp_path / "scenario.yaml", text, name, path, change)


@pytest.mark.parametrize("worst_case", [False, True], ids=["as-placed", "worst-case"])
def test_coincident_transceivers_keep_the_cli_contract(tmp_path, worst_case):
    """Every receiver of every demo moved onto each transmitter, its own or
    another link's: zero separation must not end in a traceback."""
    codes = []
    for name, demo in DEMOS.items():
        links = [link for net in demo["networks"] for link in net["links"]]
        receivers = [(k, r) for k, link in enumerate(links) for r in range(len(link.get("receivers", [])))]
        transmitters = [link["transmitter"]["position"] for link in links if "transmitter" in link]
        for (k, r), position in itertools.product(receivers, transmitters):
            doc = copy.deepcopy(demo)
            rx = [link for net in doc["networks"] for link in net["links"]][k]["receivers"][r]
            rx["position"] = list(position)
            doc["grid"]["worst_case_placement"] = worst_case
            codes.append(assert_report_keeps_the_contract(tmp_path / "scenario.yaml", yaml.safe_dump(doc), name, rx["id"], position))
    assert len(codes) == 29 and set(codes) <= {0, 2}


def test_the_walk_reaches_every_key_of_the_demos():
    def keys(node):
        if isinstance(node, dict):
            return set(node) | {k for v in node.values() for k in keys(v)}
        return {k for v in node for k in keys(v)} if isinstance(node, list) else set()

    reached = {key for doc in DEMOS.values() for _, key, present in keys_in(S._SCENARIO, doc) if present}
    assert reached == {key for doc in DEMOS.values() for key in keys(doc)}
