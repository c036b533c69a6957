"""The CLI's contract over generated scenario files.

The strategy walks the scenario schema table (``scenario_io._SCENARIO`` and
the sections below it) over the six demo documents and changes one key:
it drops it, or sets it (present or not) to a value of another YAML type.
Every such file must end each command (``point``, ``map``, ``report``,
``entity --id system``, ``sweep``, ``connectivity`` and simulated ``smf``,
one drawn per file) with exit 0, 2 or 3 and no traceback; a failure prints
exactly one JSON line on stderr, a successful ``report`` a conservation
residual of at most 1e-9.  So must every demo with an empty list for one
list-valued key, every demo with one receiver moved onto a transmitter, and
every demo with two faults in two sections, where the error names the one
that comes first in the file.  A key of a demo set to a value of the wrong
type is named in the parser's error.
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
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from muse import scenario_io as S
from muse.cli import main
from muse.grid import MAX_CELLS
from muse.model import validate_system

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


def mutate(draw, doc, path, key, present) -> str:
    """Drop ``key`` at ``path`` of ``doc``, or set it to a drawn value; returns what changed."""
    node = doc
    for step in path:
        node = node[step]
    if present and draw(st.booleans()):
        del node[key]
        return f"drop {key}"
    node[key] = draw(VALUES)
    return f"{key} = {node[key]!r}"


def small_enough(doc) -> bool:
    """Grids this fine take seconds to evaluate; MAX_CELLS rejects the far finer ones at once."""
    return region_count(doc) <= 20_000 or region_count(doc) > 4 * MAX_CELLS


@st.composite
def mutated_demos(draw):
    name = draw(st.sampled_from(sorted(DEMOS)))
    doc = copy.deepcopy(DEMOS[name])
    path, key, present = draw(st.sampled_from(list(keys_in(S._SCENARIO, doc))))
    change = mutate(draw, doc, path, key, present)
    assume(small_enough(doc))
    return name, path, change, yaml.safe_dump(doc, sort_keys=False)


# Each command's arguments after ``--scenario``, given the directory its files go to.
COMMANDS = {
    "point": lambda out: ["point", "--x", "0", "--y", "0", "--out", str(out / "point.json")],
    "map": lambda out: ["map", "--out", str(out / "map.csv"), "--heatmap", "opportunity"],
    "report": lambda out: ["report"],
    "entity": lambda out: ["entity", "--id", "system"],
    "sweep": lambda out: ["sweep", "--hex-sides", "250"],
    "connectivity": lambda out: ["connectivity", "--beta-db", "10", "--out", str(out / "edges.csv")],
    "smf": lambda out: ["smf", "--p-missed", "0.1", "--false-positives", "1", "--geo-sigma", "20", "--seed", "3"],
}


def run_cli(command: str, scenario: Path, text: str, *context):
    """``muse COMMAND`` on ``text`` ends with exit 0, 2 or 3, and not in a
    traceback: a failure prints exactly one JSON line on stderr, a successful
    ``report`` a residual of at most 1e-9.  Returns the exit code and the error."""
    scenario.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([*COMMANDS[command](scenario.parent), "--scenario", str(scenario)], standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (command, *context, code)
    if not code:
        assert err.getvalue() == "", (command, *context)
        if command == "report":
            residual = re.search(r"conservation residual: +(\S+) \(relative\)", out.getvalue())
            assert float(residual.group(1)) <= 1e-9, (*context, out.getvalue())
        return code, None
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, (command, *context, lines)
    error = json.loads(lines[0])
    assert error.keys() == {"error", "exit_code"} and error["exit_code"] == code
    return code, error["error"]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_demos(), command=st.sampled_from(sorted(COMMANDS)))
def test_every_command_on_generated_scenarios_keeps_the_cli_contract(tmp_path, case, command):
    name, path, change, text = case
    event(f"{command} exit {run_cli(command, tmp_path / 'scenario.yaml', text, name, path, change)[0]}")


# The keys whose readers take a list (``noise_dbm`` takes one per band as well as one number).
LIST_KEYS = {"networks", "links", "transmitters", "receivers", "bands", "noise_overrides", "position", "offset_m",
             "active", "noise_dbm"}


def test_an_empty_list_for_every_list_valued_key_keeps_the_cli_contract(tmp_path):
    """Each list-valued key of each demo, present or not, set to ``[]``; the
    commands take the files in turn."""
    cases = [(name, path, key) for name, demo in DEMOS.items() for path, key, _ in keys_in(S._SCENARIO, demo)
             if key in LIST_KEYS]
    codes = []
    for (name, path, key), command in zip(cases, itertools.cycle(sorted(COMMANDS))):
        doc = copy.deepcopy(DEMOS[name])
        node = doc
        for step in path:
            node = node[step]
        node[key] = []
        codes.append(run_cli(command, tmp_path / "scenario.yaml", yaml.safe_dump(doc, sort_keys=False), name, path, key)[0])
    assert len(codes) == 120 and set(codes) == {0, 2}


def fault(text: str) -> str | None:
    """The error ``text`` ends in on the command line, before any command runs; None if it is valid."""
    try:
        system = S.parse_scenario(text)
    except S.ScenarioError as exc:
        return f"malformed scenario: {exc}"
    report = validate_system(system)
    return None if report.ok else "invalid scenario: " + "; ".join(report.violations)


@st.composite
def demos_with_two_faults(draw):
    """A demo with a malformed key in one top-level section and a second fault,
    of any kind, in a later one; the file keeps the demo's key order."""
    name = draw(st.sampled_from(sorted(DEMOS)))
    sections = list(DEMOS[name])
    keys = [k for k in keys_in(S._SCENARIO, DEMOS[name]) if k[0]]  # inside a section, not the section itself
    first = draw(st.sampled_from([k for k in keys if k[0][0] != keys[-1][0][0]]))
    second = draw(st.sampled_from([k for k in keys if sections.index(k[0][0]) > sections.index(first[0][0])]))
    one, two = copy.deepcopy(DEMOS[name]), copy.deepcopy(DEMOS[name])
    changes = mutate(draw, one, *first), mutate(draw, two, *second)
    both = {**one, second[0][0]: two[second[0][0]]}
    assume(small_enough(one) and small_enough(two))
    first_error, second_error = (fault(yaml.safe_dump(doc, sort_keys=False)) for doc in (one, two))
    assume(first_error and first_error.startswith("malformed scenario: ") and second_error)
    return name, changes, first_error, yaml.safe_dump(both, sort_keys=False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=demos_with_two_faults(), command=st.sampled_from(sorted(COMMANDS)))
def test_two_faults_end_in_the_error_of_the_first(tmp_path, case, command):
    """The parser reads the sections in file order and stops at the first
    malformed one, so a later fault, malformed or invalid, does not hide it."""
    name, changes, first_error, text = case
    assert run_cli(command, tmp_path / "scenario.yaml", text, name, changes) == (2, first_error)


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
            codes.append(run_cli("report", tmp_path / "scenario.yaml", yaml.safe_dump(doc), name, rx["id"], position)[0])
    assert len(codes) == 29 and set(codes) <= {0, 2}


# The keys whose errors name another place: the version has a message of its
# own, and the antenna's constructor reports an unknown kind at the antenna.
UNNAMED = {"muse_scenario", "kind"}


def test_an_error_names_its_key():
    """Each key of each demo, set to a list of a list (a wrong type for every
    key), ends in an error at ``….<key>`` or, for a list's item, ``….<key>[k]``."""
    unnamed = set()
    for demo in DEMOS.values():
        for path, key, present in keys_in(S._SCENARIO, demo):
            if not present:
                continue
            doc = copy.deepcopy(demo)
            node = doc
            for step in path:
                node = node[step]
            node[key] = [[1]]
            with pytest.raises(S.ScenarioError) as info:
                S.parse_scenario(yaml.safe_dump(doc, sort_keys=False))
            if not re.match(rf"([^:]*\.)?{re.escape(key)}(\[\d+\])?: ", str(info.value)):
                unnamed.add(key)
    assert unnamed == UNNAMED


def test_the_walk_reaches_every_key_of_the_demos():
    def keys(node):
        if isinstance(node, dict):
            return set(node) | {k for v in node.values() for k in keys(v)}
        return {k for v in node for k in keys(v)} if isinstance(node, list) else set()

    reached = {key for doc in DEMOS.values() for _, key, present in keys_in(S._SCENARIO, doc) if present}
    assert reached == {key for doc in DEMOS.values() for key in keys(doc)}
