"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Checks that:

* one command per workload and mode prints, as its last line, the result
  object with every metric of BENCHMARK.json by name and unit, all ops
  correct;
* every per-layer metric has its entry in ``layers.json``;
* an op whose output is corrupted after the program wrote it is counted
  as a failure, for every workload and every kind of output it checks,
  also where the corruption keeps every conservation identity;
* the reference model's lattices have the region counts recorded in
  ``scenarios.SHAPES`` and ``scenarios.TINY_SHAPES``;
* the same op writes byte-identical outputs twice;
* a directory holding only BENCHMARK.json and the benchmark exits non-zero
  without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import reference
import run
import scenarios
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((run.BENCH_DIR / "layers.json").read_text())


def _edit(path: Path, old: str, new: str):
    text = path.read_text()
    if old not in text:
        raise AssertionError(f"{path.name}: {old!r} not found")
    path.write_text(text.replace(old, new, 1))


def _replace_line(path: Path, line_no: int, transform):
    lines = path.read_text().splitlines()
    lines[line_no] = transform(lines[line_no])
    path.write_text("\n".join(lines) + "\n")


def _field(index: int, change):
    """A line transform applying ``change`` to one numeric CSV field."""
    def transform(line: str) -> str:
        fields = line.split(",")
        fields[index] = repr(change(float(fields[index])))
        return ",".join(fields)

    return transform


def _json_field(path: Path, key: str, value):
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))


def _wrong_best_band(path: Path, bands: int = 3):
    """Give the first pair's rows a best band that is not the argmax."""
    lines = path.read_text().splitlines()
    for k in range(1, 1 + bands):
        fields = lines[k].split(",")
        fields[6] = "0" if fields[6] == "" else ""
        lines[k] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _drop_line(path: Path, line_no: int):
    lines = path.read_text().splitlines()
    del lines[line_no]
    path.write_text("\n".join(lines) + "\n")


def _shift_fields(line: str, up: int, down: int, share: float = 0.01) -> str:
    """Move ``share`` of field ``up``'s value from field ``down`` to it, keeping their sum."""
    fields = line.split(",")
    delta = share * float(fields[up])
    fields[up] = repr(float(fields[up]) + delta)
    fields[down] = repr(float(fields[down]) - delta)
    return ",".join(fields)


def _shift_json(path: Path, up: str, down: str, share: float = 0.01):
    payload = json.loads(path.read_text())
    delta = share * payload[up]
    payload[up] += delta
    payload[down] -= delta
    path.write_text(json.dumps(payload))


def _scale_entity(path: Path, entity: str, factor: float):
    payload = json.loads(path.read_text())
    payload["entity_consumption"][entity] *= factor
    path.write_text(json.dumps(payload))


def _swap_slices(path: Path):
    """Give every region's slices (t0, b0) and (t1, b0) each other's values."""
    lines = path.read_text().splitlines()
    first, second = {}, {}
    for k, line in enumerate(lines[1:], 1):
        region, tau, nu = line.split(",")[:3]
        if nu == "0" and tau in ("0", "1"):
            (first if tau == "0" else second)[region] = k
    for region, k in first.items():
        a, b = lines[k].split(","), lines[second[region]].split(",")
        lines[k], lines[second[region]] = ",".join(a[:5] + b[5:]), ",".join(b[:5] + a[5:])
    path.write_text("\n".join(lines) + "\n")


# One or more corruptions per workload, each breaking one checked property.
# Those marked "value" keep every conservation identity and are caught only
# by comparison with the reference model.
CORRUPTIONS = {
    "field_report": [
        lambda out: _json_field(out / "report.json", "conservation_residual", 1e-6),
        lambda out: _edit(out / "report.json", '"rx-0"', '"rx-x"'),
        lambda out: _shift_json(out / "report.json", "psi_utilized", "psi_available"),  # value
        lambda out: _scale_entity(out / "report.json", "rx-1", 1.001),  # value
    ],
    "fine_sweep": [
        lambda out: _replace_line(out / "sweep.csv", 1, _field(5, lambda v: v * 1.01)),
        lambda out: _replace_line(out / "sweep.csv", 2, _field(1, lambda v: v * 2.0)),
        lambda out: _replace_line(out / "sweep.csv", 1, lambda line: _shift_fields(line, 3, 5)),  # value
        lambda out: _replace_line(out / "sweep.csv", 2, lambda line: _shift_fields(line, 4, 5)),  # value
    ],
    "map_export": [
        lambda out: _replace_line(out / "map.csv", 1, _field(5, lambda v: v + 1e-9)),
        lambda out: _replace_line(out / "map.csv", 1, lambda line: line.replace("0,0,0,", "1,0,0,", 1)),
        lambda out: (out / "map-opportunity-t0b0.mat").unlink(),
        lambda out: _json_field(out / "smf.json", "lost_available", 1.0),
        lambda out: _replace_line(out / "map.csv", 5, lambda line: _shift_fields(line, 5, 8, 1e-6)),  # value
        lambda out: _swap_slices(out / "map.csv"),  # value
        lambda out: _shift_json(out / "smf.json", "recovered_available", "lost_available", 1e-3),  # value
    ],
    "campus_connectivity": [
        lambda out: _wrong_best_band(out / "edges.csv"),
        lambda out: _drop_line(out / "edges.csv", 1),
        lambda out: _replace_line(out / "edges.csv", 2, _field(4, lambda v: v + 0.5)),  # value
    ],
}


def check_command(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, f"{workload} trace {trace}: metrics {printed} != {expected}"
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{name} = {value!r}"


def check_region_counts():
    for shape in (*scenarios.SHAPES.values(), *scenarios.TINY_SHAPES.values()):
        counts = tuple(len(reference.lattice(shape.width_m, shape.height_m, side)) for side in shape.sides)
        assert counts == shape.region_counts, f"{shape}: lattice has {counts} regions"


def check_layers_documented():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names == set(LAYERS["metrics"]), names ^ set(LAYERS["metrics"])


def check_corruption_counted(workload: str, work: Path):
    runner = run.Runner(workload, 5, True, work)
    check = runner.workload.check
    doc = runner.scenario(1).doc
    for k, corrupt in enumerate(CORRUPTIONS[workload]):
        out = work / f"op-{k}"
        runner.run_op(1, out, out, check=False)
        check(out, out, doc)  # the uncorrupted output passes
        corrupt(out)
        try:
            check(out, out, doc)
        except (workloads.CheckFailed, OSError, ValueError) as exc:
            print(f"  {workload} corruption {k}: caught ({type(exc).__name__}: {exc})")
        else:
            raise AssertionError(f"{workload}: corruption {k} passed the check")

    # Through the measuring loop: every op, warm-up included, must count as failed.
    runner = run.Runner(workload, 5, True, work / "loop")
    runner.workload.check = lambda out, prev, doc: (CORRUPTIONS[workload][0](out), check(out, prev, doc))
    _, detail = run.measure_untraced(runner, 0.2)
    ops = len(detail["op_seconds"]) + 1
    assert len(runner.failures) == ops, f"{workload}: {len(runner.failures)} failures for {ops} corrupted ops"


def check_deterministic(work: Path):
    for workload in workloads.WORKLOADS:
        runner = run.Runner(workload, 5, True, work / workload)
        digests = []
        for k in range(2):
            out = work / workload / f"op-{k}"
            digests.append(runner.run_op(1, out, out)[-1])
        assert digests[0] is not None and digests[0] == digests[1], f"{workload}: {digests}"


def check_empty_directory(work: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, work / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "field_report", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_layers_documented()
        check_region_counts()
        print("ok: reference lattices have the recorded region counts")
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check_command(workload, trace)
                print(f"ok: {workload} --trace {trace} prints every metric with its unit")
        for workload in workloads.WORKLOADS:
            check_corruption_counted(workload, work / "corrupt" / workload)
            print(f"ok: {workload} corrupted outputs are counted as failures")
        check_deterministic(work / "digests")
        print("ok: repeated ops write identical bytes")
        (work / "empty").mkdir()
        check_empty_directory(work / "empty")
        print("ok: without the program the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
