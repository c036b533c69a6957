"""Benchmark of the ``muse`` command line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is one closed-loop client in one process: it generates the
scenario of op ``i`` from ``(workload, seed, i)``, runs the op's CLI
commands in-process through ``muse.cli.main(args, standalone_mode=False)``
(the path a user's command takes), checks every output and only then
starts the next op.  Op 0 warms caches and lazy imports and is not
timed.  The program is imported from ``src/`` of the checkout; without
it the benchmark exits with code 1 before running anything.

Times are reported at reference speed: shared hosts change speed by up
to 1.6x for tens of seconds at a time, so every op's wall time is
scaled by ``REFERENCE_S`` over the time of a fixed probe kernel run just
before and just after it (``reference_seconds``).  Wall times are kept in
``result.json``.

``--trace 0`` measures the end-to-end metrics untraced:

* ``op_s_p50``, ``op_s_p75``  seconds per op over the timed ops;
* ``cells_per_s``   grid cells evaluated (regions x quanta x bands,
  summed over sweep sides) per op-second;
* ``peak_rss_mb``   peak resident set of a separate process that runs
  ops 0 and 1 of the workload and nothing else;
* ``setup_s``       median wall time of fresh interpreters that import
  ``muse.cli`` and run the workload's command on its committed demo
  scenario.

``--trace 1`` reports the per-layer metrics.  Each op index is run three
ways, in rotating order: untraced, traced (see ``tracing.py``), and
untraced with ``MUSE_THREADS=1``.  Layer times and counts are per traced
op; ``trace.overhead_ratio`` and ``consumption.thread_speedup`` compare
op_s_p50 of the three.  All three runs of an op must write identical
bytes.

The last line of standard output is the result object: ``correct``,
``attempted`` (checked program runs: ops, warm-up and set-up runs),
``failed`` (runs that raised, exited non-zero or failed their output
check) and ``metrics``, with names and units from BENCHMARK.json.  The
line before it summarises the run; per-op times and output SHA-256
digests go to ``.bench_work/runs/<run>/result.json``, and traced spans
to ``spans.jsonl.gz`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 15
# Seconds the reference kernel takes on the machine the baseline was
# recorded on (2 vCPUs at 2.1 GHz, unloaded); times are reported at that speed.
REFERENCE_S = 0.008

sys.path.insert(0, str(BENCH_DIR))
import scenarios  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import ``muse`` from the checkout's ``src/``, and only from there."""
    if not (SRC / "muse" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC / 'muse'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import muse.cli

    if Path(muse.cli.__file__).resolve().parent != (SRC / "muse").resolve():
        raise SystemExit(f"benchmark: imported muse from {muse.cli.__file__}, not from {SRC}")
    return muse.cli.main


class Runner:
    """Runs, checks and digests the ops of one workload."""

    def __init__(self, workload: str, seed: int, tiny: bool, work: Path):
        self.main = import_program()
        self.name, self.seed, self.tiny, self.work = workload, seed, tiny, work
        shape = (scenarios.TINY_SHAPES if tiny else scenarios.SHAPES)[workload]
        self.workload = workloads.WORKLOADS[workload](shape)
        self.attempted = 0
        self.failures: list[str] = []

    def scenario(self, index: int) -> scenarios.Scenario:
        return scenarios.generate(self.name, self.seed, index, self.tiny)

    def execute(self, commands: list[list[str]]):
        """Run CLI commands in-process, their stdout kept off the benchmark's."""
        with contextlib.redirect_stdout(io.StringIO()):
            for args in commands:
                try:
                    self.main(args, standalone_mode=False)
                except SystemExit as exc:
                    if exc.code not in (0, None):
                        raise RuntimeError(f"muse {args[0]} exited with code {exc.code}") from None

    def run_op(self, index: int, out: Path, prev: Path, tracer=None, threads: str | None = None, check=True):
        """Run op ``index`` into ``out``.

        Returns (seconds at reference speed, wall seconds, digest or None).
        """
        out.mkdir(parents=True)
        scenario = self.scenario(index)
        scenario_path = out / "scenario.yaml"
        scenario_path.write_text(scenario.text, encoding="utf-8")
        commands = self.workload.commands(str(scenario_path.relative_to(ROOT)), out.relative_to(ROOT),
                                          prev.relative_to(ROOT))
        self.attempted += 1
        traced = tracer.op(index) if tracer is not None else contextlib.nullcontext()
        failure = None
        gc.collect()  # start every op from the same heap state
        probe = reference_seconds()
        if threads is not None:
            os.environ["MUSE_THREADS"] = threads
        start = time.perf_counter()
        try:
            with traced:
                self.execute(commands)
        except Exception as exc:  # the loop must go on: the failure is counted below
            failure = exc
        finally:
            seconds = time.perf_counter() - start
            os.environ.pop("MUSE_THREADS", None)
        scaled = seconds * 2.0 * REFERENCE_S / (probe + reference_seconds())
        if failure is None and check:
            try:
                self.workload.check(out, prev, scenario.doc)
            except Exception as exc:  # a malformed output may raise anything while parsed
                failure = exc
        if failure is not None:
            self.failures.append(f"op {index}: {type(failure).__name__}: {failure}")
            if isinstance(failure, workloads.CheckFailed):
                print(f"benchmark: op {index} failed its check: {failure}", file=sys.stderr)
            else:
                traceback.print_exception(failure, file=sys.stderr)
            return scaled, seconds, None
        return scaled, seconds, digest(out)

    def setup_seconds(self, runs: int) -> list[float]:
        """Time at reference speed of fresh interpreters running the command on the demo scenario."""
        out = self.work / "setup"
        out.mkdir()
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from muse.cli import main; "
                f"[main(a, standalone_mode=False) for a in {self.workload.setup_commands(out.relative_to(ROOT))!r}]")
        times = []
        for _ in range(runs):
            self.attempted += 1
            probe = reference_seconds()
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            seconds = time.perf_counter() - start
            times.append(seconds * 2.0 * REFERENCE_S / (probe + reference_seconds()))
            if proc.returncode != 0:
                self.failures.append(f"set-up run exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return times

    def peak_rss_mb(self) -> float:
        """Peak RSS of a separate process that runs ops 0 and 1 and nothing else."""
        code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
                f"run.rss_probe({self.name!r}, {self.seed}, {self.tiny}, {str(self.work / 'rss')!r})")
        self.attempted += 1
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            self.failures.append(f"rss probe exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return 0.0
        return float(proc.stdout.split()[-1])


def reference_seconds() -> float:
    """Wall time of a fixed interpreter-and-numpy kernel: a probe of the machine's current speed.

    Speed changes on a shared host last longer than a run, so no number
    of ops in one run averages them out; scaling by this probe does.
    """
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(25000):
        total += math.sqrt(i) * 0.5
        table[i % 97] = total
    values = np.linspace(0.0, 1.0, 100_000)
    for _ in range(5):
        values = np.sin(values) * 1.0001 + 0.5
    return time.perf_counter() - start


def digest(out: Path) -> str:
    """SHA-256 over the names and bytes of every file an op wrote."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.name != "scenario.yaml"):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def rss_probe(workload: str, seed: int, tiny: bool, work: str):
    """Entry point of the peak-RSS process: ops 0 and 1, then its peak RSS in MB.

    The peak is VmHWM of the process's own address space: ru_maxrss would
    also count the resident set of the parent the process was spawned from.
    """
    runner = Runner(workload, seed, tiny, Path(work))
    prev = runner.work / "op-0"
    for index in (0, 1):
        runner.run_op(index, runner.work / f"op-{index}", prev, check=False)
    if runner.failures:
        raise SystemExit("; ".join(runner.failures))
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(peak_kb / 1024.0)


def p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def measure_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    prev = runner.work / "op-0"
    runner.run_op(0, prev, prev)
    setup = runner.setup_seconds(1 if runner.tiny else SETUP_RUNS)

    times, wall, digests = [], [], {}
    deadline = time.perf_counter() + seconds
    index = 1
    while index == 1 or time.perf_counter() < deadline:
        out = runner.work / f"op-{index}"
        seconds_op, wall_op, digests[index] = runner.run_op(index, out, prev)
        times.append(seconds_op)
        wall.append(wall_op)
        shutil.rmtree(prev)
        prev, index = out, index + 1

    metrics = {
        "op_s_p50": statistics.median(times),
        "op_s_p75": p75(times),
        "cells_per_s": runner.workload.cells_per_op * len(times) / sum(times),
        "peak_rss_mb": runner.peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    return metrics, {"op_seconds": times, "op_wall_seconds": wall, "setup_seconds": setup, "digests": digests}


VARIANTS = ("plain", "traced", "threads1")


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict, object]:
    import tracing

    tracer = tracing.Tracer()
    prev = runner.work / "op-0-plain"
    runner.run_op(0, prev, prev)
    times = {v: [] for v in VARIANTS}
    wall = {v: [] for v in VARIANTS}
    digests, scenario_slices, scales = {}, {}, {}
    deadline = time.perf_counter() + seconds
    index = 1
    while index == 1 or time.perf_counter() < deadline:
        op_digests = {}
        for k in range(len(VARIANTS)):
            variant = VARIANTS[(index + k) % len(VARIANTS)]
            out = runner.work / f"op-{index}-{variant}"
            seconds_op, wall_op, op_digests[variant] = runner.run_op(
                index, out, prev,
                tracer=tracer if variant == "traced" else None,
                threads="1" if variant == "threads1" else None,
            )
            times[variant].append(seconds_op)
            wall[variant].append(wall_op)
            if variant == "traced":
                scales[index] = seconds_op / wall_op
        if None not in op_digests.values() and len(set(op_digests.values())) != 1:
            runner.failures.append(f"op {index}: outputs differ between {op_digests}")
        digests[index] = op_digests["plain"]
        scenario = runner.scenario(index)
        scenario_slices[index] = (scenario.rx_slices, scenario.distinct_slices)
        for variant in VARIANTS:
            if variant != "plain":
                shutil.rmtree(runner.work / f"op-{index}-{variant}")
        shutil.rmtree(prev)
        prev, index = runner.work / f"op-{index}-plain", index + 1

    ops = len(times["traced"])
    layer = Counter()
    for index, per_layer in tracer.layer_times().items():
        for name, value in per_layer.items():
            layer[name] += value * scales[index]
    per_op_calls = tracer.calls()
    calls = Counter()
    for (_, name), count in per_op_calls.items():
        calls[name] += count
    # receiver-slices and distinct slices of every map the traced ops computed
    rx_slices = sum(rx * per_op_calls[(i, "compute_maps")] for i, (rx, _) in scenario_slices.items())
    distinct = sum(d * per_op_calls[(i, "compute_maps")] for i, (_, d) in scenario_slices.items())
    counts = tracer.counts
    p50 = {v: statistics.median(t) for v, t in times.items()}
    metrics = {
        "consumption.setup_s": layer["consumption.setup"] / ops,
        "consumption.setup_calls": calls["_interference_at"] / ops,
        "consumption.setup_calls_per_rx_slice": calls["_interference_at"] / rx_slices if rx_slices else 0.0,
        "consumption.entity_s": layer["consumption.entity"] / ops,
        "consumption.maps_s": layer["consumption.maps"] / ops,
        "consumption.slices_evaluated": calls["_evaluate_grid_slice"] / ops,
        "consumption.slices_distinct": distinct / ops,
        "consumption.thread_speedup": p50["threads1"] / p50["plain"],
        "scenario_io.load_s": layer["scenario_io.load"] / ops,
        "scenario_io.export_s": layer["scenario_io.export"] / ops,
        "scenario_io.read_s": layer["scenario_io.read"] / ops,
        "scenario_io.bytes_written": counts["scenario_io.bytes_written"] / ops,
        "scenario_io.rows_read": counts["scenario_io.rows_read"] / ops,
        "grid.build_s": layer["grid.build"] / ops,
        "grid.builds": calls["__init__"] / ops,
        "grid.neighbors_s": layer["grid.neighbors"] / ops,
        "grid.neighbors_calls": calls["neighbors"] / ops,
        "model.validate_s": layer["model.validate"] / ops,
        "model.placement_s": layer["model.placement"] / ops,
        "connectivity.assess_s": layer["connectivity.assess"] / ops,
        "connectivity.edges": counts["connectivity.edges"] / ops,
        "connectivity.csv_s": layer["connectivity.csv"] / ops,
        "smf.compare_s": layer["smf.compare"] / ops,
        "cli.self_s": layer["cli"] / ops,
        "trace.overhead_ratio": p50["traced"] / p50["plain"],
    }
    detail = {"op_seconds": times, "op_wall_seconds": wall, "digests": digests, "unwrapped": tracer.missing}
    return metrics, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (not for measurements)")
    args = parser.parse_args(argv)
    import_program()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.environ.pop("MUSE_THREADS", None)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = WORK / "tmp" / run_id
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, args.tiny, work)
        if args.trace:
            metrics, detail, tracer = measure_traced(runner, args.seconds)
        else:
            metrics, detail, tracer = (*measure_untraced(runner, args.seconds), None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = WORK / "runs" / run_id
    results.mkdir(parents=True)
    if tracer is not None:
        tracer.write(results / "spans.jsonl.gz")
    failed = len(runner.failures)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "timed_ops": len(detail["digests"]),
        "fail_ratio": failed / runner.attempted,
        "repeated_slice_share": scenarios.repeated_share(args.workload, args.seed, tiny=args.tiny),
        "results": str(results.relative_to(ROOT)),
    }
    (results / "result.json").write_text(json.dumps(
        {**summary, "metrics": metrics, "failures": runner.failures, **detail}, indent=1) + "\n")
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
