"""Repeated benchmark runs and their spread.

    python3 benchmarks/campaign.py --out FILE
    python3 benchmarks/campaign.py --compare FILE_A FILE_B

The first form runs every workload of BENCHMARK.json ``RUNS`` times
untraced, with seeds ``FIRST_SEED`` onwards, then once traced with
``FIRST_SEED``, and writes per metric the median,
quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), with each run's
per-op output digests.  The second form checks that two such files agree:
every end-to-end median within the metric's bound of BENCHMARK.json,
every spread of the second within the bound, and identical digests for
every op both ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
FIRST_SEED = 1
DIGESTS_KEPT = 10


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    detail = json.loads((ROOT / summary["results"] / "result.json").read_text())
    return {"seed": seed, "summary": summary, "result": result, "digests": detail["digests"]}


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def campaign() -> dict:
    out = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True).stdout.strip() or None,
        "machine": {"cpus": os.cpu_count(), "processor": platform.processor() or platform.machine(),
                    "python": platform.python_version()},
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for name in (w["name"] for w in SPEC["workloads"]):
        started = time.perf_counter()
        untraced = [_run(name, seed, 0) for seed in range(FIRST_SEED, FIRST_SEED + RUNS)]
        traced = _run(name, FIRST_SEED, 1)
        metrics = {m["name"]: _stats([r["result"]["metrics"][m["name"]]["value"] for r in untraced])
                   for m in SPEC["end_to_end"]}
        out["workloads"][name] = {
            "end_to_end": metrics,
            "timed_ops": [r["summary"]["timed_ops"] for r in untraced],
            "attempted": sum(r["result"]["attempted"] for r in untraced),
            "failed": sum(r["result"]["failed"] for r in untraced),
            "repeated_slice_share": untraced[0]["summary"]["repeated_slice_share"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "per_layer_correct": traced["result"]["correct"],
            # the first ops of every run are enough to show byte-identical outputs
            "digests": {str(r["seed"]): dict(list(r["digests"].items())[:DIGESTS_KEPT]) for r in untraced},
            "wall_seconds": time.perf_counter() - started,
        }
        worst = max(metrics, key=lambda m: metrics[m]["spread"])
        print(f"{name}: worst spread {worst} {metrics[worst]['spread']:.4f}", file=sys.stderr)
    return out


def compare(a: dict, b: dict) -> bool:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}
    ok = True
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (bound, better) in bounds.items():
            first, second = wa["end_to_end"][metric]["median"], wb["end_to_end"][metric]["median"]
            worse = (second - first) / first if better == "lower" else (first - second) / first
            spread = wb["end_to_end"][metric]["spread"]
            agree = worse <= bound and spread <= bound
            ok &= agree
            print(f"{name:20s} {metric:12s} {first:12.6g} -> {second:12.6g}  worse by {worse:+.4f}"
                  f"  spread {spread:.4f}  bound {bound}  {'ok' if agree else 'FAIL'}")
        mismatched = 0
        for seed, digests in wa["digests"].items():
            other = wb["digests"].get(seed, {})
            mismatched += sum(1 for op, d in digests.items() if op in other and other[op] != d)
        ok &= mismatched == 0
        print(f"{name:20s} digests: {mismatched} ops differ")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args()
    if args.compare:
        a, b = (json.loads(open(path).read()) for path in args.compare)
        return 0 if compare(a, b) else 1
    result = campaign()
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
