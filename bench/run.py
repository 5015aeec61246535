#!/usr/bin/env python3
"""Benchmark for lorentzdomains: time to a certified domain.

    python3 bench/run.py --workload build_accept --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout.  Each workload run starts the workload in
one fresh interpreter (`workload.py`) with BLAS/OpenMP pinned to one
thread.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
set-up time measured in further fresh interpreters included; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The run record goes to `.bench_runs/`.  See bench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

from workload import ROOT, RUNS_DIR, WORKLOADS, per_layer_names

SRC = os.path.join(ROOT, "src")
WORKLOAD_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workload.py")
# A run must end within 180 s; the traced run of build_large is the longest.
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def tail(values):
    """(label, value): the highest order statistic with ten samples above
    it, or the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def run_workload(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, WORKLOAD_PY, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload {name} crashed:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(RUNS_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(name, record, trace):
    """Human-readable lines for one workload."""
    for failure in record["failures"]:
        print(f"{name}: FAILED {failure}")
    if trace:
        for metric in per_layer_names():
            m = record["metrics"][metric]
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        return
    passes = record["passes"]
    label, value = tail(passes)
    for metric, m in record["metrics"].items():
        extra = ""
        if metric == "setup_s":
            extra = f" (median of {len(record['setup_s'])})"
        elif metric == "pass_s":
            extra = f" (median of n={len(passes)} passes; {label} {value:.4f} s)"
        print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}{extra}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lorentzdomains", "cli.py")):
        print(f"no lorentzdomains sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, record, args.trace)
        attempted += record["attempted"]
        failed += record["failed"]
        for metric, m in record["metrics"].items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = m
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
