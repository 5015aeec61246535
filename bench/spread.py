#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 bench/spread.py --runs 10 [--first-seed 1] [--workload build_accept ...]

Runs `run.py --trace 0` once per seed for each workload, then
prints, per metric, the median, the distance between the first and third
quartile as a share of the median, and that share over the metric's bound
in BENCHMARK.json.  The benchmark is steady when every share except
setup_s's stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in args.workload:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            print(f"{name} {metric}: median {median:.6g}, IQR/median {share:.4f}, "
                  f"{share / bounds[metric]:.2f} of bound {bounds[metric]}  "
                  f"values {[round(v, 4) for v in vals]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
