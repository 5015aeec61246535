#!/usr/bin/env python3
"""Tabulate the reduction inequality margin over a sweep of levels.

Usage: python3 scripts/verify_reduction.py [--kmax N] [--samples N] [--seed N]

For each admissible level k <= kmax (3 does not divide k) of both series
the script prints the two sides of the inequality and the margin, then
cross-checks the half-space description of the domain against the
prism-complement description on --samples random points per level.  Each
check reads the level from its constraint set (`series_constraints`),
built afresh for it from the level's lift, so no set outlives its check.
A level whose check raises (a stage that fails its own check) prints a
FAIL line and the sweep goes on.  Exits 1 if any margin or orbit premise
fails, any level fails, any sampled point disagrees or a case has no
point to evaluate, and 2 if --kmax or --samples is below 1 or --seed is
below 0 (checked before any level runs).
"""

import argparse
import sys

from lorentzdomains.cover import lift_level, series_signature
from lorentzdomains.domain import series_constraints
from lorentzdomains.reduction import check_reduction_bound, sample_equivalence


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax", type=int, default=20)
    ap.add_argument("--samples", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.kmax < 1:
        print("--kmax must be at least 1")
        return 2
    if args.samples < 1:
        print("--samples must be at least 1")
        return 2
    if args.seed < 0:
        print("--seed must be at least 0")
        return 2

    levels = [k for k in range(1, args.kmax + 1) if k % 3 != 0]
    failures = 0
    print(f"{'case':>8}  {'ell^-(sec)':>12}  {'rhs':>12}  {'margin':>10}  premise")
    for series in ("E", "Z"):
        for k in levels:
            try:
                config = lift_level(*series_signature(series, k), k)
                rep = check_reduction_bound(series_constraints(series, config))
            except (RuntimeError, ArithmeticError) as exc:
                failures += 1
                print(f"FAIL {series} k={k}: {exc}")
                continue
            mark = "ok" if rep.certified else "FAIL"
            if not rep.certified:
                failures += 1
            print(
                f"{series} k={k:>3}  {rep.ell_minus_at_sec:12.8f}  "
                f"{rep.rhs:12.8f}  {rep.margin:10.6f}  "
                f"{rep.orbit_premise_ok}  {mark}"
            )
    for series in ("E", "Z"):
        for k in levels:
            try:
                config = lift_level(*series_signature(series, k), k)
                cs = series_constraints(series, config)
                st = sample_equivalence(cs, n_samples=args.samples, seed=args.seed)
            except (RuntimeError, ArithmeticError) as exc:
                failures += 1
                print(f"FAIL equivalence {series} k={k}: {exc}")
                continue
            if not st.agrees:
                failures += 1
            print(
                f"equivalence {series} k={k}: {st.n_agree}/{st.n_evaluated} agree "
                f"({'ok' if st.agrees else 'FAIL'})"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
