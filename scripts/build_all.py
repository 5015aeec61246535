#!/usr/bin/env python3
"""Build artifacts for a range of levels in both series.

Usage: python3 scripts/build_all.py [--out DIR] [--kmax N] [--formats LIST]

Levels divisible by 3 are skipped (no lift exists there).  Prints one
summary line per case, a FAIL line for each level whose build fails a
stage check, whose artifacts cannot be written under --out, that leaves
faces unpaired, or whose reduction inequality or orbit premise fails (its
artifacts are still written), and a totals line at the end.  Exit codes:
0 when every level built and certified, 1 when some level failed, 2 for
an empty --formats list or an unknown format, a --kmax below 1, or an
--out that is not and cannot be made a directory or in which no file can
be created (all checked before anything is built).
"""

import argparse
import os
import sys
import time

from lorentzdomains.cli import build_domain
from lorentzdomains.cover import lift_level, series_signature
from lorentzdomains.export import WRITERS, check_writable, parse_formats, write_artifacts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="artifacts")
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--formats", default="off,obj,json,svg")
    args = ap.parse_args(argv)
    if args.kmax < 1:
        print("--kmax must be at least 1")
        return 2
    try:
        formats = parse_formats(args.formats)
    except ValueError as exc:
        print(f"{exc}; known: {', '.join(sorted(WRITERS))}")
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        check_writable(args.out)
    except OSError as exc:
        print(f"cannot write artifacts: {exc}")
        return 2

    t0 = time.time()
    built = 0
    failed = 0
    for series in ("E", "Z"):
        for k in range(1, args.kmax + 1):
            if k % 3 == 0:
                continue
            t1 = time.time()
            try:
                build = build_domain(series, lift_level(*series_signature(series, k), k))
            except (RuntimeError, ArithmeticError) as exc:
                failed += 1
                print(f"FAIL {series} k={k}: {exc}")
                continue
            poly = build.poly
            try:
                write_artifacts(args.out, build.report, formats)
            except OSError as exc:
                failed += 1
                print(f"FAIL {series} k={k}: cannot write artifacts: {exc}")
                continue
            built += 1
            print(
                f"{series} k={k}: V={len(poly.vertices)} E={len(poly.edges)} "
                f"F={len(poly.faces)} unpaired={len(build.pairings.unpaired)} "
                f"margin={build.reduction.margin:.4f} [{time.time() - t1:.1f}s]"
            )
            if not build.certified:
                failed += 1
                print(
                    f"FAIL {series} k={k}: unpaired={len(build.pairings.unpaired)} "
                    f"reduction holds={build.reduction.holds} "
                    f"orbit premise ok={build.reduction.orbit_premise_ok}"
                )
    print(
        f"built {built} cases into {args.out}/ in {time.time() - t0:.1f}s"
        + (f", {failed} failed" if failed else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
