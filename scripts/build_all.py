#!/usr/bin/env python3
"""Build artifacts for a range of levels in both series.

Usage: python3 scripts/build_all.py [--out DIR] [--kmax N] [--formats LIST]

Levels divisible by 3 are skipped (no lift exists there).  Prints one
summary line per case and a totals line at the end.
"""

import argparse
import sys
import time

from lorentzdomains.cli import build_domain
from lorentzdomains.export import write_artifacts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="artifacts")
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--formats", default="off,obj,json,svg")
    args = ap.parse_args(argv)
    formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())

    t0 = time.time()
    built = 0
    for series in ("E", "Z"):
        for k in range(1, args.kmax + 1):
            if k % 3 == 0:
                continue
            t1 = time.time()
            build = build_domain(series, k)
            poly = build.poly
            write_artifacts(args.out, series, k, poly, build.report, formats)
            built += 1
            print(
                f"{series} k={k}: V={len(poly.vertices)} E={len(poly.edges)} "
                f"F={len(poly.faces)} unpaired={len(build.pairings.unpaired)} "
                f"margin={build.reduction.margin:.4f} [{time.time() - t1:.1f}s]"
            )
    print(f"built {built} cases into {args.out}/ in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
