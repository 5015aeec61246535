"""Command-line interface: build, verify, and inspect fundamental domains.

Exit codes: 0 success, 2 invalid request (a command line the parser
rejects, a bad series, level, format list, sample count or seed, a level the
lift cannot represent in double precision, a `build --out` where the
artifacts cannot be written, an empty `--out` among them, or a request that
runs out of memory), 1 failed verification (a stage check
fails, faces stay unpaired, the reduction inequality or the orbit premise
fails, or the sampled descriptions disagree).  Errors are reported as a
single JSON object {"error", "series", "k"} on stdout, with null for a
series or level that did not parse, so callers never have to parse
prose.  Every command lifts its level (`lift_level`) once, before any
other work, as the request check; `build` and `verify` hand that lift to
`series_constraints`, and every later stage reads the level from the
constraint set.  `build_domain` is the one chain of the build stages,
and every artifact `build` writes is rendered from the JSON run record
it returns (`write_artifacts`).  The geometry layers (`domain`,
`reduction` and numpy with them) load inside `build_domain` and
`cmd_verify`, when a command first needs them, so `info` and every
invalid request are answered without them; `build` checks its formats
and that a file can be created in `--out` before that.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .cover import LevelConfig, lift_level, series_signature
from .export import (
    check_writable, parse_formats, report_dict, singularity_label, write_artifacts,
)

if TYPE_CHECKING:
    from .domain import ConstraintSet, PairingReport, Polyhedron
    from .reduction import ReductionReport

DEFAULT_FORMATS = "off,obj,json,svg"


@dataclass(frozen=True)
class DomainBuild:
    """Everything one build produces; `report` is the JSON run record."""

    cs: ConstraintSet
    poly: Polyhedron
    pairings: PairingReport
    symmetry_angle: Optional[float]
    edge_cycles: list
    reduction: ReductionReport
    report: dict

    @property
    def certified(self) -> bool:
        """No face is left unpaired and the reduction is certified."""
        return self.reduction.certified and not self.pairings.unpaired


def build_domain(series: str, config: LevelConfig) -> DomainBuild:
    """Construct and certify the fundamental polyhedron for one series
    level, from the level's lift `config` (`lift_level` of
    `series_signature`).

    Raises ValueError for a lift of another series and RuntimeError or
    ArithmeticError when a stage fails its own check.
    """
    from .domain import (
        build_polyhedron, detect_symmetry, edge_cycle_check,
        enumerate_vertices, find_pairings, series_constraints,
    )
    from .reduction import check_reduction_bound

    cs = series_constraints(series, config)
    poly = build_polyhedron(cs, enumerate_vertices(cs))
    pairings = find_pairings(poly, cs)
    symmetry_angle = detect_symmetry(poly, cs)
    edge_cycles = edge_cycle_check(poly, pairings)
    reduction = check_reduction_bound(cs)
    report = report_dict(cs, poly, pairings, symmetry_angle, edge_cycles, reduction)
    return DomainBuild(cs, poly, pairings, symmetry_angle, edge_cycles, reduction, report)


def _error(error: str, series, k, code: int = 2) -> int:
    print(json.dumps({"error": error, "series": series, "k": k}, sort_keys=True))
    return code


def _fail(args, error: str, code: int = 2) -> int:
    return _error(error, args.series, args.k, code)


def cmd_info(args, config: LevelConfig) -> int:
    p, q, r = config.signature
    info = {
        "series": args.series,
        "k": args.k,
        "signature": [p, q, r],
        "singularity": singularity_label(args.series, args.k),
        "p_reading": "tri",  # the only reading; the key is kept for callers
        "p_lcm": config.p_lcm,
        "lam": config.lam,
        "central_corrections": list(config.central_corrections),
        # one union group per half-step conjugation, over a period of 2 p
        "wall_groups": 2 * p,
        "period": 2 * p,
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def cmd_build(args, config: LevelConfig) -> int:
    formats = parse_formats(args.formats)
    out_dir = args.out
    if out_dir is None:  # an empty --out is a path that cannot be written
        out_dir = os.environ.get("LORENTZDOMAINS_OUT", "artifacts")
    try:
        os.makedirs(out_dir, exist_ok=True)
        check_writable(out_dir)
    except OSError as exc:
        return _fail(args, f"cannot write artifacts: {exc}")
    build = build_domain(args.series, config)
    report = build.report
    try:
        written = write_artifacts(out_dir, report, formats)
    except OSError as exc:
        return _fail(args, f"cannot write artifacts: {exc}")
    summary = {
        "series": args.series,
        "k": args.k,
        "singularity": report["singularity"],
        "counts": report["counts"],
        "unpaired": report["unpaired"],
        "reduction_holds": build.reduction.holds,
        "artifacts": {fmt: written[fmt] for fmt in sorted(written)},
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if build.certified else 1


def cmd_verify(args, config: LevelConfig) -> int:
    if args.samples < 1:
        return _fail(args, f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        return _fail(args, f"--seed must be at least 0, got {args.seed}")
    from .domain import series_constraints
    from .reduction import check_reduction_bound, sample_equivalence

    cs = series_constraints(args.series, config)
    reduction = check_reduction_bound(cs)
    stats = sample_equivalence(cs, n_samples=args.samples, seed=args.seed)
    result = {
        "series": args.series,
        "k": args.k,
        "reduction": {
            "holds": reduction.holds,
            "margin": reduction.margin,
            "ell_minus_at_sec": reduction.ell_minus_at_sec,
            "rhs": reduction.rhs,
            "orbit_premise_ok": reduction.orbit_premise_ok,
        },
        "equivalence": {
            "n_samples": stats.n_samples,
            "n_evaluated": stats.n_evaluated,
            "n_agree": stats.n_agree,
            "agreement": stats.agreement,
            "seed": stats.seed,
        },
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if reduction.certified and stats.agrees else 1


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage and exit."""

    def error(self, message):
        raise _UsageError(message)


def _parsed_request(argv):
    """The series and the level of a rejected command line, each None
    unless it parses to a valid value."""
    echo = _Parser(add_help=False)
    echo.add_argument("--series", nargs="?")
    echo.add_argument("--k", nargs="?")
    args, _ = echo.parse_known_args(argv)
    series = args.series if args.series in ("E", "Z") else None
    try:
        k = int(args.k)
    except (TypeError, ValueError):
        k = None
    return series, k


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  It depends on nothing and parsing leaves
    it unchanged, so it is built once, on first use (about a millisecond),
    and every later `main` call reuses it."""
    parser = _Parser(
        prog="lorentzdomains",
        description="Polyhedral fundamental domains for Lorentz bi-quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--series", required=True, choices=("E", "Z"))
        p.add_argument("--k", required=True, type=int, help="level (3 must not divide k)")

    p_info = sub.add_parser("info", help="signature and level data, no geometry")
    common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_build = sub.add_parser("build", help="construct the domain and write artifacts")
    common(p_build)
    p_build.add_argument(
        "--out", default=None,
        help="output directory (default: $LORENTZDOMAINS_OUT or ./artifacts)",
    )
    p_build.add_argument("--formats", default=DEFAULT_FORMATS)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="reduction bound and sampling check")
    common(p_verify)
    p_verify.add_argument("--samples", type=int, default=20_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _error(str(exc), *_parsed_request(argv))
    try:
        config = lift_level(*series_signature(args.series, args.k), args.k)
    except ValueError as exc:
        return _fail(args, str(exc))
    except ArithmeticError as exc:
        return _fail(args, f"level k={args.k} cannot be lifted in double precision: {exc}")
    # a bad request raises ValueError, a failed stage check the other two
    try:
        return args.func(args, config)
    except ValueError as exc:
        return _fail(args, str(exc))
    except (RuntimeError, ArithmeticError) as exc:
        return _fail(args, str(exc), code=1)
    except MemoryError as exc:
        return _fail(args, f"out of memory: {str(exc) or type(exc).__name__}")


if __name__ == "__main__":
    sys.exit(main())
