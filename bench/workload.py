"""Run one benchmark workload in this interpreter and print its record.

`run.py` starts this file in a fresh interpreter per workload run, with
the checkout's `src` on PYTHONPATH and BLAS/OpenMP pinned to one thread.
Cases go through `lorentzdomains.cli.main`, the entry point users call,
with stdout captured and artifacts written under `.bench_runs/`.  Every
case is checked; a case that raises counts as failed, not as a crash.

    python3 bench/workload.py --workload build_accept --seed 0 --seconds 10 --trace 0
    python3 bench/workload.py --record-reference

The last line of stdout is one JSON object (see `run_workload`).
`--record-reference` rebuilds `bench/reference.json` from the current
code; it was made once, at the commit the benchmark was defined on.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_RUNS = 7
SETUP_CODE = (
    "from lorentzdomains.cli import main; "
    "raise SystemExit(main(['info', '--series', 'E', '--k', '1']))"
)

ACCEPT = [(s, k) for s in ("E", "Z") for k in (1, 2, 4, 5)]
LARGE = [("Z", 14), ("E", 40)]
WORKLOADS = {
    "build_accept": ("build", ACCEPT),
    "build_large": ("build", LARGE),
    "verify_accept": ("verify", ACCEPT),
}
ALL_CASES = [f"{s}{k}" for s, k in ACCEPT + LARGE]
FORMATS = ("off", "obj", "json", "svg")
VERIFY_SAMPLES = 10_000

# Per-layer metrics.  Self times are seconds per traced pass; counts are
# per pass and repeat exactly from pass to pass and run to run.
SELF_S = (
    "domain.series_constraints",
    "domain.enumerate_vertices",
    "domain.membership_mask",
    "domain.active_walls",
    "domain.build_polyhedron",
    "domain.find_pairings",
    "domain.detect_symmetry",
    "domain.edge_cycle_check",
    "reduction.check_reduction_bound",
    "reduction.sample_equivalence",
    "disc.orbit",
    "cover.cover_mul",
    "cover.cover_pow",
    "cover.axis_rotation",
    "halfspaces.batch_wall",
    "export.report_dict",
    "export.write_artifacts",
)
CALLS = (
    "cover.cover_mul",
    "cover.cover_pow",
    "cover.axis_rotation",
    "halfspaces.batch_wall",
)
COUNTS = (
    "domain.walls",
    "domain.triples",
    "domain.vertices",
    "domain.faces",
    "domain.edges",
    "domain.pairings",
    "domain.edge_cycles",
    "halfspaces.batch_wall.points",
    "reduction.n_evaluated",
    "export.bytes_written",
)


def _series_constraints(counts, args, kwargs, cs):
    counts["domain.walls"] += len(cs.all_walls())


def _enumerate_vertices(counts, args, kwargs, verts):
    cs = args[0] if args else kwargs["cs"]
    counts["domain.triples"] += math.comb(len(cs.all_walls()), 3)
    counts["domain.enumerated"] += len(verts)


def _build_polyhedron(counts, args, kwargs, poly):
    counts["domain.vertices"] += len(poly.vertices)
    counts["domain.faces"] += len(poly.faces)
    counts["domain.edges"] += len(poly.edges)


def _find_pairings(counts, args, kwargs, report):
    counts["domain.pairings"] += len(report.pairings)


def _edge_cycle_check(counts, args, kwargs, cycles):
    counts["domain.edge_cycles"] += len(cycles)


def _batch_wall(counts, args, kwargs, result):
    counts["halfspaces.batch_wall.points"] += result[0].size


def _sample_equivalence(counts, args, kwargs, stats):
    counts["reduction.n_evaluated"] += stats.n_evaluated
    counts["reduction.n_boundary_excluded"] += stats.n_boundary_excluded
    counts["reduction.n_samples"] += stats.n_samples


def _write_artifacts(counts, args, kwargs, written):
    counts["export.bytes_written"] += sum(os.path.getsize(p) for p in written.values())


OBSERVERS = {
    "domain.series_constraints": _series_constraints,
    "domain.enumerate_vertices": _enumerate_vertices,
    "domain.build_polyhedron": _build_polyhedron,
    "domain.find_pairings": _find_pairings,
    "domain.edge_cycle_check": _edge_cycle_check,
    "halfspaces.batch_wall": _batch_wall,
    "reduction.sample_equivalence": _sample_equivalence,
    "export.write_artifacts": _write_artifacts,
}


def per_layer_names():
    """Every per-layer metric name, in report order."""
    names = [f"{n}.self_s" for n in SELF_S]
    names += [f"{n}.calls" for n in CALLS]
    names += list(COUNTS)
    names += ["domain.vertex_yield", "reduction.boundary_excluded_ratio"]
    names += [f"cli.case_s.{c}" for c in ALL_CASES]
    names.append("trace.overhead_ratio")
    return names


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _one_json_object(text: str) -> dict:
    """The single JSON object that makes up all of `text`."""
    body = text.strip()
    obj, end = json.JSONDecoder().raw_decode(body)
    if end != len(body) or not isinstance(obj, dict):
        raise ValueError("stdout is not exactly one JSON object")
    return obj


def _case_argv(command, series, k, seed, out_dir):
    argv = [command, "--series", series, "--k", str(k)]
    if command == "build":
        return argv + ["--out", out_dir, "--formats", ",".join(FORMATS)]
    return argv + ["--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]


def _check_build(obj, ref):
    """Verdict, reason, {record: sha256} and V/E/F/pairing counts for one
    build reply; counts are compared with `ref` unless it is None."""
    if obj.get("unpaired") != []:
        return False, f"unpaired faces {obj.get('unpaired')}", {}, None
    if obj.get("reduction_holds") is not True:
        return False, "reduction inequality does not hold", {}, None
    paths = obj.get("artifacts", {})
    if sorted(paths) != sorted(FORMATS):
        return False, f"artifacts {sorted(paths)}", {}, None
    digests = {}
    for fmt in FORMATS:
        with open(paths[fmt], "rb") as fh:
            data = fh.read()
        digests[fmt] = _sha256(data)
        if fmt == "json":
            n_pairings = len(json.loads(data)["pairings"])
    counts = {
        "vertices": obj["counts"]["vertices"],
        "edges": obj["counts"]["edges"],
        "faces": obj["counts"]["faces"],
        "pairings": n_pairings,
    }
    if ref is not None and counts != ref["counts"]:
        return False, f"counts {counts} != reference {ref['counts']}", digests, counts
    return True, "", digests, counts


def _check_verify(obj):
    """Verdict, reason and {record: sha256} for one verify reply."""
    red, eq = obj.get("reduction", {}), obj.get("equivalence", {})
    if red.get("holds") is not True:
        return False, "reduction inequality does not hold", {}, None
    if eq.get("n_samples") != VERIFY_SAMPLES:
        return False, f"n_samples {eq.get('n_samples')}", {}, None
    if not 0 < eq.get("n_evaluated", 0) == eq.get("n_agree"):
        return False, f"n_agree {eq.get('n_agree')} of n_evaluated {eq.get('n_evaluated')}", {}, None
    digest = _sha256(json.dumps(red, sort_keys=True).encode())
    return True, "", {"reduction": digest}, None


def run_case(call, command, series, k, seed, reference):
    """Run one case through the CLI; returns its record."""
    case = f"{series}{k}"
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as out_dir:
        argv = _case_argv(command, series, k, seed, out_dir)
        buf = io.StringIO()
        error = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = call(case, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        ok, reason, digests, counts = False, error, {}, None
        if code != 0 and error is None:
            reason = f"exit code {code}: {buf.getvalue().strip()[:200]}"
        if code == 0:
            try:
                obj = _one_json_object(buf.getvalue())
                if command == "build":
                    ref = reference["build"][case] if reference else None
                    ok, reason, digests, counts = _check_build(obj, ref)
                else:
                    ok, reason, digests, counts = _check_verify(obj)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                ok, reason = False, f"unreadable reply: {type(exc).__name__}: {exc}"
    expected = reference[command][case]["sha256"] if reference else {}
    identical = sum(expected.get(name) == d for name, d in digests.items())
    return {
        "case": case,
        "seconds": seconds,
        "cpu_s": cpu_s,
        "ok": ok,
        "reason": reason,
        "records": len(digests),
        "identical": identical,
        "digests": digests,
        "counts": counts,
    }


def time_setup():
    """Seconds from starting a fresh interpreter to the end of its
    `info --series E --k 1` reply."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, timeout=60
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or json.loads(proc.stdout)["signature"] != [4, 3, 3]:
        raise RuntimeError(f"info E1 failed: {proc.stdout}{proc.stderr}")
    return seconds


def run_passes(run_pass, seconds):
    """Call run_pass() until the next call would overrun `seconds` (at
    least once); returns the result of each call."""
    out = []
    begin = time.perf_counter()
    while True:
        out.append(run_pass())
        elapsed = time.perf_counter() - begin
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.join(ROOT, "src")
    lines = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_lines": lines,
    }


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return ref[5:]


def _layer_metrics(tracer, traced_passes, per_pass, case_seconds, untraced_passes):
    n = len(traced_passes)
    first = per_pass[0]
    metrics = {}
    for name in SELF_S:
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / n, "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
    counts = first["counts"]
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    triples = counts.get("domain.triples", 0)
    samples = counts.get("reduction.n_samples", 0)
    metrics["domain.vertex_yield"] = (
        counts.get("domain.enumerated", 0) / triples if triples else 0.0, "ratio"
    )
    metrics["reduction.boundary_excluded_ratio"] = (
        counts.get("reduction.n_boundary_excluded", 0) / samples if samples else 0.0,
        "ratio",
    )
    for case in ALL_CASES:
        times = case_seconds.get(case)
        metrics[f"cli.case_s.{case}"] = (statistics.median(times) if times else 0.0, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_passes) / statistics.median(untraced_passes), "ratio"
    )
    return metrics


def _per_pass_totals(snapshots):
    """Per-pass differences of cumulative call and count totals."""
    out = []
    prev = {"calls": {}, "counts": {}}
    for snap in snapshots:
        out.append({
            key: {n: v - prev[key].get(n, 0) for n, v in snap[key].items()}
            for key in ("calls", "counts")
        })
        prev = snap
    return out


def run_workload(name, seed, seconds, trace):
    """Run the workload; returns the record `run.py` reads."""
    from lorentzdomains import cli

    command, cases = WORKLOADS[name]
    cases = list(cases)
    random.Random(seed).shuffle(cases)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(RUNS_DIR, exist_ok=True)

    results = []

    def one_pass(call):
        gc.collect()
        records = [run_case(call, command, s, k, seed, reference) for s, k in cases]
        results.extend(records)
        return records

    def plain(case, argv):
        return cli.main(argv)

    if trace:
        # Untraced and traced passes alternate, so that the overhead ratio
        # compares passes made under the same host load.
        tracer = Tracer(OBSERVERS)
        snapshots = []

        def traced(case, argv):
            return tracer.case_span(case, cli.main, argv)

        def pair():
            untraced_records = one_pass(plain)
            with tracer.installed():
                traced_records = one_pass(traced)
            snapshots.append(tracer.snapshot())
            return untraced_records, traced_records

        pairs = run_passes(pair, seconds)
        untraced = [u for u, _ in pairs]
        traced_passes = [sum(r["seconds"] for r in t) for _, t in pairs]
    else:
        # Set-up is timed once after each pass, so that its samples spread
        # over the run like the passes do, then topped up to SETUP_RUNS.
        setup = []

        def timed_pass():
            records = one_pass(plain)
            setup.append(time_setup())
            return records

        untraced = run_passes(timed_pass, seconds)
        while len(setup) < SETUP_RUNS:
            setup.append(time_setup())
    passes = [sum(r["seconds"] for r in records) for records in untraced]
    case_seconds = {}
    for records in untraced:
        for r in records:
            case_seconds.setdefault(r["case"], []).append(r["seconds"])
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "cases": [f"{s}{k}" for s, k in cases],
        "passes": passes,
        "passes_cpu": [sum(r["cpu_s"] for r in records) for records in untraced],
        "case_seconds": case_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if trace:
        per_pass = _per_pass_totals(snapshots)
        metrics = _layer_metrics(tracer, traced_passes, per_pass, case_seconds, passes)
        record["traced_passes"] = traced_passes
        record["per_pass_counts"] = per_pass
        record["counts_repeat"] = all(p == per_pass[0] for p in per_pass)
        record["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        record["layer_totals"] = tracer.snapshot()
        spans_path = os.path.join(RUNS_DIR, f"{name}-seed{seed}-spans.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)

    record["attempted"] = len(results)
    record["failed"] = sum(not r["ok"] for r in results)
    record["failures"] = sorted({f"{r['case']}: {r['reason']}" for r in results if not r["ok"]})[:10]
    record["records"] = sum(r["records"] for r in results)
    record["identical"] = sum(r["identical"] for r in results)
    if not trace:
        record["setup_s"] = setup
        record["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
            "ok_ratio": {
                "value": (record["attempted"] - record["failed"]) / record["attempted"],
                "unit": "ratio",
            },
            "identical_ratio": {
                "value": record["identical"] / record["records"] if record["records"] else 0.0,
                "unit": "ratio",
            },
        }
    return record


def record_reference():
    """Write bench/reference.json from the current code."""
    from lorentzdomains import cli

    os.makedirs(RUNS_DIR, exist_ok=True)
    reference = {"build": {}, "verify": {}}
    for command, cases in (("build", ACCEPT + LARGE), ("verify", ACCEPT)):
        for series, k in cases:
            r = run_case(lambda case, argv: cli.main(argv), command, series, k, 0, {})
            if not r["ok"]:
                raise SystemExit(f"{command} {r['case']} failed: {r['reason']}")
            entry = {"sha256": r["digests"]}
            if r["counts"] is not None:
                entry["counts"] = r["counts"]
            reference[command][r["case"]] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
