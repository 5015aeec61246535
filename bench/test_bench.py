"""The benchmark's own checks.

    python3 -m pytest -q bench/test_bench.py

Counts from two traced runs must be identical; the correctness gate must
fail bad replies instead of crashing; BENCHMARK.json must list exactly
the metrics the harness reports; and without the package sources the
benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workload  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == workload.per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "pass_s", "peak_rss_mb", "ok_ratio", "identical_ratio"
    ]


def test_traced_counts_repeat_across_runs():
    runs = [
        _result(_run("--workload", "build_accept", "--seed", "3", "--seconds", "0", "--trace", "1"))
        for _ in range(2)
    ]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
    counts = [
        {n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["domain.triples"] > 0
    assert counts[0]["cover.cover_mul.calls"] > 0
    assert counts[0]["export.bytes_written"] > 0


def test_gate_rejects_a_verify_on_zero_evidence():
    reply = {
        "reduction": {"holds": True},
        "equivalence": {"n_samples": workload.VERIFY_SAMPLES, "n_evaluated": 0,
                        "n_agree": 0, "agreement": float("nan")},
    }
    ok, reason, _, _ = workload._check_verify(reply)
    assert not ok and "n_evaluated 0" in reason


def test_gate_counts_an_exception_as_a_failed_case():
    def boom(case, argv):
        raise RuntimeError("stage failed")

    os.makedirs(workload.RUNS_DIR, exist_ok=True)
    record = workload.run_case(boom, "build", "E", 1, 0, {})
    assert not record["ok"] and "RuntimeError" in record["reason"]
    assert record["records"] == 0


def test_gate_rejects_two_json_objects():
    with pytest.raises(ValueError):
        workload._one_json_object('{"a": 1}\n{"b": 2}')


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "build_accept", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
