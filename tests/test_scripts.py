import dataclasses
import importlib.util
import os

import numpy as np
import pytest

from lorentzdomains import domain, reduction
from lorentzdomains.cli import main

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_all_matches_cli(tmp_path, capsys):
    assert _load("build_all").main(["--kmax", "2", "--out", str(tmp_path / "all")]) == 0
    names = sorted(os.listdir(tmp_path / "all"))
    assert len(names) == 4 * 4
    for series in ("E", "Z"):
        for k in (1, 2):
            argv = ["build", "--series", series, "--k", str(k), "--out", str(tmp_path / "cli")]
            assert main(argv) == 0
    assert sorted(os.listdir(tmp_path / "cli")) == names
    for name in names:
        a = (tmp_path / "all" / name).read_bytes()
        b = (tmp_path / "cli" / name).read_bytes()
        assert a == b, name
    capsys.readouterr()


def test_build_all_reports_an_unwritable_out(tmp_path, monkeypatch, capsys):
    """An --out naming an existing file, or a path below one, exits 2 with
    one line and no traceback, before any level is built."""
    build_all = _load("build_all")
    monkeypatch.setattr(build_all, "build_domain", _no_work)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert build_all.main(["--kmax", "1", "--out", str(out), "--formats", "off"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cannot write artifacts: ")
        assert str(taken) in lines[0]
    assert taken.read_text() == ""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs a Linux /proc")
def test_build_all_reports_an_out_where_no_file_can_be_created(monkeypatch, capsys):
    """An --out directory in which no file can be created, for root too
    (/proc), exits 2 with one line before any level is built."""
    build_all = _load("build_all")
    monkeypatch.setattr(build_all, "build_domain", _no_work)
    assert build_all.main(["--kmax", "1", "--out", "/proc", "--formats", "off"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write artifacts: ")


def test_verify_reduction_passes(capsys):
    assert _load("verify_reduction").main(["--kmax", "2", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_reduction_samples_every_level_up_to_kmax(monkeypatch, capsys):
    verify_reduction = _load("verify_reduction")
    real = verify_reduction.sample_equivalence
    sampled = []

    def recording(cs, n_samples, seed):
        sampled.append((cs.series, cs.k))
        return real(cs, n_samples=n_samples, seed=seed)

    monkeypatch.setattr(verify_reduction, "sample_equivalence", recording)
    assert verify_reduction.main(["--kmax", "2", "--samples", "50"]) == 0
    assert sampled == [("E", 1), ("E", 2), ("Z", 1), ("Z", 2)]
    sampled.clear()
    assert verify_reduction.main(["--kmax", "7", "--samples", "50"]) == 0
    assert sampled == [(s, k) for s in "EZ" for k in (1, 2, 4, 5, 7)]
    assert "FAIL" not in capsys.readouterr().out


def _no_work(*args, **kwargs):
    raise AssertionError("no case may run")


def test_verify_reduction_rejects_samples_below_one(monkeypatch, capsys):
    verify_reduction = _load("verify_reduction")
    monkeypatch.setattr(verify_reduction, "check_reduction_bound", _no_work)
    monkeypatch.setattr(verify_reduction, "sample_equivalence", _no_work)
    for samples in ("0", "-3"):
        assert verify_reduction.main(["--kmax", "1", "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().out


def test_verify_reduction_rejects_kmax_below_one(monkeypatch, capsys):
    verify_reduction = _load("verify_reduction")
    monkeypatch.setattr(verify_reduction, "check_reduction_bound", _no_work)
    monkeypatch.setattr(verify_reduction, "sample_equivalence", _no_work)
    for kmax in ("0", "-2"):
        assert verify_reduction.main(["--kmax", kmax, "--samples", "50"]) == 2
        assert capsys.readouterr().out == "--kmax must be at least 1\n"


def test_build_all_rejects_kmax_below_one(tmp_path, monkeypatch, capsys):
    build_all = _load("build_all")
    monkeypatch.setattr(build_all, "build_domain", _no_work)
    for kmax in ("0", "-2"):
        assert build_all.main(["--kmax", kmax, "--out", str(tmp_path / "all")]) == 2
        assert capsys.readouterr().out == "--kmax must be at least 1\n"
    assert not (tmp_path / "all").exists()


def test_verify_reduction_fails_a_case_with_no_evidence(monkeypatch, capsys):
    verify_reduction = _load("verify_reduction")
    real = verify_reduction.sample_equivalence

    def nothing_evaluated(cs, n_samples, seed):
        st = real(cs, n_samples=n_samples, seed=seed)
        if (cs.series, cs.k) != ("Z", 1):
            return st
        return dataclasses.replace(
            st, n_boundary_excluded=st.n_samples, n_evaluated=0, n_agree=0
        )

    monkeypatch.setattr(verify_reduction, "sample_equivalence", nothing_evaluated)
    assert verify_reduction.main(["--kmax", "1", "--samples", "50"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "equivalence Z k=1: 0/0 agree (FAIL)" in lines
    assert sum(line.endswith("(FAIL)") for line in lines) == 1


def _fail_premise_at(monkeypatch, module, case):
    """Make `module.check_reduction_bound` report a failed orbit premise at
    `case`, a (series, k) pair."""
    real = module.check_reduction_bound

    def failing(cs):
        rep = real(cs)
        if (cs.series, cs.k) != case:
            return rep
        return dataclasses.replace(rep, orbit_premise_ok=False)

    monkeypatch.setattr(module, "check_reduction_bound", failing)


def test_verify_reduction_fails_a_failed_orbit_premise(monkeypatch, capsys):
    verify_reduction = _load("verify_reduction")
    _fail_premise_at(monkeypatch, verify_reduction, ("Z", 1))
    assert verify_reduction.main(["--kmax", "1", "--samples", "50"]) == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if "FAIL" in line]
    assert len(fails) == 1
    assert fails[0].startswith("Z k=  1") and "False  FAIL" in fails[0]
    assert "equivalence Z k=1" in lines[-1]


def test_build_all_fails_a_failed_orbit_premise_and_goes_on(tmp_path, monkeypatch, capsys):
    _fail_premise_at(monkeypatch, reduction, ("E", 1))
    code = _load("build_all").main(["--kmax", "1", "--out", str(tmp_path), "--formats", "json"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert (
        "FAIL E k=1: unpaired=0 reduction holds=True orbit premise ok=False" in lines
    )
    assert any(line.startswith("Z k=1:") for line in lines)
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert sorted(os.listdir(tmp_path)) == ["fund_E_k1.json", "fund_Z_k1.json"]


def test_build_all_rejects_unknown_format_before_building(tmp_path, capsys):
    out_dir = tmp_path / "all"
    out_dir.mkdir()
    code = _load("build_all").main(["--kmax", "1", "--out", str(out_dir), "--formats", "off,xyz"])
    assert code == 2
    assert "xyz" in capsys.readouterr().out
    assert os.listdir(out_dir) == []


def test_build_all_rejects_an_empty_format_list_before_building(
    tmp_path, monkeypatch, capsys
):
    build_all = _load("build_all")
    monkeypatch.setattr(build_all, "build_domain", _no_work)
    out_dir = tmp_path / "all"
    for formats in ("", ","):
        code = build_all.main(["--kmax", "1", "--out", str(out_dir), "--formats", formats])
        assert code == 2
        assert capsys.readouterr().out.startswith(f"no artifact format in {formats!r}; known: ")
        assert not out_dir.exists()


def test_build_all_reports_failed_level_and_goes_on(tmp_path, monkeypatch, capsys):
    build_all = _load("build_all")
    real = build_all.build_domain

    def flaky(series, config):
        if (series, config.k) == ("E", 2):
            raise RuntimeError("forced stage failure")
        return real(series, config)

    monkeypatch.setattr(build_all, "build_domain", flaky)
    code = build_all.main(["--kmax", "2", "--out", str(tmp_path), "--formats", "json"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL E k=2: forced stage failure" in lines
    assert any(line.startswith("Z k=2:") for line in lines)
    assert sorted(os.listdir(tmp_path)) == [
        "fund_E_k1.json", "fund_Z_k1.json", "fund_Z_k2.json",
    ]


def test_build_all_fails_a_level_with_no_vertices_and_goes_on(tmp_path, monkeypatch, capsys):
    """A level whose constraint set pins no vertex fails its enumeration
    stage: a FAIL line, the next level builds, and the sweep exits 1."""
    real = domain._pinned

    def none_at_e1(cs, pts, *tols):
        if (cs.series, cs.k) == ("E", 1):
            return np.empty(0, dtype=np.intp)
        return real(cs, pts, *tols)

    monkeypatch.setattr(domain, "_pinned", none_at_e1)
    code = _load("build_all").main(["--kmax", "1", "--out", str(tmp_path), "--formats", "json"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL E k=1: no vertices found")
    assert any(line.startswith("Z k=1:") for line in lines)
    assert os.listdir(tmp_path) == ["fund_Z_k1.json"]


def test_verify_reduction_rejects_a_negative_seed(monkeypatch, capsys):
    verify_reduction = _load("verify_reduction")
    monkeypatch.setattr(verify_reduction, "check_reduction_bound", _no_work)
    monkeypatch.setattr(verify_reduction, "sample_equivalence", _no_work)
    for seed in ("-1", "-5"):
        assert verify_reduction.main(["--kmax", "1", "--samples", "50", "--seed", seed]) == 2
        assert capsys.readouterr().out == "--seed must be at least 0\n"


def test_verify_reduction_reports_a_failed_level_and_goes_on(monkeypatch, capsys):
    """A check that raises prints a FAIL line for its level; the other
    levels still run, and the sweep exits 1."""
    verify_reduction = _load("verify_reduction")
    real_bound = verify_reduction.check_reduction_bound
    real_sample = verify_reduction.sample_equivalence

    def bound(cs):
        if (cs.series, cs.k) == ("E", 1):
            raise ArithmeticError("forced bound failure")
        return real_bound(cs)

    def sample(cs, n_samples, seed):
        if (cs.series, cs.k) == ("Z", 1):
            raise RuntimeError("forced scan failure")
        return real_sample(cs, n_samples=n_samples, seed=seed)

    monkeypatch.setattr(verify_reduction, "check_reduction_bound", bound)
    monkeypatch.setattr(verify_reduction, "sample_equivalence", sample)
    assert verify_reduction.main(["--kmax", "1", "--samples", "50"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "FAIL" in line] == [
        "FAIL E k=1: forced bound failure",
        "FAIL equivalence Z k=1: forced scan failure",
    ]
    assert any(line.startswith("Z k=  1") and line.endswith("ok") for line in lines)
    assert "equivalence E k=1: " in lines[-2] and lines[-2].endswith("(ok)")
