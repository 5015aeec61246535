import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzdomains import cli, domain, reduction
from lorentzdomains.cli import main
from lorentzdomains.export import (
    WRITERS,
    artifact_basename,
    json_text,
    obj_text,
    off_text,
    singularity_label,
    svg_text,
    write_artifacts,
)

from lifts import level_build, level_constraints


def _tetrahedron() -> dict:
    """A tetrahedron as the writers read a run record: its counts,
    vertices and faces."""
    loops = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    return {
        "series": "E",
        "k": 1,
        "counts": {"vertices": 4, "edges": 6, "faces": 4, "euler_characteristic": 2},
        "vertices": [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ],
        "faces": [
            {"label": f"a[{i}]", "loop": loop, "slab": False}
            for i, loop in enumerate(loops)
        ],
    }


@pytest.fixture(scope="module")
def e1_run():
    return level_build("E", 1)


def test_singularity_labels():
    assert singularity_label("E", 2) == "E_18"
    assert singularity_label("E", 1) == "E_14"
    assert singularity_label("Z", 1) == "Z_13"
    assert singularity_label("Z", 5) == "Z_29"
    with pytest.raises(ValueError):
        singularity_label("Q", 1)


def test_artifact_basename():
    assert artifact_basename("E", 2) == "fund_E_k2"
    assert artifact_basename("Z", 10) == "fund_Z_k10"


def test_off_tetrahedron():
    text = off_text(_tetrahedron())
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "4 4 6"
    assert len(lines) == 2 + 4 + 4
    # faces parse back to the same loops
    for want, got in zip([(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)], lines[6:]):
        parts = got.split()
        assert int(parts[0]) == 3
        assert tuple(int(x) for x in parts[1:4]) == want


def test_obj_matches_off_combinatorics():
    report = _tetrahedron()
    n_vertices = len(report["vertices"])
    off_lines = off_text(report).splitlines()
    obj_lines = obj_text(report).splitlines()
    off_faces = [
        tuple(int(x) for x in line.split()[1:4])
        for line in off_lines[2 + n_vertices:]
    ]
    obj_faces = [
        tuple(int(x) - 1 for x in line.split()[1:])
        for line in obj_lines
        if line.startswith("f ")
    ]
    assert off_faces == obj_faces
    off_verts = [
        tuple(float(x) for x in line.split())
        for line in off_lines[2: 2 + n_vertices]
    ]
    obj_verts = [
        tuple(float(x) for x in line.split()[1:])
        for line in obj_lines
        if line.startswith("v ")
    ]
    assert off_verts == obj_verts


def test_slab_comment_only_on_slab_faces(e1_run):
    lines = off_text(e1_run.report).splitlines()[2 + len(e1_run.poly.vertices):]
    flagged = [line.endswith("# slab") for line in lines]
    assert sum(flagged) == 2
    assert flagged[-2:] == [True, True]


def test_json_report_round_trip(e1_run):
    poly = e1_run.poly
    text = json_text(e1_run.report)
    back = json.loads(text)
    assert back == json.loads(json_text(back))
    assert back["schema_version"] == 1
    assert back["series"] == "E" and back["k"] == 1
    assert back["singularity"] == "E_14"
    assert back["counts"]["vertices"] == len(poly.vertices)
    assert len(back["pairings"]) == len(poly.faces)
    assert back["unpaired"] == []
    assert all(len(p["g1"]) == 5 and len(p["g2"]) == 5 for p in back["pairings"])
    assert abs(back["symmetry_angle"] - math.pi / 4.0) < 1e-12
    assert "timestamp" not in text and "date" not in text


def _dumps(o):
    return json.dumps(o, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("series,k", [("E", 1), ("Z", 2), ("Z", 14), ("E", 40)])
def test_json_text_is_the_indented_json_dump(series, k):
    """The writer gives the bytes of `json.dumps(report, indent=2,
    sort_keys=True)` on build reports."""
    report = level_build(series, k).report
    assert json_text(report) == _dumps(report)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.floats(), max_size=4) | st.lists(st.integers() | st.booleans(), max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_json_text_matches_json_dumps_on_any_value(value):
    """Byte for byte against `json.dumps`: NaN and the infinities, bools,
    None, empty containers, tuples, and strings escaped to ASCII."""
    assert json_text(value) == _dumps(value)


def test_json_text_escapes_and_keys_as_json_does():
    strings = ["\u00e9\u4e2d\U0001f600\ud83d", "\"quote\" \\ \n\t\x00\x7f", ""]
    value = {s: [s, [], {}, [[]], [{}], [True, False, None, 1, 1.0]] for s in strings}
    value.update({"nan": math.nan, "inf": [math.inf, -math.inf], "zero": [-0.0, 0.0]})
    assert json_text(value) == _dumps(value)


@pytest.mark.parametrize(
    "value", [{1, 2}, b"x", np.int64(3), np.bool_(True), object(), [1, {2}], {"a": [1.0, 2j]}]
)
def test_json_text_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ref:
        _dumps(value)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(ref.value)


def test_json_text_rejects_keys_other_than_str():
    """A report's keys are all str; `json` writes numeric keys and rejects
    the rest, the writer rejects every other key."""
    for value in ({(1, 2): 0}, {"a": 0, 1: 0}, {1: 0}, {None: 0}):
        with pytest.raises(TypeError):
            json_text(value)


def test_svg_render(e1_run):
    poly = e1_run.poly
    text = svg_text(e1_run.report)
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    side = sum(1 for f in poly.faces if not f.is_slab)
    assert text.count("<polygon") == side
    assert text.count("<circle") == 1 + len(poly.vertices)


def test_write_artifacts_deterministic(tmp_path, e1_run):
    a = write_artifacts(tmp_path / "a", e1_run.report)
    b = write_artifacts(tmp_path / "b", e1_run.report)
    assert sorted(a) == ["json", "obj", "off", "svg"]
    for fmt in a:
        with open(a[fmt], "rb") as fa, open(b[fmt], "rb") as fb:
            assert fa.read() == fb.read(), fmt


def test_write_artifacts_rejects_unknown_format(tmp_path, e1_run):
    """Every format is checked before any file is written."""
    for formats in (("stl",), ("off", "xyz")):
        with pytest.raises(ValueError, match=repr(formats[-1])):
            write_artifacts(tmp_path, e1_run.report, formats=formats)
        assert os.listdir(tmp_path) == []


@pytest.mark.skipif(os.name != "posix", reason="file modes and umask are POSIX")
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_artifacts_file_mode_follows_the_umask(tmp_path, e1_run, umask, mode):
    """Artifacts get the mode open() gives a new file, 0o666 less the
    umask, and no temporary file is left behind."""
    old = os.umask(umask)
    try:
        written = write_artifacts(tmp_path, e1_run.report)
    finally:
        os.umask(old)
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in written.values())
    for path in written.values():
        assert os.stat(path).st_mode & 0o777 == mode, path


@pytest.mark.parametrize("series,k", [("E", 1), ("Z", 2)])
def test_every_artifact_renders_from_the_json_file_alone(tmp_path, capsys, series, k):
    """A build's OFF, OBJ and SVG bytes, and its JSON bytes too, render
    again from `json.loads` of its own JSON file: the JSON run record
    holds everything the other files show."""
    argv = ["build", "--series", series, "--k", str(k), "--out", str(tmp_path)]
    assert main(argv) == 0
    written = json.loads(capsys.readouterr().out)["artifacts"]
    with open(written["json"], encoding="utf-8") as fh:
        report = json.loads(fh.read())
    assert sorted(written) == sorted(WRITERS)
    for fmt, path in written.items():
        with open(path, "rb") as fh:
            assert WRITERS[fmt](report).encode() == fh.read(), fmt


def test_cli_info(capsys):
    assert main(["info", "--series", "Z", "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["signature"] == [5, 3, 3]
    assert out["singularity"] == "Z_13"


@pytest.mark.parametrize("series,k", [("E", 1), ("Z", 2), ("E", 14), ("Z", 5)])
def test_cli_info_builds_no_geometry(series, k, capsys, monkeypatch):
    """`info` reads its level data from the level lift alone, and they
    match the constraint set's."""
    cs = level_constraints(series, k)

    def no_geometry(*args, **kwargs):
        raise AssertionError("info must not build the constraint set")

    monkeypatch.setattr(domain, "series_constraints", no_geometry)
    assert main(["info", "--series", series, "--k", str(k)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["wall_groups"] == len(cs.groups)
    assert out["period"] == cs.period
    assert out["p_lcm"] == cs.config.p_lcm and out["lam"] == cs.config.lam
    assert out["central_corrections"] == list(cs.config.central_corrections)


def test_cli_rejects_divisible_level(capsys):
    code = main(["info", "--series", "E", "--k", "6"])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert "error" in out and out["k"] == 6


def test_cli_build(tmp_path, capsys):
    code = main(
        [
            "build", "--series", "E", "--k", "1",
            "--out", str(tmp_path), "--formats", "off,json",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"]["euler_characteristic"] == 2
    assert out["unpaired"] == []
    assert out["reduction_holds"] is True
    for fmt in ("off", "json"):
        assert os.path.exists(tmp_path / f"fund_E_k1.{fmt}")
    assert not os.path.exists(tmp_path / "fund_E_k1.svg")


def test_cli_verify(capsys):
    code = main(
        ["verify", "--series", "E", "--k", "1", "--samples", "2000", "--seed", "3"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduction"]["holds"] is True
    assert out["equivalence"]["agreement"] == 1.0


@pytest.mark.parametrize("series,k", [("Z", 25), ("E", 47)])
def test_cli_verify_where_r_nears_one(capsys, series, k):
    """R + 5e-4 >= 1 here: the premise walk must stay inside the disc."""
    code = main(["verify", "--series", series, "--k", str(k), "--samples", "500"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduction"]["orbit_premise_ok"] is True


def test_cli_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LORENTZDOMAINS_OUT", str(tmp_path / "envout"))
    code = main(["build", "--series", "E", "--k", "1", "--formats", "off"])
    assert code == 0
    capsys.readouterr()
    assert os.path.exists(tmp_path / "envout" / "fund_E_k1.off")


def test_cli_build_names_a_wall_that_breaks_the_window_premise(tmp_path, capsys, monkeypatch):
    """Two extra central factors put every wall's I-side on another sheet:
    `build` exits 1 with one JSON error naming the first wall and its
    margin pi/2 - |phi_g|, and writes nothing."""
    from lorentzdomains import domain
    from lorentzdomains.cover import central

    monkeypatch.setattr(domain, "central", lambda n: central(n + 2))
    code = main(["build", "--series", "E", "--k", "2", "--out", str(tmp_path), "--formats", "json"])
    assert code == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["series"], out["k"]) == ("E", 2)
    assert out["error"].startswith("sheet window premise fails for wall a[0] ")
    assert "margin pi/2 - |phi| = -4.5" in out["error"]
    assert captured.err == "" and os.listdir(tmp_path) == []


def test_cli_build_unwritable_out_is_json(tmp_path, capsys, monkeypatch):
    """An --out naming an existing file exits 2 with one JSON error object
    and nothing on stderr, before anything is built."""

    def no_build(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(cli, "build_domain", no_build)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["build", "--series", "E", "--k", "1", "--out", str(taken), "--formats", "off"])
    assert code == 2
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["series"], out["k"]) == ("E", 1)
    assert out["error"].startswith("cannot write artifacts: ") and str(taken) in out["error"]
    assert captured.err == ""
    assert taken.read_text() == ""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs a Linux /proc")
def test_cli_build_out_where_no_file_can_be_created(capsys, monkeypatch):
    """An --out that is a directory in which no file can be created, for
    root too (/proc), exits 2 before anything is built."""

    def no_build(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(cli, "build_domain", no_build)
    code = main(["build", "--series", "E", "--k", "1", "--out", "/proc", "--formats", "off"])
    assert code == 2
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["series"], out["k"]) == ("E", 1)
    assert out["error"].startswith("cannot write artifacts: ") and "/proc/" in out["error"]
    assert captured.err == ""


def test_cli_build_rejects_an_empty_out(tmp_path, capsys, monkeypatch):
    """An empty --out names no directory: it is not the default, so the
    build exits 2 with one JSON error, builds nothing and writes nothing."""

    def no_build(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(cli, "build_domain", no_build)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LORENTZDOMAINS_OUT", raising=False)
    assert main(["build", "--series", "E", "--k", "1", "--out", ""]) == 2
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["series"], out["k"]) == ("E", 1)
    assert out["error"].startswith("cannot write artifacts: ")
    assert captured.err == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_cli_reports_running_out_of_memory_as_json(tmp_path, capsys, monkeypatch, command, message):
    """A stage that runs out of memory is a request the machine cannot
    serve: exit 2 with one JSON error, nothing on stderr.  The stages are
    patched to raise, so nothing is allocated."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(domain, "enumerate_vertices", out_of_memory)
    monkeypatch.setattr(reduction, "sample_equivalence", out_of_memory)
    argv = [command, "--series", "Z", "--k", "2"]
    argv += ["--out", str(tmp_path), "--formats", "json"] if command == "build" else []
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "error": f"out of memory: {message or 'MemoryError'}", "series": "Z", "k": 2,
    }
    assert os.listdir(tmp_path) == []


def test_cli_build_rejects_a_bad_level_before_making_out(tmp_path, capsys):
    out_dir = tmp_path / "new"
    assert main(["build", "--series", "E", "--k", "3", "--out", str(out_dir)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["series"], out["k"]) == ("E", 3) and "lift" in out["error"]
    assert not out_dir.exists()


def test_cli_build_stage_failure_is_json(tmp_path, capsys, monkeypatch):
    """A stage that fails its check exits 1 with one JSON error object."""

    def failing_stage(cs):
        raise RuntimeError("forced stage failure")

    monkeypatch.setattr(domain, "enumerate_vertices", failing_stage)
    code = main(["build", "--series", "E", "--k", "1", "--out", str(tmp_path)])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "forced stage failure", "series": "E", "k": 1}
    assert os.listdir(tmp_path) == []


def test_cli_build_with_no_vertices_is_a_failed_stage(tmp_path, capsys, monkeypatch):
    """A constraint set that pins no vertex fails the enumeration stage:
    exit 1 with one JSON error object, not the invalid-request code."""
    monkeypatch.setattr(domain, "_pinned", lambda cs, pts, *tols: np.empty(0, dtype=np.intp))
    code = main(["build", "--series", "E", "--k", "1", "--out", str(tmp_path)])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["series"], out["k"]) == ("E", 1)
    assert out["error"].startswith("no vertices found")
    assert os.listdir(tmp_path) == []


def test_cli_build_low_word_budget_reports_unpaired(tmp_path, capsys, monkeypatch):
    """Pairings whose words exceed the budget leave faces unpaired, not a crash."""
    monkeypatch.setattr(domain, "WORD_BUDGET", 1)
    code = main(["build", "--series", "E", "--k", "1", "--out", str(tmp_path)])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["counts"]["faces"] == 18
    assert out["unpaired"] and "slab[D]" in out["unpaired"]
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"fund_E_k1.{fmt}" for fmt in ("json", "obj", "off", "svg")
    )
    report = json.loads((tmp_path / "fund_E_k1.json").read_text())
    assert report["unpaired"] == out["unpaired"]
    # every pairing that is reported comes with its inverse
    pairs = {(p["face_i"], p["face_j"]) for p in report["pairings"]}
    assert all((j, i) in pairs for i, j in pairs)


def test_cli_build_rejects_unknown_format_before_building(tmp_path, capsys):
    code = main(
        [
            "build", "--series", "E", "--k", "1",
            "--out", str(tmp_path), "--formats", "off,xyz",
        ]
    )
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert "xyz" in out["error"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("formats", ["", ","])
def test_cli_build_rejects_an_empty_format_list_before_building(
    tmp_path, capsys, monkeypatch, formats
):
    """A --formats list with no format would build for no artifact: it is
    a bad request, answered before anything is built or written."""

    def no_build(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(cli, "build_domain", no_build)
    out_dir = tmp_path / "out"
    argv = ["build", "--series", "E", "--k", "1", "--out", str(out_dir), "--formats", formats]
    assert main(argv) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": f"no artifact format in {formats!r}", "series": "E", "k": 1}
    assert not out_dir.exists()


def test_cli_verify_needs_evidence(capsys, monkeypatch):
    """No samples is a bad request, and zero evaluated points never pass."""
    code = main(["verify", "--series", "E", "--k", "1", "--samples", "0"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)

    real = reduction.sample_equivalence
    monkeypatch.setattr(
        reduction, "sample_equivalence",
        lambda cs, n_samples, seed: real(cs, n_samples=0, seed=seed),
    )
    code = main(["verify", "--series", "E", "--k", "1", "--samples", "5"])
    assert code == 1
    text = capsys.readouterr().out
    assert "NaN" not in text
    out = json.loads(text)
    assert out["equivalence"]["n_evaluated"] == 0
    assert out["equivalence"]["agreement"] is None


def _fail_certificate(monkeypatch, field):
    """Make every reduction record the CLI reads report `field` as False.
    The CLI imports `reduction` when a command runs, so the patch goes to
    the defining module."""
    real = reduction.check_reduction_bound
    monkeypatch.setattr(
        reduction, "check_reduction_bound",
        lambda cs: dataclasses.replace(real(cs), **{field: False}),
    )


@pytest.mark.parametrize("field", ["holds", "orbit_premise_ok"])
def test_cli_build_fails_on_failed_certificate(tmp_path, capsys, monkeypatch, field):
    """A failed reduction or orbit premise exits 1 after the usual report."""
    _fail_certificate(monkeypatch, field)
    code = main(
        ["build", "--series", "E", "--k", "1", "--out", str(tmp_path), "--formats", "json"]
    )
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["unpaired"] == []
    assert out["reduction_holds"] is (field != "holds")
    assert os.listdir(tmp_path) == ["fund_E_k1.json"]
    report = json.loads((tmp_path / "fund_E_k1.json").read_text())
    assert report["reduction"][field] is False


@pytest.mark.parametrize("field", ["holds", "orbit_premise_ok"])
def test_cli_verify_fails_on_failed_certificate(capsys, monkeypatch, field):
    """A failed reduction or orbit premise exits 1 after the usual report;
    the bound is derived once, and sampling derives none of its own."""
    _fail_certificate(monkeypatch, field)

    def no_bound(*args, **kwargs):
        raise AssertionError("sampling may not derive a bound")

    real_sampling = reduction.sample_equivalence

    def sampling_with_no_bound(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(reduction, "check_reduction_bound", no_bound)
            return real_sampling(*args, **kwargs)

    monkeypatch.setattr(reduction, "sample_equivalence", sampling_with_no_bound)
    code = main(["verify", "--series", "E", "--k", "1", "--samples", "500"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["reduction"][field] is False
    assert out["equivalence"]["agreement"] == 1.0


@pytest.mark.parametrize(
    "series,k",
    [("E", 3716), ("Z", 2651), ("E", 1_000_000_001), ("E", 100_000_000_001),
     ("E", 100_000_000_000_000_001)],
)
@pytest.mark.parametrize("command", ["info", "build", "verify"])
def test_cli_rejects_a_level_the_lift_cannot_represent(tmp_path, capsys, command, series, k):
    """A level whose lift fails in double precision is an invalid request:
    exit 2, one JSON error naming the series and the level, nothing on
    stderr and nothing written.  The five levels fail in the triangle's
    generator check, the centrality check of the defect, a division, and
    the rotation about the triangle's vertex v (a square root of a
    negative number, then a centre rounded onto the unit circle)."""
    argv = [command, "--series", series, "--k", str(k)]
    if command == "build":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert set(out) == {"error", "series", "k"} and (out["series"], out["k"]) == (series, k)
    assert out["error"].startswith(f"level k={k} cannot be lifted in double precision: ")
    assert os.listdir(tmp_path) == []


def test_cli_verify_rejects_a_negative_seed(capsys, monkeypatch):
    """A seed below 0 is an invalid request that names --seed, found
    before any check runs."""
    def no_check(*args, **kwargs):
        raise AssertionError("nothing may be checked")

    monkeypatch.setattr(reduction, "check_reduction_bound", no_check)
    monkeypatch.setattr(reduction, "sample_equivalence", no_check)
    for seed in ("-1", "-7"):
        assert main(["verify", "--series", "Z", "--k", "2", "--seed", seed]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": f"--seed must be at least 0, got {seed}", "series": "Z", "k": 2}


def test_cli_parser_errors_are_json(capsys):
    """A command line the parser rejects exits 2 with one JSON object on
    stdout and nothing on stderr; a series or level that did not parse is
    null."""
    cases = [
        (["info", "--series", "X", "--k", "2"], None, 2),
        (["info", "--series", "E", "--k", "abc"], "E", None),
        (["info", "--series", "Z"], "Z", None),
        (["verify", "--k", "1"], None, 1),
        (["build", "--series", "E", "--k", "1", "--bogus"], "E", 1),
        (["info", "--series", "E", "--k"], "E", None),
        ([], None, None),
    ]
    for argv, series, k in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        out = json.loads(captured.out)
        assert set(out) == {"error", "series", "k"} and out["error"], argv
        assert (out["series"], out["k"]) == (series, k), argv


def test_cli_parser_is_built_once_and_replies_as_fresh_processes(capsys):
    """`main` builds its parser once per process.  Rejected command lines
    followed by valid ones, all in one process, give the exit codes and
    replies that each gives in a fresh process."""
    argvs = [
        ["build", "--series", "E", "--k", "1", "--bogus"],
        ["info", "--series", "Z", "--k", "2"],
        ["verify", "--series", "E", "--k"],
        ["verify", "--series", "E", "--k", "1", "--samples", "100"],
    ]
    assert cli.build_parser() is cli.build_parser()
    in_process = []
    for argv in argvs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "lorentzdomains.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert proc.stderr == "", argv
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [2, 0, 2, 0]


# Runs each command line of the JSON list argv[1] through `main` in one
# process; prints, per command line, its exit code and the modules loaded
# after it.
_LOADED_AFTER = """
import contextlib, io, json, sys
from lorentzdomains.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded = [m for m in sys.modules if m == "numpy" or m.startswith("lorentzdomains.")]
    print(json.dumps([code, loaded]))
"""
_GEOMETRY = {"numpy", "lorentzdomains.domain", "lorentzdomains.reduction", "lorentzdomains.halfspaces"}
# the layers bench/tracer.py looks up in sys.modules
_TRACED_LAYERS = {
    f"lorentzdomains.{layer}"
    for layer in ("domain", "reduction", "halfspaces", "cover", "disc", "export")
}


def _modules_after(argvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return [(code, set(loaded)) for code, loaded in map(json.loads, proc.stdout.splitlines())]


def test_cli_answers_info_and_invalid_requests_without_the_geometry_layers(tmp_path):
    """`info` and every invalid request load neither numpy nor a geometry
    layer; a build then loads every layer the benchmark's tracer patches,
    and so does a verify in a fresh process."""
    taken = tmp_path / "taken"
    taken.write_text("")
    e1 = ["--series", "E", "--k", "1"]
    no_geometry = [
        ["info", *e1],
        ["info", "--series", "X", "--k", "1"],
        ["info", "--series", "E", "--k", "3"],
        ["info", "--series", "Z", "--k", "2651"],
        ["build", *e1, "--out", str(tmp_path / "out"), "--formats", ","],
        ["verify", *e1, "--samples", "0"],
        ["verify", *e1, "--seed", "-1"],
        ["build", *e1, "--out", str(taken), "--formats", "json"],
    ]
    if os.path.isdir("/proc/self"):
        no_geometry.append(["build", *e1, "--out", "/proc", "--formats", "json"])
    build = ["build", *e1, "--out", str(tmp_path / "out"), "--formats", "json"]
    replies = _modules_after(no_geometry + [build])
    assert [code for code, _ in replies] == [0] + [2] * (len(no_geometry) - 1) + [0]
    for argv, (_, loaded) in zip(no_geometry, replies):
        assert not loaded & _GEOMETRY, argv
    assert _TRACED_LAYERS <= replies[-1][1]
    [(code, loaded)] = _modules_after([["verify", *e1, "--samples", "100"]])
    assert code == 0 and _TRACED_LAYERS <= loaded


def _flag(name, good, bad):
    """`name value` with a good value about two times in three; otherwise a
    bad value, the flag without a value, or no flag at all (None)."""
    good = st.sampled_from([[name, v] for v in good])
    bad = st.sampled_from([[name, v] for v in bad] + [[name], None])
    return st.one_of(good, good, bad)


_SERIES = _flag("--series", ["E", "Z"], ["X", ""])
_LEVEL = _flag("--k", ["1", "2"], ["3", "0", "-1", "abc"])
_COMMANDS = {
    "info": [_SERIES, _LEVEL | st.integers(-2, 40).map(lambda k: ["--k", str(k)])],
    "build": [
        _SERIES, _LEVEL,
        _flag("--formats", ["json"], ["off,xyz", ""]).filter(bool),
    ],
    "verify": [
        _SERIES, _LEVEL,
        _flag("--samples", ["30"], ["0", "-1", "x"]).filter(bool),
        _flag("--seed", ["0", "7"], ["q", "-1"]),
    ],
}


@st.composite
def _cli_argv(draw):
    """Command lines of `info`, and of `build` and `verify` at k <= 2 that
    always name a small sample count and one output format."""
    command = draw(st.sampled_from(["info", "build", "verify"] * 2 + ["frob", None]))
    groups = [draw(flag) for flag in _COMMANDS.get(command, [_SERIES, _LEVEL])]
    groups = [g for g in groups if g is not None]
    if draw(st.integers(0, 3)) == 0:
        groups.append(["--bogus"])
    groups = draw(st.permutations(groups))
    head = [] if command is None else [command]
    return head + [arg for group in groups for arg in group]


@settings(max_examples=60, deadline=None)
@given(argv=_cli_argv())
def test_cli_any_argv_exits_with_one_json_object(argv):
    """Any command line ends with exit 0, 1 or 2 and exactly one JSON
    object on stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        if argv[:1] == ["build"]:
            argv = argv + ["--out", out_dir]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2)
    assert stderr.getvalue() == ""
    out = json.loads(stdout.getvalue())
    assert isinstance(out, dict)
    if code == 2:
        assert set(out) == {"error", "series", "k"}
