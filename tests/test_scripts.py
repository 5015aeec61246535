import importlib.util
import os

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


def test_verify_reduction_passes(capsys):
    assert _load("verify_reduction").main(["--kmax", "2", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
