"""Every maintenance script under ``scripts/`` still imports and parses its
arguments: ``--help`` exits 0 in a fresh interpreter with ``src`` on the
path.  The trap3 calibration also runs a tiny grid and rejects bad knobs,
through its ``main(argv)`` in this process."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alphauct.ablation import DIRECTIONS

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


def run_script(script: Path, *args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


CALIBRATE = ROOT / "scripts" / "calibrate_trap3.py"


@pytest.fixture(scope="module")
def calibrate():
    """The ``calibrate_trap3.py`` script, imported as a module."""
    spec = importlib.util.spec_from_file_location("calibrate_trap3", CALIBRATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_calibrate(calibrate, monkeypatch, capsys):
    """Call it with the script's arguments: runs ``main`` as the script's
    entry point would and returns (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", [str(CALIBRATE)])  # argparse's prog

    def run(*args: str) -> tuple[int, str, str]:
        try:
            code = calibrate.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err
    return run


def test_calibrate_trap3_reports_every_direction(run_calibrate):
    """At the frozen ablation constants the script prints all five
    directional tests, the conditional ones the gate requires included."""
    code, out, err = run_calibrate("--seeds", "2", "--skip-noiseless")
    assert code == 0, err
    assert "c=0.4 off=0.2 noise=0.05 iters=10:" in out
    for name, _, _ in DIRECTIONS:
        assert f"  {name}: z=" in out


def test_calibrate_trap3_rejects_nan_judge_noise(run_calibrate):
    """A NaN judge knob is an error, not a grid of perfect successes: one
    argparse error line and exit 2, before any search runs."""
    code, out, err = run_calibrate("--seeds", "20", "--skip-noiseless",
                                   "--noise", "nan", "--offset", "nan")
    assert code == 2
    assert "must be finite and >= 0" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert "c=" not in out


@pytest.mark.parametrize("flag, value", [("--offset", "inf"), ("--c", "nan"),
                                         ("--c", "-1"), ("--noise", "x"),
                                         ("--seeds", "0"), ("--seeds", "-3"),
                                         ("--iters", "0"),
                                         ("--expansion", "0"),
                                         # an empty grid axis
                                         ("--c", None), ("--offset", None),
                                         ("--noise", None), ("--iters", None)])
def test_calibrate_trap3_rejects_bad_knobs(run_calibrate, flag, value):
    code, out, err = run_calibrate("--seeds", "2", "--skip-noiseless", flag,
                                   *([] if value is None else [value]))
    assert code == 2
    assert err.startswith(f"calibrate_trap3.py: error: argument {flag}: ")
    assert len(err.splitlines()) == 1
    assert "c=" not in out
