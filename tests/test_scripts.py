"""Every maintenance script under ``scripts/`` still imports and parses its
arguments: ``--help`` exits 0 in a fresh interpreter with ``src`` on the
path.  The trap3 calibration also runs a tiny grid."""
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


def test_calibrate_trap3_reports_every_direction():
    """At the frozen ablation constants the script prints all five
    directional tests, the conditional ones the gate requires included."""
    proc = run_script(ROOT / "scripts" / "calibrate_trap3.py",
                      "--seeds", "2", "--skip-noiseless")
    assert proc.returncode == 0, proc.stderr
    assert "c=0.4 off=0.2 noise=0.05 iters=10:" in proc.stdout
    for name, _, _ in DIRECTIONS:
        assert f"  {name}: z=" in proc.stdout


def test_calibrate_trap3_rejects_nan_judge_noise():
    """A NaN judge knob is an error, not a grid of perfect successes: one
    argparse error line and exit 2, before any search runs."""
    proc = run_script(ROOT / "scripts" / "calibrate_trap3.py",
                      "--seeds", "20", "--skip-noiseless", "--noise", "nan",
                      "--offset", "nan")
    assert proc.returncode == 2
    assert "must be finite and >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "c=" not in proc.stdout


@pytest.mark.parametrize("flag, value", [("--offset", "inf"), ("--c", "nan"),
                                         ("--c", "-1"), ("--noise", "x"),
                                         ("--seeds", "0"), ("--seeds", "-3"),
                                         ("--iters", "0"),
                                         ("--expansion", "0")])
def test_calibrate_trap3_rejects_bad_knobs(flag, value):
    proc = run_script(ROOT / "scripts" / "calibrate_trap3.py",
                      "--seeds", "2", "--skip-noiseless", flag, value)
    assert proc.returncode == 2
    assert proc.stderr.startswith("calibrate_trap3.py: error: argument "
                                  f"{flag}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "c=" not in proc.stdout
