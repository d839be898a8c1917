"""Every maintenance script under ``scripts/`` still imports and parses its
arguments: ``--help`` exits 0 in a fresh interpreter with ``src`` on the
path.  The trap3 calibration and the regret grid also run tiny grids."""
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


def test_run_regret_grid_writes_lf_csvs(tmp_path):
    """A tiny grid runs end to end and writes both CSVs with LF line ends,
    like every package artifact."""
    proc = run_script(ROOT / "scripts" / "run_regret_grid.py",
                      "--horizon", "200", "--seeds", "2", "--slope-seeds", "2",
                      "--ratio-seeds", "2", "--boot", "10",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("grid.csv", "ratios.csv"):
        data = (tmp_path / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name


def test_calibrate_trap3_reports_every_direction():
    """At the frozen ablation constants the script prints all five
    directional tests, the conditional ones the gate requires included."""
    proc = run_script(ROOT / "scripts" / "calibrate_trap3.py",
                      "--seeds", "2", "--skip-noiseless")
    assert proc.returncode == 0, proc.stderr
    assert "c=0.4 off=0.2 noise=0.05 iters=10:" in proc.stdout
    for name, _, _ in DIRECTIONS:
        assert f"  {name}: z=" in proc.stdout
