"""The benchmark's self-test runs against this checkout: it builds each
workload and runs ``search_verify``'s 644 ``run_search`` calls through
``perfbench/run.py``, so a change to a name or signature the benchmark
calls fails here, not first as a failed benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout, proc.stdout
