"""What ``import alphauct`` loads: the search core and the regret lab, and
none of the acceptance suite, the run artifacts, the compiled step loop,
the command line, ``concurrent.futures`` (loaded only for a thread pool)
or ``statistics`` (loaded on the first normal draw)."""
import os
import subprocess
import sys
from pathlib import Path

import alphauct

SRC = Path(alphauct.__file__).resolve().parents[1]
NOT_AT_IMPORT = ("alphauct.verify", "alphauct.ablation", "alphauct.manifest",
                 "alphauct.kernel", "alphauct.cli", "concurrent.futures",
                 "statistics")


def test_import_loads_no_suite_manifest_kernel_or_cli():
    """Run in a fresh interpreter: this test process has imported them all."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = ("import sys, alphauct; "
            f"print(' '.join(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_one_version_string():
    from alphauct import manifest
    assert alphauct.__version__ == manifest.PACKAGE_VERSION
    assert manifest.RunManifest("x", {}).package_version == alphauct.__version__
