"""What ``import alphauct`` loads: the search core and the bandit runs and
fits, and none of the acceptance suite, the Freedman check and ratio CIs,
the fixture parser (loaded on the first fixture load), the run artifacts,
the compiled step loop, the command line, ``concurrent.futures`` (loaded
only for a thread pool) or ``statistics`` (loaded on the first normal
draw); no dataclass but the two specs that code outside the package
replaces; and no module of the package or its tests imports a name it
never uses."""
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphauct

SRC = Path(alphauct.__file__).resolve().parents[1]
NOT_AT_IMPORT = ("alphauct.verify", "alphauct.ablation", "alphauct.manifest",
                 "alphauct.kernel", "alphauct.cli", "alphauct.fixture",
                 "alphauct.lab", "concurrent.futures", "statistics")


def _fresh(code: str, timeout: int = 60) -> list[str]:
    """The words ``code`` prints, run in a fresh interpreter on ``SRC``."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_import_loads_no_suite_manifest_kernel_or_cli():
    """Run in a fresh interpreter: this test process has imported them all."""
    code = ("import sys, alphauct; "
            f"print(' '.join(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))")
    assert _fresh(code) == []


def test_a_bandit_run_loads_no_lab_and_a_fixture_load_loads_the_parser():
    """A bandit run with its analysis (perfbench's bandit operation) loads
    neither ``fixture`` nor ``lab``; the first ``load_fixture`` loads
    ``fixture``.  Run in a fresh interpreter, as above."""
    code = ("import sys\n"
            "from alphauct import envs, regret\n"
            "spec = envs.BanditSpec(means=(0.6, 0.4), sigma_x2=0.05)\n"
            "curve = regret.run_bandit_experiment(spec, 'alpha', 50, 2)\n"
            "regret.bound_for_spec(spec, 50)\n"
            "regret.fit_log_regret(curve)\n"
            "regret.per_seed_log_slopes(curve)\n"
            "new = ('alphauct.fixture', 'alphauct.lab')\n"
            "print(*[m in sys.modules for m in new])\n"
            "envs.load_fixture('trap3')\n"
            "print(*[m in sys.modules for m in new])\n")
    assert _fresh(code, timeout=120) == ["False", "False", "True", "False"]


VALIDATED_SPECS = ("judging.SimJudgeSpec", "search.SearchConfig")


def test_import_builds_only_the_validated_specs_as_dataclasses():
    """Each ``@dataclass`` execs its generated methods at import.  Only the
    two specs that code outside the package (perfbench's self-test) passes
    to ``dataclasses.replace`` stay dataclasses, so that their
    ``__post_init__`` check runs again there.
    ``BanditSpec``, ``ProposerParams`` and ``ActionChunk`` are checked
    named tuples, a result record is a named tuple, and ``GuiGraphSpec``
    is a frozen ``__slots__`` class.  Run in a fresh interpreter, as
    above."""
    code = ("import dataclasses, sys, alphauct\n"
            "for name, mod in sorted(sys.modules.items()):\n"
            "    if name.startswith('alphauct.'):\n"
            "        for key, value in vars(mod).items():\n"
            "            if (dataclasses.is_dataclass(value)\n"
            "                    and value.__module__ == name):\n"
            "                print(name.removeprefix('alphauct.') + '.' + key)\n")
    assert sorted(_fresh(code)) == sorted(VALIDATED_SPECS)
    spec = alphauct.load_fixture("trap3")
    with pytest.raises(AttributeError):
        spec.start = "elsewhere"
    with pytest.raises(AttributeError):
        del spec.start
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert spec.start != "elsewhere"
    assert repr(spec).startswith(f"GuiGraphSpec(screens={spec.screens!r}, ")
    assert repr(alphauct.BanditSpec(means=(0.6, 0.4))) == (
        "BanditSpec(means=(0.6, 0.4), sigma_x2=0.0, rho=1.0, noise='two_point')")
    assert repr(spec.proposer) == ("ProposerParams(duplicate_rate=0.0, "
                                   "reflection_gain=1.0, infeasible_after=0)")


def test_lab_mds_spec_checks_itself_on_replace():
    """``lab.MdsSpec``, the one validated spec not built at import, stays a
    dataclass whose check runs again on ``dataclasses.replace``."""
    from alphauct.lab import MdsSpec
    mds = MdsSpec(scale=0.08, scale_hi=0.12)
    assert dataclasses.replace(mds, scale_hi=0.2) == MdsSpec(0.08, 0.2)
    with pytest.raises(ValueError, match="scale_hi must be finite and > 0"):
        dataclasses.replace(mds, scale_hi=0.0)


def test_one_version_string():
    from alphauct import manifest
    assert alphauct.__version__ == manifest.PACKAGE_VERSION
    assert manifest.RunManifest("x", {}).package_version == alphauct.__version__


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in ``path`` that the module never reads; an
    import with ``# noqa`` on any of its lines, and ``__future__``
    imports, are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{lineno}: {name}"
            for name, lineno in bound.items() if name not in used]


def test_no_unused_imports():
    """No linter ships with the test dependencies, and a deletion leaves
    dead imports behind; this is the one check that catches them, over the
    package's modules and the test files."""
    repo = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((repo / "src" / "alphauct").glob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 10
    files += sorted((repo / "tests").glob("*.py"))
    assert [u for p in files for u in _unused_imports(p)] == []


def _imported_names(module: str) -> list[str]:
    """Every ``module.name`` an import statement of ``module`` names, at
    any level: ``from .envs import BanditSpec`` gives ``envs.BanditSpec``
    and ``from . import regret`` gives ``.regret``."""
    tree = ast.parse((SRC / "alphauct" / f"{module}.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}"
                      for alias in node.names]
    return names


def test_kernel_imports_nothing_from_regret():
    """``regret`` imports ``kernel`` on its first bandit run, and ``lab``
    imports ``regret``; an import of either in ``kernel``, at any level,
    would make a cycle."""
    names = _imported_names("kernel")
    assert "envs.BanditSpec" in names
    assert [n for n in names if {"regret", "lab"} & set(n.split("."))] == []


def test_regret_imports_nothing_from_lab():
    """``lab`` imports ``regret``; the reverse would make a cycle, and load
    ``lab`` with every ``import alphauct``."""
    names = _imported_names("regret")
    assert "envs.BanditSpec" in names
    assert [n for n in names if "lab" in n.split(".")] == []
    assert ".regret" in _imported_names("lab")


def test_a_fresh_package_import_does_not_rerun_kernel():
    """A ``regret`` module keeps the ``kernel`` of its first bandit run.  A
    fresh import of the package (perfbench makes one before every set-up,
    while it keeps running the older modules) leaves no ``alphauct.kernel``
    in ``sys.modules``; the older ``regret``'s next run must not import it
    again.  Run in a fresh interpreter, as above."""
    code = ("import sys\n"
            "from alphauct import envs, regret\n"
            "spec = envs.BanditSpec(means=(0.6, 0.4), sigma_x2=0.05)\n"
            "first = regret.run_bandit_experiment(spec, 'alpha', 50, 2)\n"
            "for m in [m for m in sys.modules if m.startswith('alphauct')]:\n"
            "    del sys.modules[m]\n"
            "import alphauct\n"
            "again = regret.run_bandit_experiment(spec, 'alpha', 50, 2)\n"
            "assert (first.per_seed == again.per_seed).all()\n"
            "print('alphauct.kernel' in sys.modules)\n")
    assert _fresh(code, timeout=120) == ["False"]
