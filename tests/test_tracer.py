"""Every layer the benchmark's span tracer wraps still exists: installing
``perfbench/tracer.Tracer`` on the package reports no untraced layer."""
import sys
from pathlib import Path
from types import SimpleNamespace

from alphauct import envs, expansion, judging, proposer, regret, search, tree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_exists(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    mods = SimpleNamespace(envs=envs, expansion=expansion, judging=judging,
                           proposer=proposer, regret=regret, search=search,
                           tree=tree)
    tr = Tracer()
    originals = (search.SimReflector.reflect, regret.fit_log_regret)
    try:
        tr.install(mods)
        err = capsys.readouterr().err
        assert "not traced" not in err, err
        assert search.SimReflector.reflect is not originals[0]  # wrapped
    finally:
        tr.uninstall()
        sys.modules.pop("tracer", None)
    assert (search.SimReflector.reflect, regret.fit_log_regret) == originals
