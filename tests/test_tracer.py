"""The benchmark's span tracer and the package agree: installing
``perfbench/tracer.Tracer`` reports no untraced layer, and the counters it
reads from call arguments match what a traced search did."""
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from alphauct import envs, expansion, judging, proposer, regret, search, tree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch, capsys):
    """An installed ``Tracer``, uninstalled again after the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    mods = SimpleNamespace(envs=envs, expansion=expansion, judging=judging,
                           proposer=proposer, regret=regret, search=search,
                           tree=tree)
    tr = Tracer()
    try:
        tr.install(mods)
        err = capsys.readouterr().err
        assert "not traced" not in err, err
        yield tr
    finally:
        tr.uninstall()
        sys.modules.pop("tracer", None)


def test_every_tracer_target_exists(tracer):
    # the fixture checked that no layer is missing; wrapped ones unwrap again
    originals = (search.SimReflector.reflect.__wrapped__,
                 regret.fit_log_regret.__wrapped__)
    tracer.uninstall()
    assert (search.SimReflector.reflect, regret.fit_log_regret) == originals


@pytest.mark.parametrize("judge_mode", judging.JUDGE_MODES)
def test_counters_match_a_traced_search(tracer, judge_mode):
    """The tracer reads the proposal budget ``k`` and the judged siblings
    from call arguments; both must match what the search did."""
    k = 4
    res = search.search_fixture(
        envs.load_fixture("wide16"),
        search.SearchConfig(expansion_factor=k, judge_mode=judge_mode,
                            max_iterations=8, seed=1))
    expands, _, _ = tracer.stat("expansion.expand_node")
    counts = tracer.counts
    assert expands > 0
    assert counts["expansion.proposed"] == k * expands
    assert counts["judging.items"] == counts["expansion.admitted"] \
        == len(res.tree) - 1
