"""Release gate: every named criterion runs at its stated tolerance and must
pass.  One test per criterion (so the report carries one pass/fail line
each); the shared run is cached module-wide.  Run with ``-s -v`` to stream
the per-criterion detail lines as they complete.
"""
import sys
from dataclasses import replace

import pytest

from alphauct import regret, search, verify
from alphauct.backup import MAX, MEAN
from alphauct.tree import ROOT
from alphauct.verify import (CRITERION_NAMES, grid_spec, ratio_sweep_spec,
                             run_criteria)

_results = None


def all_results():
    global _results
    if _results is None:
        _results = {r.name: r for r in run_criteria(out=sys.stdout)}
    return _results


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(name):
    res = all_results()[name]
    print(res.line())
    assert res.passed, res.detail


def test_every_criterion_ran_exactly_once():
    assert tuple(all_results()) == CRITERION_NAMES


def test_fault_injection_trips_the_detectors():
    """The audit criteria must actually detect a broken mechanism, not just
    re-verify healthy code paths."""
    broken = run_criteria(["backup_oracle"], inject_fault="backup")
    assert not broken[0].passed
    assert "diverged" in broken[0].detail
    broken = run_criteria(["dedup_law"], inject_fault="dedup")
    assert not broken[0].passed
    assert "share a normalized key" in broken[0].detail


def test_mean_fault_trips_the_q_mean_audit():
    """The ``mean`` fault smudges only the running mean, so the max checks
    stay clean and the q_mean audit is what catches it."""
    broken = run_criteria(["backup_oracle"], inject_fault="mean")[0]
    assert not broken.passed
    assert "diverged" in broken.detail
    assert "incremental q_mean" in broken.detail
    assert "!= oracle" in broken.detail


def test_backup_oracle_audits_q_mean(monkeypatch):
    """A running mean smudged after every mean-mode propagation fails the
    audit, though q_max and the event log stay intact."""
    orig = search.backpropagate

    def smudged(tree, leaf, value, mode=MAX, *, iteration=0):
        orig(tree, leaf, value, mode, iteration=iteration)
        if mode == MEAN:
            tree.nodes[ROOT].q_mean += 1e-13

    monkeypatch.setattr(search, "backpropagate", smudged)
    broken = run_criteria(["backup_oracle"])[0]
    assert not broken.passed
    assert "diverged" in broken.detail and "q_mean" in broken.detail


def test_freedman_names_its_first_failing_cell(monkeypatch):
    """A bound the walks beat fails the criterion at the first such cell in
    epsilon-major order, with that cell's rate (recorded when every cell
    simulated its own walks)."""
    monkeypatch.setattr(regret, "freedman_tail_bound",
                        lambda eps, v: 0.5 if (eps, v) == (2.0, 7.0) else 0.01)
    res = run_criteria(["regret_freedman"])[0]
    assert not res.passed
    assert res.detail == ("eps=2.0 v=8.5: rate 0.2219 beats bound 0.0100 "
                          "+ 3 std")


def _grid_runs(seeds_by_k):
    return [(grid_spec(k, gap, s2), seeds_by_k[k]) for k in (2, 5, 10)
            for gap in (0.1, 0.2) for s2 in (0.01, 0.05)]


SWEEP_RUNS = [(replace(ratio_sweep_spec(), rho=rho), 200)
              for rho in (1.0, 0.1, 0.25, 0.5)]


@pytest.mark.parametrize("names, runs", [
    (CRITERION_NAMES, _grid_runs({2: 100, 5: 1000, 10: 1000}) + SWEEP_RUNS),
    (("regret_bound",), _grid_runs({2: 100, 5: 100, 10: 100})),
    (("regret_slope",), _grid_runs({2: 100, 5: 1000, 10: 1000})),
], ids=["all", "regret_bound", "regret_slope"])
def test_each_regret_curve_runs_once(monkeypatch, names, runs):
    """Each bandit spec runs once, at the largest seed count a selected
    criterion reads of it: 16 runs with everything selected, and
    regret_bound alone still runs 100 seeds.  The horizon is shrunk; the
    seed counts are the real ones."""
    calls = []
    real = regret.run_bandit_experiment

    def counting(spec, algo, horizon, n_seeds, **kwargs):
        calls.append((spec, n_seeds))
        return real(spec, algo, horizon, n_seeds, **kwargs)

    monkeypatch.setattr(verify, "GRID_HORIZON", 200)
    monkeypatch.setattr(verify, "run_bandit_experiment", counting)
    monkeypatch.setattr(regret, "run_bandit_experiment", counting)
    ctx = verify.VerifyContext(names)
    for name, fn in verify.CRITERIA:
        if name in names and name in ("regret_bound", "regret_slope",
                                      "regret_ratio"):
            fn(ctx)
    assert calls == runs
