"""Release gate: every named criterion runs at its stated tolerance and must
pass.  One test per criterion (so the report carries one pass/fail line
each); the shared run is cached module-wide.  Run with ``-s -v`` to stream
the per-criterion detail lines as they complete.
"""
import concurrent.futures
import io
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from alphauct import cli, lab, regret, search, verify
from alphauct.backup import MAX, MEAN
from alphauct.judging import COMPARATIVE
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


def test_an_unknown_fault_kind_runs_no_criterion():
    out = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(
            f"unknown fault kind 'nope' (use one of {tuple(verify.FAULTS)})")):
        run_criteria(["selection"], inject_fault="nope", out=out)
    assert out.getvalue() == ""


def _wrappable():
    return tuple(getattr(module, attr)
                 for module, attr, *_ in verify.FAULTS.values())


@pytest.mark.parametrize("kind", list(verify.FAULTS))
def test_inject_restores_what_it_wraps(kind):
    """Whether a fault's block exits normally or by an exception, every
    attribute a fault kind wraps is its original object again."""
    before = _wrappable()
    with verify.inject(kind):
        assert _wrappable() != before
    assert all(now is was for now, was in zip(_wrappable(), before))
    with pytest.raises(RuntimeError, match="body"):
        with verify.inject(kind):
            raise RuntimeError("body")
    assert all(now is was for now, was in zip(_wrappable(), before))


@pytest.mark.parametrize("kind", ["backup", "dedup"])
def test_a_fault_breaks_serial_threaded_and_replayed_searches_alike(kind):
    """A fault is a function of the search it breaks, so the runs that
    ``determinism`` compares get the same fault and still agree."""
    res = run_criteria(["determinism"], inject_fault=kind)[0]
    assert res.passed, res.detail


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
    monkeypatch.setattr(lab, "freedman_tail_bound",
                        lambda eps, v: 0.5 if (eps, v) == (2.0, 7.0) else 0.01)
    res = run_criteria(["regret_freedman"])[0]
    assert not res.passed
    assert res.detail == ("eps=2.0 v=8.5: rate 0.2219 beats bound 0.0100 "
                          "+ 3 std")


def test_parallel_speedup_fails_without_the_pool(monkeypatch):
    """A judge pool of one worker hides no latency: the gate fails below 2x
    and prints the ceiling that eight workers reach."""
    real = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: real(max_workers=1))
    res = run_criteria(["parallel_speedup"])[0]
    assert not res.passed
    assert "< 2x" in res.detail and "ceiling 8.00x" in res.detail


def test_parallel_speedup_fails_on_narrow_sibling_sets(monkeypatch):
    """A probe graph with one action per screen judges 1-wide sibling sets,
    which leave the pool no latency to hide; the gate names the widths."""
    monkeypatch.setattr(verify, "PROBE_FIXTURE", "\n".join([
        "[screens]", "s0 s1 goal", "[start]", "s0", "[goals]", "goal",
        "[edges]", "s0 a -> s1", "s1 a -> goal",
        "[policy]", "s0 a 1", "s1 a 1"]))
    res = run_criteria(["parallel_speedup"])[0]
    assert not res.passed
    assert res.detail == "sibling set widths [1, 1] < K = 8"


def _grid_runs(seeds_by_k):
    return [(grid_spec(k, gap, s2), seeds_by_k[k]) for k in (2, 5, 10)
            for gap in (0.1, 0.2) for s2 in (0.01, 0.05)]


SWEEP_RUNS = [(ratio_sweep_spec()._replace(rho=rho), 200)
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


# -- every FAIL branch, each from the input its criterion reads ------------------


def _set(**values):
    """``verify``'s attributes ``values`` replaced."""
    def patch(mp):
        for name, value in values.items():
            mp.setattr(verify, name, value)
    return patch


def _triple_budget(mp):
    """Each expansion draws 3K proposals, so it can admit more than K
    siblings, each with a key of its own."""
    real = search.expand_node
    mp.setattr(search, "expand_node",
               lambda *args, k, **kw: real(*args, k=3 * k, **kw))


def _admission(keep):
    """No matrix searches, and ``verify``'s own admission checks admit
    ``keep(candidates)``."""
    return _set(_search_matrix=lambda: [],
                admit_candidates=lambda cands, aliases: keep(list(cands)))


def _swap_scores(table, a, b):
    """Transcript ``table`` with the recorded scores of ``a`` and ``b``
    swapped."""
    def patch(mp):
        rows = getattr(verify, table)
        score = {label: s for label, _, s, _ in rows}
        swap = {a: score[b], b: score[a]}
        mp.setattr(verify, table, tuple(
            (label, parent, swap.get(label, s), action)
            for label, parent, s, action in rows))
    return patch


def _ratios(*points):
    """The rho sweep returns these (rho, ratio, ci_lo, ci_hi) points."""
    points = [lab.RatioPoint(*p, 0.0, 0.0, 200) for p in points]
    return _set(efficiency_ratio_experiment=lambda *args: points)


def _diverging_threads(mp):
    """The threaded probe run searches another seed; no judge latency."""
    real = verify.search_fixture

    def run(spec, cfg, judge):
        if cfg.parallel_actions:
            cfg = replace(cfg, seed=cfg.seed + 1)
        return real(spec, cfg, replace(judge, latency_s=0.0))
    mp.setattr(verify, "search_fixture", run)


def _cli(command, edit):
    """``cli.main`` exits 3 on ``command``; after a real rerun, ``edit``
    gets the rerun's output directory."""
    real = cli.main

    def run(argv):
        if argv[0] == command:
            return 3
        code = real(argv)
        if argv[0] == "rerun" and edit is not None:
            edit(Path(argv[argv.index("--out") + 1]))
        return code
    return lambda mp: mp.setattr(cli, "main", run)


FAIL_CASES = {
    "backup_floor": (
        "backup_oracle",
        _set(_search_matrix=lambda: [("trap3", 0, MAX, COMPARATIVE, 1, 0.1)]),
        "only 8 node checks (1 runs); need >= 1000"),
    "dedup_over_k": ("dedup_law", _triple_budget,
                     "wide16/s4: node 0 admitted 6 > K=5"),
    "dedup_pair": ("dedup_law", _admission(lambda cands: cands),
                   "jittered coordinate pair admitted 2 nodes, want 1"),
    "dedup_trio": ("dedup_law", _admission(lambda cands: cands[:1]),
                   "distinct-bucket pair wrongly collapsed"),
    "settings_walk": ("selection_fixtures",
                      _swap_scores("WALK_SETTINGS", "1.1.3.1", "1.1.3.2"),
                      "settings walk ('1.1', '1.1.3', '1.1.3.2') != "
                      "('1.1', '1.1.3', '1.1.3.1')"),
    "export_walk": ("selection_fixtures",
                    _swap_scores("WALK_EXPORT", "1.1.4.5.3.1.3.2.1",
                                 "1.1.4.5.3.1.3.2.2"),
                    "export walk ('1.1', '1.1.4', '1.1.4.5', '1.1.4.5.3', "
                    "'1.1.4.5.3.1', '1.1.4.5.3.1.3', '1.1.4.5.3.1.3.2', "
                    "'1.1.4.5.3.1.3.2.2') != ('1.1', '1.1.4', '1.1.4.5', "
                    "'1.1.4.5.3', '1.1.4.5.3.1', '1.1.4.5.3.1.3', "
                    "'1.1.4.5.3.1.3.2', '1.1.4.5.3.1.3.2.1')"),
    "bound": ("regret_bound",
              _set(GRID_HORIZON=200, bound_for_spec=lambda spec, horizon:
                   regret.BoundReport(horizon, ())),
              "K=2 gap=0.1 s2=0.01: mean regret 1.966 > bound 0.000"),
    "slope_fit": ("regret_slope", _set(GRID_HORIZON=200, GRID_SEEDS=1),
                  "K=2 gap=0.1 s2=0.01: tail fit r^2 0.8461 < 0.95"),
    "slope_ratio": ("regret_slope", _set(GRID_HORIZON=200),
                    "gap=0.1 s2=0.05: slope ratio 1.423 CI [1.403, 1.444] "
                    "leaves [1.5, 2.5]"),
    "ratio_not_below_1": ("regret_ratio",
                          _ratios((0.1, 1.0, 0.9, 1.1), (1.0, 1.0, 1.0, 1.0)),
                          "rho=0.1: ratio 1.0000 not < 1"),
    "ratio_at_1": ("regret_ratio", _ratios((1.0, 0.99, 0.9, 1.1)),
                   "rho=1 ratio 0.99 != 1"),
    "ratio_decreases": ("regret_ratio",
                        _ratios((0.25, 0.5, 0.45, 0.55), (0.5, 0.3, 0.25, 0.35),
                                (1.0, 1.0, 1.0, 1.0)),
                        "ratio decreases from rho=0.25 to 0.5 beyond CI "
                        "overlap"),
    "ratio_band": ("regret_ratio",
                   _ratios((0.25, 0.31, 0.3, 0.32), (1.0, 1.0, 1.0, 1.0)),
                   "rho=0.25 ratio 0.3100 outside frozen band [0.28, 0.3]"),
    "freedman_radius": ("regret_freedman",
                        _set(freedman_radius=lambda *args: 0.1),
                        "radius(100, 0.04, 0.01) = 0.100000, want 0.09140 "
                        "+- 1e-4"),
    "ablation": ("ablation_direction", _set(ABLATION_SEEDS=20),
                 "max>mean: z=0.745 p=0.2280 not significant"),
    "threads_diverge": ("parallel_speedup", _diverging_threads,
                        "parallel run produced a different tree, trace or "
                        "outcome"),
    "run_exit": ("determinism", _cli("search", None), "search run exited 3"),
    "rerun_exit": ("determinism", _cli("rerun", None),
                   "search manifest rerun exited 3"),
    "rerun_bytes": ("determinism",
                    _cli(None, lambda out: (out / "trace.txt").write_text("")),
                    "search rerun differs in ['trace.txt']"),
    "rerun_missing": ("determinism",
                      _cli(None, lambda out: (out / "result.json").unlink()),
                      "search rerun differs in ['result.json']"),
    "raises": ("regret_freedman", _set(freedman_radius=lambda *args: 1 / 0),
               "raised ZeroDivisionError: division by zero"),
}


@pytest.mark.parametrize("case", list(FAIL_CASES))
def test_every_fail_branch_names_its_cause(monkeypatch, case):
    """Each FAIL branch that no other test asserts, driven through the input
    its criterion reads (a matrix, a transcript, a bound, a horizon, a
    sweep's points, a CLI exit), gives its whole FAIL message; a criterion
    that raises FAILs with the exception."""
    name, patch, detail = FAIL_CASES[case]
    patch(monkeypatch)
    res = run_criteria([name])[0]
    assert (res.name, res.passed, res.detail) == (name, False, detail)
