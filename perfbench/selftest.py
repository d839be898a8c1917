#!/usr/bin/env python3
"""Self-test of the benchmark's workload generator.

Pins, at workload seed 0, that the generated inputs are the acceptance
suite's own traffic:

- ``search_verify`` is the 644 ``run_search`` calls of one verify pass
  (216 backup_oracle + 20 dedup_law + 400 ablation_direction + 8
  determinism), and produces the same trees as the suite's own helpers;
- ``bandit_narrow`` is one ``regret_bound`` grid curve;
- ``bandit_wide`` is a bit-identical prefix of ``regret_slope``'s 1000-seed
  K=10 run.

Run from the root of a checkout (about 40 s, mostly the 1000-seed 100k-step
bandit runs): ``python3 perfbench/selftest.py``
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace

import numpy as np

import run
import workloads

sys.path.insert(0, str(run.SRC))
from alphauct import ablation, verify  # noqa: E402
from alphauct.judging import SimJudgeSpec  # noqa: E402
from alphauct.regret import default_grid, run_bandit_experiment  # noqa: E402
from alphauct.search import SearchConfig  # noqa: E402


def _by_slice(cases):
    out: dict[str, list] = {}
    for case in cases:
        out.setdefault(case.slice, []).append(case)
    return out


def test_search_composition():
    cases = workloads.search_cases(0)
    assert len(cases) == 644
    counts = Counter(c.slice for c in cases)
    assert counts == {"backup_oracle": 216, "dedup_law": 20,
                      "ablation_direction": 400, "determinism": 8}, counts


def test_search_cases_are_verify_seeds():
    assert workloads.FIXTURES == verify.builtin_fixtures()
    sl = _by_slice(workloads.search_cases(0))
    rows = [(c.fixture, c.config["seed"], c.config["backup"],
             c.config["judge_mode"], c.config["chunk_size"], c.judge["noise_std"])
            for c in sl["backup_oracle"]]
    assert rows == verify._search_matrix()
    assert [(c.fixture, c.config["seed"]) for c in sl["dedup_law"]] == \
        [(r[0], r[1]) for r in verify._search_matrix()[:20]]
    assert all(c.proposer_overrides == {"duplicate_rate": 0.6}
               for c in sl["dedup_law"])
    want = [(replace(ablation.ABLATION_CONFIG, judge_mode=jm, backup=b, seed=s),
             replace(ablation.ABLATION_JUDGE, seed=s))
            for jm in ("comparative", "independent") for b in ("max", "mean")
            for s in range(100)]
    got = [(SearchConfig(**c.config), SimJudgeSpec(**c.judge))
           for c in sl["ablation_direction"]]
    assert got == want
    want = [(f, SearchConfig(expansion_factor=4, max_iterations=8, seed=3,
                             state_strategy=st), SimJudgeSpec(noise_std=0.05, seed=3))
            for f in verify.builtin_fixtures() for st in ("snapshot", "replay")]
    got = [(c.fixture, SearchConfig(**c.config), SimJudgeSpec(**c.judge))
           for c in sl["determinism"]]
    assert got == want


def test_search_outputs_match_verify_helpers():
    """The benchmark's operations build the same searches as verify's
    ``_run_case`` and ``run_ablation``."""
    bench = run.make_bench(workloads.SEARCH_VERIFY, 0, None)
    _, outs = run.run_pass(bench, None, 0)
    assert all(e is None for e in bench.check(outs))
    for (case, *_), res in zip(bench.items, outs):
        if case.slice not in ("backup_oracle", "dedup_law"):
            continue
        c = case.config
        _, ref = verify._run_case(case.fixture, c["seed"], c["backup"],
                                  c["judge_mode"], c["chunk_size"],
                                  case.judge["noise_std"],
                                  **case.proposer_overrides)
        assert (res.tree.dump(), res.trace) == (ref.tree.dump(), ref.trace), case
    wins = Counter()
    for (case, *_), res in zip(bench.items, outs):
        if case.slice == "ablation_direction":
            key = (case.config["judge_mode"], case.config["backup"])
            wins[key] += res.outcome == "success"
    cells = ablation.run_ablation("trap3", 100)
    assert {(c.judge_mode, c.backup): c.successes for c in cells} == dict(wins)


def test_seeds_shift_inputs():
    assert workloads.search_cases(3) == workloads.search_cases(3)
    seeds0 = {c.config["seed"] for c in workloads.search_cases(0)}
    seeds1 = {c.config["seed"] for c in workloads.search_cases(1)}
    assert seeds0.isdisjoint(seeds1)
    assert workloads.bandit_case(workloads.BANDIT_WIDE, 2).seed0 == 2000


def _spec(case):
    return verify.grid_spec(case.k, case.gap, case.sigma2)


def test_bandit_narrow_is_a_regret_bound_curve():
    case = workloads.bandit_case(workloads.BANDIT_NARROW, 0)
    assert (case.k, case.gap, case.sigma2) in {
        (k, g, s) for k in verify.GRID_KS for g in verify.GRID_GAPS
        for s in verify.GRID_SIGMA2S}
    assert case.means == _spec(case).means
    assert (case.algo, case.horizon, case.n_seeds, case.seed0) == \
        ("alpha", verify.GRID_HORIZON, verify.GRID_SEEDS, 0)


def test_bandit_wide_is_a_regret_slope_prefix():
    """The regret_slope K=10 run (gap 0.1, sigma^2 0.05) recorded on its own
    grid plus the wide workload's grid: adding checkpoints changes nothing
    on the regret_slope grid, and on the wide grid it equals the wide run."""
    case = workloads.bandit_case(workloads.BANDIT_WIDE, 0)
    assert case.means == _spec(case).means
    assert (case.n_seeds, case.seed0) == (verify.SLOPE_RATIO_SEEDS, 0)
    assert case.horizon < verify.GRID_HORIZON
    spec = _spec(case)
    slope = run_bandit_experiment(spec, "alpha", verify.GRID_HORIZON,
                                  verify.SLOPE_RATIO_SEEDS)
    wide_grid = default_grid(case.horizon)
    union = sorted(set(slope.t_grid) | set(wide_grid))
    both = run_bandit_experiment(spec, "alpha", verify.GRID_HORIZON,
                                 verify.SLOPE_RATIO_SEEDS, grid=union)
    at = {t: i for i, t in enumerate(union)}
    assert np.array_equal(both.per_seed[[at[t] for t in slope.t_grid]],
                          slope.per_seed)
    bench = run.make_bench(workloads.BANDIT_WIDE, 0, None)
    wide = bench.run_op(0)[0]
    assert wide.t_grid == wide_grid
    assert np.array_equal(both.per_seed[[at[t] for t in wide_grid]], wide.per_seed)


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
