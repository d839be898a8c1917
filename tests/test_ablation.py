"""Ablation machinery: cell bookkeeping, pooling and the z-test
arithmetic."""
import math

import pytest

from alphauct.ablation import (AblationCell, direction_tests, pooled,
                               run_ablation, run_cell, two_proportion_test)
from alphauct.judging import SimJudgeSpec
from alphauct.search import SearchConfig
from alphauct.verify import ABLATION_SEEDS


def test_cell_rate():
    cell = AblationCell("comparative", "max", successes=19, runs=25)
    assert cell.rate == pytest.approx(0.76)


def test_run_ablation_covers_the_grid():
    cells = run_ablation("trap3", seeds=6)
    assert [(c.judge_mode, c.backup) for c in cells] == [
        ("comparative", "max"), ("comparative", "mean"),
        ("independent", "max"), ("independent", "mean")]
    assert all(c.runs == 6 and 0 <= c.successes <= 6 for c in cells)
    again = run_ablation("trap3", seeds=6)
    assert [(c.successes, c.runs) for c in again] == \
        [(c.successes, c.runs) for c in cells]


def test_run_cell_honors_seed_window():
    a = run_cell("trap3", "comparative", "max", seeds=4, seed0=0)
    b = run_cell("trap3", "comparative", "max", seeds=4, seed0=100)
    assert a.runs == b.runs == 4
    # different seed windows are allowed to disagree; bookkeeping must not
    assert isinstance(b.successes, int)


def test_pooled_marginals():
    cells = [AblationCell("comparative", "max", 9, 10),
             AblationCell("comparative", "mean", 7, 10),
             AblationCell("independent", "max", 6, 10),
             AblationCell("independent", "mean", 5, 10)]
    assert pooled(cells, backup="max") == (15, 20)
    assert pooled(cells, judge_mode="comparative") == (16, 20)
    assert pooled(cells, judge_mode="comparative", backup="mean") == (7, 10)
    with pytest.raises(ValueError):
        pooled(cells, backup="median")
    tests = direction_tests(cells)
    assert tests["max>mean"] == two_proportion_test(15, 20, 12, 20)
    assert tests["comp>indep|max"] == two_proportion_test(9, 10, 6, 10)
    assert tests["mean>max|indep"] == two_proportion_test(5, 10, 6, 10)


def test_two_proportion_test_hand_value():
    # rates 0.8 vs 0.5 at n=100 each: pooled 0.65, se = sqrt(.65*.35*.02)
    z, p = two_proportion_test(80, 100, 50, 100)
    se = math.sqrt(0.65 * 0.35 * 0.02)
    assert z == pytest.approx(0.3 / se)
    assert p == pytest.approx(0.5 * math.erfc(z / math.sqrt(2)), abs=1e-15)
    assert p < 0.001


def test_two_proportion_test_edges():
    z, p = two_proportion_test(10, 10, 10, 10)  # se = 0, rates equal
    assert (z, p) == (0.0, 1.0)
    z, p = two_proportion_test(5, 5, 0, 5)
    assert p < 0.01
    with pytest.raises(ValueError):
        two_proportion_test(1, 0, 1, 5)
    # symmetric: swapping the samples flips the z sign
    z_fwd, _ = two_proportion_test(40, 50, 30, 50)
    z_rev, _ = two_proportion_test(30, 50, 40, 50)
    assert z_fwd == pytest.approx(-z_rev)


def test_custom_config_plumbs_through():
    cfg = SearchConfig(c=0.4, expansion_factor=3, max_iterations=4)
    cell = run_cell("bottleneck2", "comparative", "max", seeds=3, config=cfg,
                    judge_spec=SimJudgeSpec(noise_std=0.0))
    assert cell.runs == 3
    assert cell.successes == 3  # noiseless judge on an easy fixture


def test_interaction_holds_on_a_fresh_seed_block():
    """The gate's two conditional effects hold on the next 1000-seed block,
    which the gate itself never runs."""
    tests = direction_tests(run_ablation("trap3", ABLATION_SEEDS,
                                         seed0=ABLATION_SEEDS))
    for name in ("max>mean|comp", "comp>indep|max"):
        assert tests[name][1] < 0.05, (name, tests[name])
