"""Judge-call semantics: noiseless passthrough, clamping, and the offset
cancellation that separates comparative from independent scoring."""
import statistics

import pytest

from alphauct.judging import (JudgeFailure, SimJudge, SimJudgeSpec,
                              judge_comparative, judge_independent_set)
from alphauct.tree import ActionChunk

VALUES = {"lobby": 0.3, "vault": 0.8, "closet": -1.0}


def sib(screen: str):
    return (ActionChunk((f"goto {screen}",), f"goto_{screen}"),
            type("Obs", (), {"screen": screen, "terminal": "none"})())


@pytest.mark.parametrize("field", ["noise_std", "shared_offset_std",
                                   "latency_s"])
@pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
def test_spec_rejects_negative_and_non_finite(field, value):
    with pytest.raises(ValueError, match="finite and >= 0"):
        SimJudgeSpec(**{field: value})


def test_noiseless_judge_returns_true_values():
    judge = SimJudge(SimJudgeSpec(), VALUES)
    res = judge_comparative("root", [sib("lobby"), sib("vault")], "go", judge)
    assert res == (0.3, 0.8)
    indep = judge_independent_set("root", [sib("closet"), sib("nowhere")],
                                  "go", judge)
    # unknown screens score the neutral default
    assert indep == (-1.0, 0.0)


def test_scores_clamped_to_unit_interval():
    judge = SimJudge(SimJudgeSpec(shared_offset_std=50.0, seed=3), VALUES)
    res = judge_comparative("root", [sib("lobby"), sib("vault")], "go", judge)
    assert all(-1.0 <= s <= 1.0 for s in res)


def test_comparative_offset_cancels_in_rankings():
    """Within one joint call every sibling eats the same offset, so score
    differences carry only per-item noise; independent calls add two
    independent offsets and the differences get noisier."""
    values = {"low": -0.25, "high": 0.25}  # away from the clamp boundary
    comp_diffs, indep_diffs = [], []
    for trial in range(300):
        judge = SimJudge(SimJudgeSpec(noise_std=0.05, shared_offset_std=0.25,
                                      seed=trial), values)
        sibs = [sib("low"), sib("high")]
        c = judge_comparative("root", sibs, "go", judge, call_key=(trial,))
        comp_diffs.append(c[1] - c[0])
        i = judge_independent_set("root", sibs, "go", judge, call_key=(trial,))
        indep_diffs.append(i[1] - i[0])
    var_comp = statistics.variance(comp_diffs)
    var_indep = statistics.variance(indep_diffs)
    # comparative diff variance ~ 2*noise^2 = 0.005; independent stacks
    # 2*offset^2 = 0.125 on top
    assert var_comp < 0.01
    assert var_indep > 10 * var_comp
    assert statistics.mean(comp_diffs) == pytest.approx(0.5, abs=0.02)


def test_comparative_diff_is_offset_independent():
    """The within-set score difference doesn't move when only the shared
    offset scale changes (same seed, same call key, values away from clamp)."""
    values = {"a": 0.1, "b": 0.4}
    lo = SimJudge(SimJudgeSpec(noise_std=0.05, shared_offset_std=0.0, seed=9),
                  values)
    hi = SimJudge(SimJudgeSpec(noise_std=0.05, shared_offset_std=0.2, seed=9),
                  values)
    sibs = [sib("a"), sib("b")]
    d_lo = (lambda r: r[1] - r[0])(judge_comparative("root", sibs, "go", lo))
    d_hi = (lambda r: r[1] - r[0])(judge_comparative("root", sibs, "go", hi))
    assert d_lo == pytest.approx(d_hi, abs=1e-12)


def test_independent_set_matches_looped_calls():
    judge = SimJudge(SimJudgeSpec(noise_std=0.2, shared_offset_std=0.3, seed=5),
                     VALUES)
    sibs = [sib("lobby"), sib("vault"), sib("closet")]
    batched = judge_independent_set("root", sibs, "go", judge, call_key=(7,))
    looped = tuple(
        judge.score_one(judge.prepare("root", chunk, obs, (7, i)), "go", (7, i))
        for i, (chunk, obs) in enumerate(sibs))
    assert batched == looped


def test_empty_sibling_set_rejected():
    judge = SimJudge(SimJudgeSpec(), VALUES)
    with pytest.raises(ValueError):
        judge_comparative("root", [], "go", judge)
    with pytest.raises(ValueError):
        judge_independent_set("root", [], "go", judge)


def test_judge_failure_propagates():
    class FlakyJudge(SimJudge):
        def score_set(self, prepared, instruction, key):
            raise JudgeFailure("backend down")

    with pytest.raises(JudgeFailure):
        judge_comparative("root", [sib("lobby")], "go",
                          FlakyJudge(SimJudgeSpec(), VALUES))


def test_scores_keyed_by_call_not_schedule():
    judge = SimJudge(SimJudgeSpec(noise_std=0.3, seed=2), VALUES)
    sibs = [sib("lobby"), sib("vault")]
    a = judge_comparative("root", sibs, "go", judge, call_key=(4,))
    b = judge_comparative("root", sibs, "go", judge, call_key=(4,))
    c = judge_comparative("root", sibs, "go", judge, call_key=(5,))
    assert a == b
    assert a != c

