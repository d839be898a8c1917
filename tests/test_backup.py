"""Propagation laws: visits on the whole path, value updates on proper
ancestors only, permutation invariance, and exact agreement with the
event-log oracles."""
import pytest
from hypothesis import given, strategies as st

from alphauct.backup import MAX, MEAN, MODES, backpropagate, q_for_selection
from alphauct.rng import derive_rng
from alphauct.tree import ROOT, ActionChunk, SearchTree, TreeError


def chunk(key: str) -> ActionChunk:
    return ActionChunk((key,), key)


def chain(depth: int, init: float = 0.1) -> tuple[SearchTree, int]:
    """root -> 1 -> 2 -> ... -> depth, every node judged at ``init``."""
    t = SearchTree()
    node = ROOT
    for i in range(depth):
        node = t.add_child(node, chunk(f"a{i}"), init_value=init)
    return t, node


def test_modes_tuple():
    assert MODES == (MAX, MEAN) == ("max", "mean")
    t, leaf = chain(1)
    with pytest.raises(ValueError):
        backpropagate(t, leaf, 0.5, mode="median")
    with pytest.raises(ValueError):
        q_for_selection(t, leaf, mode="median")


def test_visits_whole_path_values_proper_ancestors():
    t, leaf = chain(3, init=0.1)
    backpropagate(t, leaf, 0.9, MAX)
    for nid in (0, 1, 2, 3):
        assert t.nodes[nid].visit_count == 1
    # ancestors absorb the new max...
    assert t.nodes[0].q_max == t.nodes[1].q_max == t.nodes[2].q_max == 0.9
    # ...the judged leaf keeps its creation score
    assert t.nodes[leaf].q_max == 0.1


def test_max_never_decreases():
    t, leaf = chain(2, init=0.5)
    backpropagate(t, leaf, 0.8, MAX)
    backpropagate(t, leaf, 0.2, MAX)
    assert t.nodes[ROOT].q_max == 0.8
    assert t.nodes[ROOT].visit_count == 2


def test_mean_tracks_running_average_of_events():
    t, leaf = chain(2, init=0.9)
    backpropagate(t, leaf, 0.2, MEAN)
    backpropagate(t, leaf, 0.6, MEAN)
    # events replace the creation placeholder: mean of {0.2, 0.6}
    assert t.nodes[ROOT].q_mean == pytest.approx(0.4)
    assert t.nodes[ROOT].q_mean == pytest.approx(t.subtree_mean_oracle(ROOT))
    assert q_for_selection(t, ROOT, MEAN) == pytest.approx(0.4)


def test_mean_requires_tracking():
    t = SearchTree()
    leaf = t.add_child(ROOT, chunk("a"), init_value=0.1)
    backpropagate(t, leaf, 0.5, MAX)  # max path is unaffected


def test_value_range_checked_before_any_mutation():
    t, leaf = chain(1, init=0.1)
    with pytest.raises(TreeError):
        backpropagate(t, leaf, 2.0, MAX)
    assert t.nodes[ROOT].visit_count == 0


@given(st.permutations([-0.4, 0.1, 0.1, 0.35, 0.9, -1.0, 0.62]))
def test_final_statistics_are_order_invariant(values):
    tm, leaf_m = chain(3, init=0.0)
    ta, leaf_a = chain(3, init=0.0)
    for v in values:
        backpropagate(tm, leaf_m, v, MAX)
        backpropagate(ta, leaf_a, v, MEAN)
    assert tm.nodes[ROOT].q_max == 0.9
    assert ta.nodes[ROOT].q_mean == pytest.approx(sum(values) / len(values))


@given(st.integers(0, 2**32 - 1))
def test_incremental_matches_oracle_on_random_trees(seed):
    """Grow a random tree the way the search does — judge fresh children and
    propagate their scores, or revisit a non-root node and re-assert its own
    statistic (the root is never judged) — and check every node's incremental
    max against the brute-force event-log recomputation."""
    rng = derive_rng(seed, "backup-prop").generator()
    t = SearchTree()
    for it in range(15):
        nid = int(rng.integers(0, len(t)))
        expand = rng.random() < 0.5 or nid == ROOT
        if expand and t.nodes[nid].children == []:
            for j in range(int(rng.integers(1, 4))):
                v = float(rng.uniform(-1, 1))
                kid = t.add_child(nid, chunk(f"k{it}.{j}"), init_value=v)
                backpropagate(t, kid, v, MAX, iteration=it)
        elif nid != ROOT:
            backpropagate(t, nid, t.nodes[nid].q_max, MAX, iteration=it)
    for nid in range(len(t)):
        assert t.nodes[nid].q_max == t.subtree_max_oracle(nid)


def test_q_for_selection_reads_mode_statistic():
    t, leaf = chain(1, init=0.3)
    backpropagate(t, leaf, 0.7, MAX)
    assert q_for_selection(t, ROOT, MAX) == 0.7
    with pytest.raises(TreeError):  # a root no value has reached yet
        q_for_selection(SearchTree(), ROOT, MAX)
