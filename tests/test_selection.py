"""The alpha-UCT score oracle against hand-computed values, the root pick
of ``select_path`` against the oracle, tie-breaking, zero-visit behavior,
and the checks on the exploration constant and backup mode."""
import math

import pytest
from hypothesis import given, strategies as st

from alphauct.backup import MAX, MEAN
from alphauct.selection import select_leaf, select_path
from alphauct.tree import ROOT, ActionChunk, SearchTree


def alpha_uct_score(q: float, n_action: int, n_siblings_total: int,
                    c: float) -> float:
    """The oracle: q + c*sqrt(n_siblings_total / (n_action + 1))."""
    if n_action < 0 or n_siblings_total < 0:
        raise ValueError("visit counts must be non-negative")
    return q + c * math.sqrt(n_siblings_total / (n_action + 1))


def chunk(key: str) -> ActionChunk:
    return ActionChunk((key,), key)


def test_alpha_uct_score_hand_values():
    # 0.8 + 1*sqrt(12 / (3+1)) = 0.8 + sqrt(3)
    assert alpha_uct_score(0.8, 3, 12, 1.0) == pytest.approx(0.8 + math.sqrt(3))
    # unvisited child still gets a finite score: 0 + 2*sqrt(9/1)
    assert alpha_uct_score(0.0, 0, 9, 2.0) == 6.0
    # no sibling visits anywhere -> pure exploitation
    assert alpha_uct_score(0.5, 0, 0, 1.0) == 0.5
    with pytest.raises(ValueError):
        alpha_uct_score(0.0, -1, 3, 1.0)


@given(st.floats(-1, 1), st.integers(0, 50), st.integers(0, 500),
       st.floats(0, 10))
def test_alpha_uct_monotone_in_sibling_visits(q, n, total, c):
    """More sibling traffic never lowers a child's score."""
    assert alpha_uct_score(q, n, total + 1, c) >= alpha_uct_score(q, n, total, c)


@given(st.floats(-1, 1), st.integers(0, 50), st.integers(1, 500),
       st.floats(0.01, 10))
def test_alpha_uct_decreases_with_own_visits(q, n, total, c):
    assert alpha_uct_score(q, n + 1, total, c) <= alpha_uct_score(q, n, total, c)


@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1),
                          st.integers(0, 50)), min_size=2, max_size=8),
       st.floats(0, 10), st.sampled_from([MAX, MEAN]))
def test_root_pick_takes_the_oracles_first_maximum(kids, c, mode):
    """Over (q_max, q_mean, visits) siblings, ``select_path``'s root pick is
    the first child with the highest oracle score under the mode's value."""
    t = SearchTree()
    ids = []
    for i, (q_max, q_mean, visits) in enumerate(kids):
        ids.append(t.add_child(ROOT, chunk(str(i)), init_value=q_max))
        t.nodes[ids[-1]].q_mean = q_mean
        t.nodes[ids[-1]].visit_count = visits
    total = sum(visits for _, _, visits in kids)
    scores = [alpha_uct_score(q_max if mode == MAX else q_mean, visits,
                              total, c) for q_max, q_mean, visits in kids]
    assert select_path(t, c, mode)[0] == ids[scores.index(max(scores))]


def test_policy_validation():
    """A negative or non-finite ``c`` and an unknown mode are rejected by
    every entry point, before the tree is read."""
    t = SearchTree()
    t.add_child(ROOT, chunk("a"), init_value=0.4)
    for select in (lambda c, mode: select_path(t, c, mode),
                   lambda c, mode: select_leaf(t, c, mode)):
        for c in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="exploration constant"):
                select(c, "max")
        with pytest.raises(ValueError, match="unknown backup mode"):
            select(1.0, "median")


def test_tie_break_goes_to_earliest_child():
    t = SearchTree()
    a = t.add_child(ROOT, chunk("a"), init_value=0.4)
    t.add_child(ROOT, chunk("b"), init_value=0.4)
    assert select_path(t, 1.0)[0] == a


def test_alpha_uct_prefers_higher_value_at_equal_visits():
    t = SearchTree()
    t.add_child(ROOT, chunk("a"), init_value=0.2)
    b = t.add_child(ROOT, chunk("b"), init_value=0.9)
    assert select_path(t, 1.0)[0] == b


def test_alpha_uct_zero_visits_compete_on_score():
    # an unvisited low-value child does not win by being fresh: at small c
    # the visited high-value sibling keeps the pick
    t = SearchTree()
    a = t.add_child(ROOT, chunk("a"), init_value=0.9)
    t.nodes[a].visit_count = 3
    t.add_child(ROOT, chunk("b"), init_value=0.1)
    assert select_path(t, 0.1)[0] == a


def test_exploration_flips_choice_at_large_c():
    t = SearchTree()
    a = t.add_child(ROOT, chunk("a"), init_value=0.9)
    b = t.add_child(ROOT, chunk("b"), init_value=0.7)
    t.nodes[a].visit_count = 10
    t.nodes[b].visit_count = 1
    assert select_path(t, 0.0)[0] == a
    assert select_path(t, 2.0)[0] == b


def test_select_leaf_descends_to_childless_node():
    t = SearchTree()
    a = t.add_child(ROOT, chunk("a"), init_value=0.9)
    t.add_child(ROOT, chunk("b"), init_value=0.1)
    c = t.add_child(a, chunk("c"), init_value=0.8)
    assert select_leaf(t, 0.0) == c
    assert select_path(t, 0.0) == [a, c]
    assert select_path(SearchTree(), 1.0) == []
    assert select_leaf(SearchTree(), 1.0) == ROOT
