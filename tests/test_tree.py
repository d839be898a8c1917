"""Arena invariants: append-only ids, value clamping, oracles, and the pinned
dump text."""
import pytest

from alphauct.tree import (ROOT, TERMINAL_KINDS, ActionChunk, EvalEvent,
                           SearchTree, TreeError)


def chunk(key: str) -> ActionChunk:
    return ActionChunk((key,), key)


def small_tree() -> SearchTree:
    # root -> a(0.3) -> c(0.7)
    #      -> b(0.5)
    t = SearchTree()
    a = t.add_child(ROOT, chunk("a"), init_value=0.3)
    b = t.add_child(ROOT, chunk("b"), init_value=0.5)
    c = t.add_child(a, chunk("c"), init_value=0.7)
    assert (a, b, c) == (1, 2, 3)
    return t


def test_ids_are_dense_and_ordered():
    t = small_tree()
    assert len(t) == 4
    assert t.nodes[1].parent == ROOT
    assert t.nodes[3].parent == 1
    assert t.nodes[3].depth == 2
    assert t.node(ROOT).children == [1, 2]


def test_action_chunk_validation():
    with pytest.raises(TreeError):
        ActionChunk((), "x")
    with pytest.raises(TreeError):
        ActionChunk(("x",), "")
    with pytest.raises(TreeError):
        SearchTree().add_child(ROOT, "not-a-chunk", 0.0)  # type: ignore[arg-type]


def test_value_range_enforced():
    t = SearchTree()
    with pytest.raises(TreeError):
        t.add_child(ROOT, chunk("a"), init_value=1.5)
    with pytest.raises(TreeError):
        t.add_child(ROOT, chunk("a"), init_value=float("nan"))
    with pytest.raises(TreeError):
        t.add_child(ROOT, chunk("a"), init_value=-1.0001)
    assert len(t) == 1  # a rejected child leaves no trace
    nid = t.add_child(ROOT, chunk("a"), -1.0)  # boundary is legal
    assert t.nodes[nid].init_value == t.nodes[nid].q_max == -1.0


def test_terminal_kinds():
    assert TERMINAL_KINDS == ("none", "success", "failure", "exhausted")
    t = SearchTree()
    with pytest.raises(TreeError):
        t.add_child(ROOT, chunk("a"), 0.0, terminal="bogus")
    nid = t.add_child(ROOT, chunk("a"), 0.0, terminal="success")
    t.mark_exhausted(nid)  # no-op: already terminal
    assert t.nodes[nid].terminal == "success"
    other = t.add_child(ROOT, chunk("b"), 0.0)
    t.mark_exhausted(other)
    assert t.nodes[other].terminal == "exhausted"


def test_path_to_root():
    t = small_tree()
    assert t.path_to_root(3) == [0, 1, 3]
    assert t.path_to_root(ROOT) == [0]
    with pytest.raises(TreeError):
        t.path_to_root(99)


def test_oracles_match_hand_computation():
    t = small_tree()
    t.record_event(EvalEvent(iteration=0, leaf=3, value=0.7, path=(0, 1, 3)))
    t.record_event(EvalEvent(iteration=1, leaf=2, value=0.5, path=(0, 2)))
    assert t.subtree_max_oracle(ROOT) == 0.7
    assert t.subtree_max_oracle(1) == 0.7
    assert t.subtree_max_oracle(2) == 0.5
    assert t.subtree_mean_oracle(ROOT) == pytest.approx(0.6)
    assert t.subtree_mean_oracle(1) == 0.7


def test_oracle_requires_event_log():
    t = SearchTree()
    t.add_child(ROOT, chunk("a"), init_value=0.2)
    with pytest.raises(TreeError):
        t.subtree_max_oracle(ROOT)
    with pytest.raises(TreeError):
        t.subtree_mean_oracle(1)


def test_dump_text_is_pinned():
    """The ``tree.txt`` format: one line per node, floats in repr form, "-"
    for the root's missing values and key, keys JSON-quoted."""
    t = small_tree()
    t.add_child(2, ActionChunk(('say "hi"', "tab"), 'say("hi");tab'), -1.0)
    t.nodes[ROOT].visit_count = 3
    t.nodes[1].visit_count = 2
    t.nodes[1].q_max = 0.7123456789012345
    assert t.dump() == (
        "# tree v1\n"
        "0 -1 0 3 - - -\n"
        '1 0 1 2 0.7123456789012345 0.3 "a"\n'
        '2 0 1 0 0.5 0.5 "b"\n'
        '3 1 2 0 0.7 0.7 "c"\n'
        '4 2 2 0 -1.0 -1.0 "say(\\"hi\\");tab"\n')
