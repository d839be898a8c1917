"""Arena invariants: append-only ids, value clamping, tail removal, oracles,
and the dump round-trip."""
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
        SearchTree().add_child(ROOT, "not-a-chunk")  # type: ignore[arg-type]


def test_value_range_enforced():
    t = SearchTree()
    with pytest.raises(TreeError):
        t.add_child(ROOT, chunk("a"), init_value=1.5)
    with pytest.raises(TreeError):
        t.add_child(ROOT, chunk("a"), init_value=float("nan"))
    nid = t.add_child(ROOT, chunk("a"))
    with pytest.raises(TreeError):
        t.set_init_value(nid, -1.0001)
    t.set_init_value(nid, -1.0)  # boundary is legal
    assert t.nodes[nid].init_value == -1.0


def test_set_init_value_is_single_shot():
    t = SearchTree()
    nid = t.add_child(ROOT, chunk("a"))
    t.set_init_value(nid, 0.2)
    with pytest.raises(TreeError):
        t.set_init_value(nid, 0.3)


def test_terminal_kinds():
    assert TERMINAL_KINDS == ("none", "success", "failure", "exhausted")
    t = SearchTree()
    with pytest.raises(TreeError):
        t.add_child(ROOT, chunk("a"), terminal="bogus")
    nid = t.add_child(ROOT, chunk("a"), terminal="success")
    t.mark_exhausted(nid)  # no-op: already terminal
    assert t.nodes[nid].terminal == "success"
    other = t.add_child(ROOT, chunk("b"))
    t.mark_exhausted(other)
    assert t.nodes[other].terminal == "exhausted"


def test_path_to_root():
    t = small_tree()
    assert t.path_to_root(3) == [0, 1, 3]
    assert t.path_to_root(ROOT) == [0]
    with pytest.raises(TreeError):
        t.path_to_root(99)


def test_remove_tail_only_trailing_untouched():
    t = small_tree()
    d = t.add_child(2, chunk("d"))
    e = t.add_child(2, chunk("e"))
    t.remove_tail([d, e])
    assert len(t) == 4
    assert t.node(2).children == []
    # non-trailing ids are rejected
    with pytest.raises(TreeError):
        t.remove_tail([1])
    # judged nodes are rejected even when trailing
    f = t.add_child(2, chunk("f"), init_value=0.1)
    with pytest.raises(TreeError):
        t.remove_tail([f])
    t.remove_tail([])  # empty request is a no-op


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


def test_dump_round_trip():
    t = small_tree()
    t.nodes[ROOT].visit_count = 3
    t.nodes[1].visit_count = 2
    t.nodes[1].q_max = 0.7123456789012345  # exercise repr round-trip
    text = t.dump()
    assert text.startswith("# tree v1\n")
    back = SearchTree.from_dump(text)
    assert len(back) == len(t)
    for nid in range(len(t)):
        a, b = t.nodes[nid], back.nodes[nid]
        assert (a.parent, a.depth, a.visit_count) == (b.parent, b.depth, b.visit_count)
        assert a.q_max == b.q_max
        assert a.init_value == b.init_value
        if nid != ROOT:
            assert a.action.norm_key == b.action.norm_key
    assert back.dump() == text


def test_dump_rejects_mangled_input():
    with pytest.raises(TreeError):
        SearchTree.from_dump("# tree v1\n0 -1 0 0 - -\n")  # six fields
    good = small_tree().dump()
    lines = good.splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # ids out of order
    with pytest.raises(TreeError):
        SearchTree.from_dump("\n".join(lines))
