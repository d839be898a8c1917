"""Value propagation along the root path.

Two modes: ``max`` retains the best value seen in each subtree (sharp signals
survive averaging), ``mean`` is the classic running average kept as an
ablation.  Visit counts increment identically in both modes, so exploration
terms are mode-independent and ablations isolate the exploitation statistic.
``backpropagate`` validates the leaf id once and then reads ``tree.nodes``
directly along the parent links, which a valid id's ancestors always are.
"""
from __future__ import annotations

from .tree import NO_PARENT, EvalEvent, SearchTree, TreeError, _check_value

MAX = "max"
MEAN = "mean"
MODES = (MAX, MEAN)


def backpropagate(tree: SearchTree, leaf: int, value: float, mode: str = MAX,
                  *, iteration: int = 0) -> None:
    """Push one judged value from ``leaf`` up to the root.

    Every node on the path gets a visit; the value statistic updates on proper
    ancestors only — the leaf's own statistic was fixed when it was judged, so
    a fresh evaluation never overwrites the evaluated node itself.  One walk
    up the parent links does both and collects the path for the event log.
    """
    if mode not in MODES:
        raise ValueError(f"unknown backup mode {mode!r}")
    value = _check_value(value)
    nodes = tree.nodes
    if not 0 <= leaf < len(nodes):
        raise TreeError(f"unknown node id {leaf}")
    mean = mode == MEAN
    rec = nodes[leaf]
    rec.visit_count += 1
    path = [leaf]
    nid = rec.parent
    while nid != NO_PARENT:
        path.append(nid)
        rec = nodes[nid]
        rec.visit_count += 1
        if rec.q_max is None or value > rec.q_max:
            rec.q_max = value
        if mean:
            if rec.q_mean is None:
                rec.q_mean = value
            else:
                rec.q_mean += (value - rec.q_mean) / rec.visit_count
        nid = rec.parent
    path.reverse()
    tree.events.append(EvalEvent(iteration, leaf, value, tuple(path)))


def q_for_selection(tree: SearchTree, node_id: int, mode: str = MAX) -> float:
    """The exploitation statistic a selection rule should read under ``mode``."""
    if mode not in MODES:
        raise ValueError(f"unknown backup mode {mode!r}")
    rec = tree.node(node_id)
    q = rec.q_max if mode == MAX else rec.q_mean
    if q is None:
        raise TreeError(f"node {node_id} has no {mode} value yet")
    return q
