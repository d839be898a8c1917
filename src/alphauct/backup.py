"""Value propagation along the root path.

Two modes: ``max`` retains the best value seen in each subtree (sharp signals
survive averaging), ``mean`` is the classic running average kept as an
ablation.  Visit counts increment identically in both modes, so exploration
terms are mode-independent and ablations isolate the exploitation statistic.
"""
from __future__ import annotations

from .tree import EvalEvent, SearchTree, TreeError, _check_value

MAX = "max"
MEAN = "mean"
MODES = (MAX, MEAN)


def backpropagate(tree: SearchTree, leaf: int, value: float, mode: str = MAX,
                  *, iteration: int = 0) -> None:
    """Push one judged value from ``leaf`` up to the root.

    Every node on the path gets a visit; the value statistic updates on proper
    ancestors only — the leaf's own statistic was fixed when it was judged, so
    a fresh evaluation never overwrites the evaluated node itself.
    """
    if mode not in MODES:
        raise ValueError(f"unknown backup mode {mode!r}")
    value = _check_value(value)
    path = tree.path_to_root(leaf)
    for nid in path:
        tree.nodes[nid].visit_count += 1
    for nid in path[:-1]:
        rec = tree.nodes[nid]
        rec.q_max = value if rec.q_max is None else max(rec.q_max, value)
        if mode == MEAN:
            if rec.q_mean is None:
                rec.q_mean = value
            else:
                rec.q_mean += (value - rec.q_mean) / rec.visit_count
    tree.record_event(EvalEvent(iteration=iteration, leaf=leaf, value=value,
                                path=tuple(path)))


def q_for_selection(tree: SearchTree, node_id: int, mode: str = MAX) -> float:
    """The exploitation statistic a selection rule should read under ``mode``."""
    if mode not in MODES:
        raise ValueError(f"unknown backup mode {mode!r}")
    rec = tree.node(node_id)
    q = rec.q_max if mode == MAX else rec.q_mean
    if q is None:
        raise TreeError(f"node {node_id} has no {mode} value yet")
    return q
