"""Child-selection rules.

The primary rule scores a child by its subtree-max value plus a visit-ratio
exploration term c*sqrt(sum_siblings_N / (N+1)); the +1 keeps the ratio
defined at zero visits, so freshly judged children compete on their scores
instead of being force-picked.  The classic log-ratio rule is kept for
ablations and is undefined at zero visits (callers pick unvisited children
first, as usual).  ``select_leaf`` validates its start node once and scores
children from ``tree.nodes`` directly, with ``alpha_uct_score``'s
expression written out in the same float order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .backup import MAX, MODES, q_for_selection
from .tree import ROOT, SearchTree, TreeError

ALPHA_UCT = "alpha_uct"
STANDARD_UCT = "standard_uct"
KINDS = (ALPHA_UCT, STANDARD_UCT)


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str = ALPHA_UCT
    c: float = 1.0
    value_mode: str = "max"  # which backed-up statistic feeds exploitation

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if not self.c >= 0.0:
            raise ValueError("exploration constant must be >= 0")
        if self.value_mode not in MODES:
            raise ValueError(f"unknown value mode {self.value_mode!r}")


def alpha_uct_score(q: float, n_action: int, n_siblings_total: int,
                    c: float) -> float:
    """q + c*sqrt(n_siblings_total / (n_action + 1))."""
    if n_action < 0 or n_siblings_total < 0:
        raise ValueError("visit counts must be non-negative")
    return q + c * math.sqrt(n_siblings_total / (n_action + 1))


def uct_score(q: float, n_action: int, n_parent: int, c: float) -> float:
    """q + c*sqrt(ln(n_parent) / n_action); zero visits are an error here."""
    if n_action <= 0:
        raise ValueError("log-ratio score undefined at zero visits")
    if n_parent < 1:
        raise ValueError("parent visit count must be >= 1")
    return q + c * math.sqrt(math.log(n_parent) / n_action)


def select_child(tree: SearchTree, node_id: int,
                 policy: SelectionPolicy) -> int:
    """Highest-scoring child of ``node_id``; ties go to the earliest-admitted."""
    kids = tree.node(node_id).children
    if not kids:
        raise TreeError(f"node {node_id} has no children")
    return _best_child(tree, node_id, kids, policy)


def _best_child(tree: SearchTree, node_id: int, kids: list[int],
                policy: SelectionPolicy) -> int:
    """``select_child`` on a known node with children ``kids``."""
    if len(kids) == 1:  # both rules pick an only child, whatever its score
        return kids[0]
    nodes = tree.nodes
    if policy.kind == STANDARD_UCT:
        for cid in kids:
            if nodes[cid].visit_count == 0:
                return cid
        n_parent = max(1, nodes[node_id].visit_count)
        best, best_score = kids[0], -math.inf
        for cid in kids:
            s = uct_score(q_for_selection(tree, cid, policy.value_mode),
                          nodes[cid].visit_count, n_parent, policy.c)
            if s > best_score:
                best, best_score = cid, s
        return best
    # alpha_uct_score inline, same float expression; every child enters the
    # tree judged, so both of its statistics are set
    c = policy.c
    use_max = policy.value_mode == MAX
    recs = [nodes[cid] for cid in kids]
    total = sum(rec.visit_count for rec in recs)
    best, best_score = kids[0], -math.inf
    for cid, rec in zip(kids, recs):
        s = ((rec.q_max if use_max else rec.q_mean)
             + c * math.sqrt(total / (rec.visit_count + 1)))
        if s > best_score:
            best, best_score = cid, s
    return best


def select_leaf(tree: SearchTree, policy: SelectionPolicy,
                start: int = ROOT) -> int:
    """Descend by repeated child selection until a childless node is reached."""
    tree.node(start)  # _best_child only returns known nodes
    nodes = tree.nodes
    node = start
    while kids := nodes[node].children:
        node = _best_child(tree, node, kids, policy)
    return node
