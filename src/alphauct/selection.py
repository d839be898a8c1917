"""Child selection by alpha-UCT.

A child scores its backed-up value (subtree max, or the running mean under
mean backup) plus a visit-ratio exploration term
c*sqrt(sum_siblings_N / (N+1)); the +1 keeps the ratio defined at zero
visits, so freshly judged children compete on their scores instead of being
force-picked.  ``select_path`` is the one descent from the root: its last
node is each iteration's leaf (``select_leaf``), and at ``c = 0`` it is a
search's best path and verify's recorded walks.  Each entry point checks
``c`` and the backup ``mode`` once per call with the rules ``SearchConfig``
also applies, and scores children from ``tree.nodes`` directly
(``tests/test_selection.py`` holds the score as a standalone oracle,
``alpha_uct_score``).
"""
from __future__ import annotations

import math

from .backup import MAX, MODES
from .tree import ROOT, SearchTree


def check_selection_args(c: float, mode: str) -> None:
    """``c`` finite and >= 0, ``mode`` one of ``backup.MODES``."""
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError("exploration constant must be finite and >= 0")
    if mode not in MODES:
        raise ValueError(f"unknown backup mode {mode!r}")


def _best_child(tree: SearchTree, kids: list[int], c: float,
                use_max: bool) -> int:
    """The highest-scoring of the siblings ``kids``; ties go to the
    earliest-admitted."""
    if len(kids) == 1:  # an only child is picked whatever its score
        return kids[0]
    # q + c*sqrt(sum_siblings_N / (N+1)); every child enters the tree
    # judged, so both of its statistics are set
    nodes = tree.nodes
    recs = [nodes[cid] for cid in kids]
    total = sum(rec.visit_count for rec in recs)
    best, best_score = kids[0], -math.inf
    for cid, rec in zip(kids, recs):
        s = ((rec.q_max if use_max else rec.q_mean)
             + c * math.sqrt(total / (rec.visit_count + 1)))
        if s > best_score:
            best, best_score = cid, s
    return best


def select_path(tree: SearchTree, c: float, mode: str = MAX) -> list[int]:
    """Node ids below the root that repeated child selection visits on its
    way down to a childless node; empty if the root has no children."""
    check_selection_args(c, mode)
    nodes = tree.nodes
    use_max = mode == MAX
    path = []
    node = ROOT
    while kids := nodes[node].children:
        node = _best_child(tree, kids, c, use_max)
        path.append(node)
    return path


def select_leaf(tree: SearchTree, c: float, mode: str = MAX) -> int:
    """The childless node ``select_path`` ends at; the root of a bare tree."""
    path = select_path(tree, c, mode)
    return path[-1] if path else ROOT
