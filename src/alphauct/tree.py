"""Append-only search-tree arena with subtree-max statistics.

Nodes live in a flat list indexed by dense integer ids; node 0 is the root.
A child enters the tree with its judged value, and only ``add_child`` and
``backup.backpropagate`` write node statistics.  Every judged value is also
appended to an event log (value + the root path it was propagated along),
which powers ``subtree_max_oracle`` and ``subtree_mean_oracle`` — brute-force
recomputations of the max and mean statistics used to audit incremental
backups.

``SearchTree.node`` validates an id at the public edge.  The hot paths of a
search (``selection.select_path``, ``backup.backpropagate``, the loop in
``search``) validate an id once and then index ``nodes`` directly: a valid
node's children and ancestors are valid ids.  Edges (``ActionChunk``) and
events (``EvalEvent``) are immutable named tuples, cheap to build by the
thousand; ``CheckedTuple`` makes ``_make`` and ``_replace`` of a checked
one (``ActionChunk``, ``envs.BanditSpec``, ``envs.ProposerParams``) run
its constructor's check.  A ``NodeRecord`` is mutable: a plain
``__slots__`` class with an explicit ``__init__`` (the root's ``action``
is ``None``, each node gets a fresh ``children`` list), so that importing
the module builds no dataclass.
"""
from __future__ import annotations

import json
import math
from typing import Any, NamedTuple

ROOT = 0
NO_PARENT = -1

# "exhausted" marks a node the proposer could not continue from (a dead end
# discovered at expansion time); it behaves like a terminal for selection.
TERMINAL_KINDS = ("none", "success", "failure", "exhausted")

_DUMP_HEADER = "# tree v1"


class TreeError(ValueError):
    pass


class CheckedTuple:
    """Mixin for a named tuple whose ``__new__`` checks its fields; list it
    before the ``NamedTuple`` base.  The generated ``_make`` and
    ``_replace`` build with ``tuple.__new__`` and would skip the check;
    these go through the constructor, so an unknown ``_replace`` name
    raises ``TypeError`` and a bad value what the check raises."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})


class _Edge(NamedTuple):
    atoms: tuple[str, ...]
    norm_key: str


class ActionChunk(CheckedTuple, _Edge):
    """One tree edge: a short run of primitive actions executed back-to-back.

    An immutable named pair ``(atoms, norm_key)``, checked on construction
    (and by ``_make`` and ``_replace``); expansion builds one per proposed
    candidate.
    """

    __slots__ = ()

    def __new__(cls, atoms: tuple[str, ...], norm_key: str):
        if not atoms:
            raise TreeError("empty action chunk")
        if not norm_key:
            raise TreeError("action chunk without a normalized key")
        return tuple.__new__(cls, (atoms, norm_key))


class EvalEvent(NamedTuple):
    """One judged value and the root-first path it was propagated along."""

    iteration: int
    leaf: int
    value: float
    path: tuple[int, ...]


class NodeRecord:
    """One node's statistics and runtime state, in a fixed field order."""

    __slots__ = ("parent", "depth", "action", "children", "visit_count",
                 "q_max", "q_mean", "init_value", "state_ref", "obs",
                 "terminal")

    def __init__(self, parent: int, depth: int, action: ActionChunk | None,
                 children: list[int] | None = None, visit_count: int = 0,
                 q_max: float | None = None, q_mean: float | None = None,
                 init_value: float | None = None, state_ref: Any = None,
                 obs: Any = None, terminal: str = "none"):
        self.parent = parent
        self.depth = depth
        self.action = action  # None at the root only
        self.children = [] if children is None else children
        self.visit_count = visit_count
        self.q_max = q_max  # best judged value seen anywhere in this subtree
        self.q_mean = q_mean  # running mean of subtree values (ablation mode)
        self.init_value = init_value  # judged score at creation; None at root
        self.state_ref = state_ref  # env snapshot handle, or None under replay
        self.obs = obs  # observation recorded when the node was first reached
        self.terminal = terminal  # none | success | failure | exhausted


def _check_value(value: float) -> float:
    value = float(value)
    if not value == value or not -1.0 <= value <= 1.0:
        raise TreeError(f"value {value!r} outside [-1, 1]")
    return value


class SearchTree:
    """Node arena plus evaluation-event log."""

    def __init__(self, root_state: Any = None, root_obs: Any = None):
        self.nodes: list[NodeRecord] = [
            NodeRecord(parent=NO_PARENT, depth=0, action=None,
                       state_ref=root_state, obs=root_obs)
        ]
        self.events: list[EvalEvent] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> NodeRecord:
        if not 0 <= node_id < len(self.nodes):
            raise TreeError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    def add_child(self, parent: int, action: ActionChunk, init_value: float,
                  *, state_ref: Any = None, obs: Any = None,
                  terminal: str = "none") -> int:
        parent_rec = self.node(parent)
        if not isinstance(action, ActionChunk):
            raise TreeError("child edges require an ActionChunk")
        if terminal not in TERMINAL_KINDS:
            raise TreeError(f"bad terminal flag {terminal!r}")
        init_value = _check_value(init_value)
        child_id = len(self.nodes)
        rec = NodeRecord(parent=parent, depth=parent_rec.depth + 1,
                         action=action, init_value=init_value,
                         q_max=init_value,
                         q_mean=init_value,
                         state_ref=state_ref, obs=obs, terminal=terminal)
        self.nodes.append(rec)
        parent_rec.children.append(child_id)
        return child_id

    def mark_exhausted(self, node_id: int) -> None:
        """Flag a dead end found at expansion time (no admissible continuations)."""
        rec = self.node(node_id)
        if rec.terminal == "none":
            rec.terminal = "exhausted"

    def path_to_root(self, node_id: int) -> list[int]:
        """Node ids from the root down to ``node_id`` (inclusive)."""
        self.node(node_id)  # the parents of a known node are known nodes
        nodes = self.nodes
        path = []
        cur = node_id
        while cur != NO_PARENT:
            path.append(cur)
            cur = nodes[cur].parent
        path.reverse()
        return path

    def subtree_max_oracle(self, node_id: int) -> float:
        """Brute-force max over the node's init value and every logged event
        whose propagation path passes through it."""
        rec = self.node(node_id)
        best = None
        if rec.init_value is not None:
            best = rec.init_value
        for ev in self.events:
            if node_id in ev.path:
                best = ev.value if best is None else max(best, ev.value)
        if best is None:
            raise TreeError(f"node {node_id} has no judged value in its subtree")
        return best

    def subtree_mean_oracle(self, node_id: int) -> float:
        """Exact (``math.fsum``) mean of all logged event values passing
        through the node."""
        self.node(node_id)
        vals = [ev.value for ev in self.events if node_id in ev.path]
        if not vals:
            raise TreeError(f"node {node_id} has no events")
        return math.fsum(vals) / len(vals)

    # -- serialization ------------------------------------------------------
    #
    # One node per line:  id parent depth N q_max init "norm_key"
    # Floats use repr (shortest round-trip form), missing values are "-", the
    # root's key field is "-".  Runtime-only state (snapshots, observations,
    # q_mean, terminal flags, the event log) is not serialized.

    def dump(self) -> str:
        lines = [_DUMP_HEADER]
        for nid, rec in enumerate(self.nodes):
            q = "-" if rec.q_max is None else repr(rec.q_max)
            init = "-" if rec.init_value is None else repr(rec.init_value)
            key = "-" if rec.action is None else json.dumps(rec.action.norm_key)
            lines.append(f"{nid} {rec.parent} {rec.depth} {rec.visit_count} "
                         f"{q} {init} {key}")
        return "\n".join(lines) + "\n"
