"""Append-only search-tree arena with subtree-max statistics.

Nodes live in a flat list indexed by dense integer ids; node 0 is the root.
Every judged value is also appended to an event log (value + the root path it
was propagated along), which powers ``subtree_max_oracle`` — a brute-force
recomputation of the max statistic used to audit incremental backups.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

ROOT = 0
NO_PARENT = -1

# "exhausted" marks a node the proposer could not continue from (a dead end
# discovered at expansion time); it behaves like a terminal for selection.
TERMINAL_KINDS = ("none", "success", "failure", "exhausted")

_DUMP_HEADER = "# tree v1"


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class ActionChunk:
    """One tree edge: a short run of primitive actions executed back-to-back."""

    atoms: tuple[str, ...]
    norm_key: str

    def __post_init__(self):
        if not self.atoms:
            raise TreeError("empty action chunk")
        if not self.norm_key:
            raise TreeError("action chunk without a normalized key")


@dataclass(frozen=True)
class EvalEvent:
    """One judged value and the root-first path it was propagated along."""

    iteration: int
    leaf: int
    value: float
    path: tuple[int, ...]


@dataclass
class NodeRecord:
    parent: int
    depth: int
    action: ActionChunk | None  # None at the root only
    children: list[int] = field(default_factory=list)
    visit_count: int = 0
    q_max: float | None = None  # best judged value seen anywhere in this subtree
    q_mean: float | None = None  # running mean of subtree values (ablation mode)
    init_value: float | None = None  # judged score at creation; None until judged
    state_ref: Any = None  # env snapshot handle, or None under replay positioning
    obs: Any = None  # observation recorded when the node was first reached
    terminal: str = "none"  # none | success | failure | exhausted


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

    def add_child(self, parent: int, action: ActionChunk,
                  init_value: float | None = None, *, state_ref: Any = None,
                  obs: Any = None, terminal: str = "none") -> int:
        parent_rec = self.node(parent)
        if not isinstance(action, ActionChunk):
            raise TreeError("child edges require an ActionChunk")
        if terminal not in TERMINAL_KINDS:
            raise TreeError(f"bad terminal flag {terminal!r}")
        if init_value is not None:
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

    def set_init_value(self, node_id: int, value: float) -> None:
        """Attach the judged creation score to a node added unscored."""
        rec = self.node(node_id)
        if rec.init_value is not None:
            raise TreeError(f"node {node_id} already judged")
        value = _check_value(value)
        rec.init_value = value
        rec.q_max = value if rec.q_max is None else max(rec.q_max, value)
        if rec.q_mean is None:
            rec.q_mean = value

    def mark_exhausted(self, node_id: int) -> None:
        """Flag a dead end found at expansion time (no admissible continuations)."""
        rec = self.node(node_id)
        if rec.terminal == "none":
            rec.terminal = "exhausted"

    def remove_tail(self, node_ids: Sequence[int]) -> None:
        """Back out freshly added, never-touched children (judging aborted).

        Only the most recent ids can be removed, and only while they carry no
        statistics; this keeps the arena contiguous and the event log intact.
        """
        ids = sorted(int(n) for n in node_ids)
        if not ids:
            return
        if ids != list(range(len(self.nodes) - len(ids), len(self.nodes))):
            raise TreeError("only the trailing nodes can be removed")
        for nid in ids:
            rec = self.nodes[nid]
            if rec.children or rec.visit_count or rec.init_value is not None:
                raise TreeError(f"node {nid} already carries statistics")
        parents = {self.nodes[nid].parent for nid in ids}
        del self.nodes[ids[0]:]
        for pid in parents:
            kept = [c for c in self.nodes[pid].children if c < ids[0]]
            self.nodes[pid].children = kept

    def path_to_root(self, node_id: int) -> list[int]:
        """Node ids from the root down to ``node_id`` (inclusive)."""
        path = []
        cur = node_id
        while cur != NO_PARENT:
            path.append(cur)
            cur = self.node(cur).parent
        path.reverse()
        if path[0] != ROOT:
            raise TreeError(f"node {node_id} is not rooted")
        return path

    def record_event(self, event: EvalEvent) -> None:
        self.events.append(event)

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
        """Mean of all logged event values passing through the node."""
        self.node(node_id)
        vals = [ev.value for ev in self.events if node_id in ev.path]
        if not vals:
            raise TreeError(f"node {node_id} has no events")
        return sum(vals) / len(vals)

    # -- serialization ------------------------------------------------------
    #
    # One node per line:  id parent depth N q_max init "norm_key"
    # Floats use repr (shortest round-trip form), missing values are "-", the
    # root's key field is "-".  Runtime-only state (snapshots, observations,
    # q_mean, terminal flags, the event log) is not serialized; loaded chunks
    # carry their normalized atom forms, recovered by splitting the key.

    def dump(self) -> str:
        lines = [_DUMP_HEADER]
        for nid, rec in enumerate(self.nodes):
            q = "-" if rec.q_max is None else repr(rec.q_max)
            init = "-" if rec.init_value is None else repr(rec.init_value)
            key = "-" if rec.action is None else json.dumps(rec.action.norm_key)
            lines.append(f"{nid} {rec.parent} {rec.depth} {rec.visit_count} "
                         f"{q} {init} {key}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dump(cls, text: str) -> "SearchTree":
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        tree = cls()
        for expect_id, line in enumerate(lines):
            parts = line.split(" ", 6)
            if len(parts) != 7:
                raise TreeError(f"bad dump line: {line!r}")
            nid, parent, depth, visits = (int(parts[0]), int(parts[1]),
                                          int(parts[2]), int(parts[3]))
            if nid != expect_id:
                raise TreeError(f"non-dense node id {nid} in dump")
            q_max = None if parts[4] == "-" else float(parts[4])
            init = None if parts[5] == "-" else float(parts[5])
            if parts[6] == "-":
                action = None
            else:
                key = json.loads(parts[6])
                action = ActionChunk(tuple(key.split(";")), key)
            if nid == ROOT:
                if parent != NO_PARENT or action is not None:
                    raise TreeError("malformed root line")
                rec = tree.nodes[ROOT]
                rec.visit_count, rec.q_max, rec.init_value = visits, q_max, init
            else:
                cid = tree.add_child(parent, action)
                rec = tree.nodes[cid]
                rec.visit_count, rec.q_max, rec.init_value = visits, q_max, init
                if rec.depth != depth:
                    raise TreeError(f"inconsistent depth for node {nid}")
        return tree
