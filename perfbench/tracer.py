"""Span tracer that times the program's layers from outside.

``Tracer.install`` replaces public module attributes and class methods of the
program with timing wrappers (the way ``verify.inject`` patches
``search.backpropagate``) and ``uninstall`` puts the originals back, so an
untraced pass runs the program's own code untouched.  Every call becomes one
span (id, parent span, operation, name, start, end), kept in memory and
written out by ``write_spans`` at the end.  A span's self time is its
duration minus the time covered by its direct child spans.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

_COLUMNS = ("id", "parent", "op", "name", "start_ns", "end_ns")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1  # index of the operation the next spans belong to
        self.keep_spans = True  # False: aggregate only, keep no more spans
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        self._spans = array("q")  # _COLUMNS per span, flattened
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, args, kwargs)``
        updates counters once the call returns."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self._spans
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                total_ns[nid] += dur
                self_ns[nid] += dur - frame[1]
                if self.keep_spans:
                    spans.extend((sid, parent, self.op, nid, t0, t1))
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            print(f"perfbench: {getattr(owner, '__name__', owner)}.{attr} "
                  f"not found; layer {name} is not traced", file=sys.stderr)
            return
        setattr(owner, attr, self.wrap(name, orig, after))
        self._patches.append((owner, attr, orig))

    # -- the program's layers --------------------------------------------------

    def install(self, mods) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        counts = self.counts

        def after_propose(result, args, kwargs):
            counts["proposer.draws"] += len(result)

        def after_expand(result, args, kwargs):
            counts["expansion.admitted"] += len(result)
            counts["expansion.proposed"] += _arg(args, kwargs, 5, "k")

        def after_comparative(result, args, kwargs):
            counts["judging.calls"] += 1
            counts["judging.items"] += len(_arg(args, kwargs, 1, "siblings"))

        def after_independent(result, args, kwargs):
            n = len(_arg(args, kwargs, 1, "siblings"))
            counts["judging.calls"] += n  # one isolated call per sibling
            counts["judging.items"] += n

        def after_backup(result, args, kwargs):
            tree = _arg(args, kwargs, 0, "tree")
            leaf = _arg(args, kwargs, 1, "leaf")
            counts["backup.path_nodes"] += tree.nodes[leaf].depth + 1

        search = mods.search
        self._patch(search, "run_search", "search.run_search")
        self._patch(search, "select_leaf", "selection.select_leaf")
        self._patch(search, "position_env", "search.position_env")
        self._patch(search, "expand_node", "expansion.expand_node", after_expand)
        self._patch(search, "judge_comparative", "judging.judge_comparative",
                    after_comparative)
        self._patch(search, "judge_independent_set",
                    "judging.judge_independent_set", after_independent)
        self._patch(search, "backpropagate", "backup.backpropagate", after_backup)
        self._patch(search.SimReflector, "reflect", "search.reflect")
        self._patch(mods.expansion, "make_chunk", "expansion.make_chunk")
        self._patch(mods.proposer.SimProposer, "propose", "proposer.propose",
                    after_propose)
        self._patch(mods.envs.GuiGraphEnv, "clone", "envs.clone")
        self._patch(mods.envs.GuiGraphEnv, "step", "envs.step")
        self._patch(mods.tree.SearchTree, "add_child", "tree.add_child")
        for mod in (mods.proposer, mods.judging, mods.regret):
            self._patch(mod, "derive_rng", "rng.derive_rng")
        for fn in ("run_bandit_experiment", "bound_for_spec", "fit_log_regret",
                   "per_seed_log_slopes"):
            self._patch(mods.regret, fn, f"regret.{fn}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) summed over all spans."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return (self.calls[nid], self.total_ns[nid] / 1e9,
                self.self_ns[nid] / 1e9)

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as CSV, in the order they ended; returns the
        count."""
        width = len(_COLUMNS)
        flat = self._spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(",".join(_COLUMNS) + "\n")
            for i in range(0, len(flat), width):
                sid, parent, op, nid, t0, t1 = flat[i:i + width]
                fh.write(f"{sid},{parent},{op},{self.names[nid]},{t0},{t1}\n")
        return len(flat) // width
