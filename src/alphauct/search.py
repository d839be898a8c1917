"""The search loop: select, expand, judge sibling sets, back up.

Each iteration selects a leaf by alpha-UCT (``selection.select_leaf`` with
the config's ``c`` and backup mode), positions an environment there (stored
snapshot or replay from the root), expands it into deduplicated candidate
chunks, judges the admitted set in one comparative call (or per-sibling
independent calls under ablation), then adds each candidate as a child
carrying its judged value and backs that value up the root path; an
unexpandable leaf re-asserts its own value instead.  A failed judge call
aborts the iteration before anything enters the tree.  The reported best
path is ``selection.select_path`` at zero exploration.

``search_fixture`` wires a search on a fixture (environment, proposer,
judge) and seeds its proposer and judge with the config's seed.

One optional thread pool hides simulated judge latency by running the
per-sibling judge preparation concurrently.  All randomness is keyed by
logical call indexes, so parallel runs are bit-identical to serial ones.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple

from .backup import MAX, backpropagate, q_for_selection
from .envs import GuiGraphEnv, GuiGraphSpec
from .expansion import expand_node
from .judging import (COMPARATIVE, JUDGE_MODES, JudgeFailure, SimJudge,
                      SimJudgeSpec, judge_comparative, judge_independent_set)
from .proposer import TaskInfeasible, proposer_from_fixture
from .selection import check_selection_args, select_leaf, select_path
from .tree import ROOT, ActionChunk, SearchTree

SNAPSHOT = "snapshot"
REPLAY = "replay"
STATE_STRATEGIES = (SNAPSHOT, REPLAY)

OUTCOME_SUCCESS = "success"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_INFEASIBLE = "infeasible"


class ReplayDivergence(RuntimeError):
    """Replay positioning reached a different observation than recorded."""


class StateError(RuntimeError):
    pass


_INT_FIELDS = ("expansion_factor", "max_iterations", "chunk_size", "max_depth",
               "parallel_actions", "seed")


@dataclass(frozen=True)
class SearchConfig:
    """One search's knobs, checked on construction and on every
    ``dataclasses.replace``: the exploration constant ``c``, candidates
    per expansion, the iteration budget, atoms per chunk, the depth limit,
    the backup statistic, the judging protocol, how an environment is
    positioned at a node (snapshot or replay), the threads that prepare
    sibling judgments (0: none) and the seed ``search_fixture`` gives the
    proposer and the judge."""

    c: float = 1.0
    expansion_factor: int = 5
    max_iterations: int = 20
    chunk_size: int = 1
    max_depth: int = 12
    backup: str = MAX
    judge_mode: str = COMPARATIVE
    state_strategy: str = SNAPSHOT
    parallel_actions: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.expansion_factor < 1:
            raise ValueError("expansion_factor must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        check_selection_args(self.c, self.backup)
        if self.judge_mode not in JUDGE_MODES:
            raise ValueError(f"unknown judge mode {self.judge_mode!r}")
        if self.state_strategy not in STATE_STRATEGIES:
            raise ValueError(f"unknown state strategy {self.state_strategy!r}")
        if self.parallel_actions < 0:
            raise ValueError("parallel_actions must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class SimReflector:
    """A stub that ``run_search`` never calls.  Only the benchmark
    (``perfbench/run.py``) passes one to ``run_search``, and only its
    tracer (``perfbench/tracer.py``) wraps ``reflect``; it can go once the
    benchmark drops both."""

    def reflect(self, prev) -> dict[str, float]:
        return {}


class SearchResult(NamedTuple):
    outcome: str
    best_path: tuple[ActionChunk, ...]
    iterations: int
    tree: SearchTree
    trace: tuple[str, ...]
    success_node: int | None = None


def position_env(tree: SearchTree, node_id: int, strategy: str):
    """Fresh environment clone positioned at ``node_id``.

    Snapshot strategy clones the state stored on the node; replay re-executes
    the root-to-node atom sequence on a clone of the root state and hard-fails
    if the reached observation differs from the recorded one.
    """
    if strategy not in STATE_STRATEGIES:
        raise ValueError(f"unknown state strategy {strategy!r}")
    rec = tree.node(node_id)
    if strategy == SNAPSHOT:
        if rec.state_ref is None:
            raise StateError(f"node {node_id} carries no snapshot")
        return rec.state_ref.clone()
    root_state = tree.node(ROOT).state_ref
    if root_state is None:
        raise StateError("replay positioning needs the root snapshot")
    env = root_state.clone()
    for nid in tree.path_to_root(node_id)[1:]:
        for atom in tree.nodes[nid].action.atoms:
            env.step(atom)
        expected = tree.nodes[nid].obs
        if expected is not None and env.observe() != expected:
            raise ReplayDivergence(
                f"replaying to node {nid} reached {env.observe()!r}, "
                f"recorded {expected!r}")
    return env


def extract_best_path(tree: SearchTree) -> tuple[ActionChunk, ...]:
    """Greedy max-value descent from the root; ties to the earliest child."""
    return tuple(tree.nodes[nid].action for nid in select_path(tree, 0.0))


def _fmt_scores(scores) -> str:
    return "[" + ",".join([repr(float(s)) for s in scores]) + "]"


def _reassert(tree: SearchTree, leaf: int, it: int, backup: str) -> str:
    """Back an unexpandable leaf's own value up again, so selection
    statistics move and the visit bonus can steer the walk elsewhere.
    Returns the ``value=`` trace suffix, or '' at the root, which is never
    judged."""
    if leaf == ROOT:
        return ""
    v = q_for_selection(tree, leaf, backup)
    backpropagate(tree, leaf, v, backup, iteration=it)
    return f" value={v!r}"


def run_search(env, proposer, judge, reflector, config: SearchConfig) -> SearchResult:
    """Run the full loop against ``env`` from its current state.

    ``env`` itself is never mutated: iterations work on positioned clones.
    Trace lines (one per iteration plus a closing ``stop`` line) are part of
    the result and documented in the README.  ``reflector`` is not read; the
    benchmark (``perfbench/run.py``) still passes a ``SimReflector`` there.
    """
    snapshots = config.state_strategy == SNAPSHOT
    judge_fn = (judge_comparative if config.judge_mode == COMPARATIVE
                else judge_independent_set)
    tree = SearchTree(root_state=env.clone(), root_obs=env.observe())
    trace: list[str] = []
    outcome = OUTCOME_BUDGET
    success_node: int | None = None
    iterations = 0

    action_pool_cm = nullcontext()
    if config.parallel_actions > 0:
        from concurrent.futures import ThreadPoolExecutor
        action_pool_cm = ThreadPoolExecutor(max_workers=config.parallel_actions)
    with action_pool_cm as action_pool:
        for it in range(1, config.max_iterations + 1):
            iterations = it
            leaf = select_leaf(tree, config.c, config.backup)
            rec = tree.nodes[leaf]
            if rec.terminal != "none" or rec.depth >= config.max_depth:
                trace.append(f"iter={it} kind=revisit leaf={leaf} "
                             f"depth={rec.depth}"
                             + _reassert(tree, leaf, it, config.backup))
                continue
            positioned = position_env(tree, leaf, config.state_strategy)
            try:
                played = expand_node(
                    leaf, proposer, positioned, proposer.ctx,
                    k=config.expansion_factor, chunk_size=config.chunk_size,
                    iteration=it)
            except TaskInfeasible:
                outcome = OUTCOME_INFEASIBLE
                trace.append(f"iter={it} kind=stop outcome=infeasible leaf={leaf}")
                break
            if not played:
                # nothing admissible from here, ever: the proposer draw was
                # empty, so treat the node as a dead end from now on
                tree.mark_exhausted(leaf)
                trace.append(f"iter={it} kind=stalled leaf={leaf}"
                             + _reassert(tree, leaf, it, config.backup))
                continue

            siblings = [(chunk, clone.observe()) for chunk, clone in played]
            try:
                scores = judge_fn(rec.obs, siblings, env.instruction, judge,
                                  call_key=(it,), pool=action_pool)
            except JudgeFailure:
                # abort the iteration: nothing entered the tree, so the leaf
                # stays expandable and a later iteration retries fresh
                trace.append(f"iter={it} kind=judge_failed leaf={leaf} "
                             f"dropped={len(played)}")
                continue
            # a child's back-up touches only its ancestors, so adding and
            # backing up one child at a time leaves every value unchanged
            child_ids = []
            for (chunk, clone), (_, obs), score in zip(played, siblings, scores):
                cid = tree.add_child(leaf, chunk, score,
                                     state_ref=clone if snapshots else None,
                                     obs=obs, terminal=obs.terminal)
                backpropagate(tree, cid, tree.nodes[cid].init_value,
                              config.backup, iteration=it)
                child_ids.append(cid)
            trace.append(
                f"iter={it} kind=expand leaf={leaf} depth={rec.depth} "
                f"b*={len(played)} children={child_ids} "
                f"scores={_fmt_scores(scores)} backup={config.backup}")

            winners = [cid for cid, (_, obs) in zip(child_ids, siblings)
                       if obs.terminal == "success"]
            if winners:
                outcome = OUTCOME_SUCCESS
                success_node = winners[0]
                trace.append(f"iter={it} kind=stop outcome=success "
                             f"node={success_node}")
                break
        else:
            trace.append(f"iter={iterations} kind=stop outcome=budget_exhausted")

    return SearchResult(outcome=outcome, best_path=extract_best_path(tree),
                        iterations=iterations, tree=tree, trace=tuple(trace),
                        success_node=success_node)


def search_fixture(spec: GuiGraphSpec, config: SearchConfig,
                   judge: SimJudgeSpec = SimJudgeSpec(),
                   **proposer_overrides) -> SearchResult:
    """One search on a fixture: its environment, its proposer (fixture
    parameters replaced by ``proposer_overrides``) and a ``SimJudge``
    scoring against its values.  The proposer and the judge both draw under
    ``config.seed``."""
    return run_search(
        GuiGraphEnv(spec),
        proposer_from_fixture(spec, seed=config.seed, **proposer_overrides),
        SimJudge(replace(judge, seed=config.seed), spec.values),
        None, config)
