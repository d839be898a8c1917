"""End-to-end loop behavior on the built-in fixtures: success paths, trace
structure, chunked edges, state-positioning equivalence, and the abort and
dead-end routes."""
import hashlib
import sys
from dataclasses import replace

import pytest

from alphauct import expansion as expansion_mod
from alphauct import proposer as proposer_mod
from alphauct.envs import GuiGraphEnv, builtin_fixtures, load_fixture
from alphauct.judging import JudgeFailure, SimJudge, SimJudgeSpec
from alphauct.proposer import SimProposer, proposer_from_fixture
from alphauct.search import (OUTCOME_BUDGET, OUTCOME_INFEASIBLE,
                             OUTCOME_SUCCESS, ReplayDivergence, SearchConfig,
                             StateError, extract_best_path, position_env,
                             run_search, search_fixture)
from alphauct.tree import ROOT, ActionChunk, SearchTree

TRACE_KINDS = {"expand", "revisit", "stalled", "judge_failed", "stop"}


def run_fixture(fixture: str, *, noise: float = 0.0, offset: float = 0.0,
                judge_cls=SimJudge, **cfg_kwargs) -> tuple:
    spec = load_fixture(fixture)
    cfg = SearchConfig(**cfg_kwargs)
    judge = judge_cls(SimJudgeSpec(noise_std=noise, shared_offset_std=offset,
                                   seed=cfg.seed), spec.values)
    res = run_search(GuiGraphEnv(spec), proposer_from_fixture(spec, seed=cfg.seed),
                     judge, None, cfg)
    return spec, res


def test_trap3_noiseless_finds_the_vault_route():
    """With a truthful judge the deceptive closet branch must not win."""
    for seed in range(20):
        _, res = run_fixture("trap3", seed=seed, max_iterations=20)
        assert res.outcome == OUTCOME_SUCCESS
        assert [c.norm_key for c in res.best_path] == \
            ["open_lobby", "go_vault", "open_goal"]
        assert res.success_node is not None
        assert res.tree.nodes[res.success_node].terminal == "success"


def test_deep7_needs_chunking_to_fit_budget():
    _, atomic = run_fixture("deep7", chunk_size=1, max_iterations=3)
    assert atomic.outcome == OUTCOME_BUDGET
    _, chunked = run_fixture("deep7", chunk_size=3, max_iterations=6)
    assert chunked.outcome == OUTCOME_SUCCESS
    assert any(len(c.atoms) > 1 for c in chunked.best_path)
    # the chunked route still covers the full 7-step atom sequence
    assert sum(len(c.atoms) for c in chunked.best_path) == 7


def test_trace_structure_and_determinism():
    _, a = run_fixture("wide16", noise=0.1, seed=11, max_iterations=12)
    _, b = run_fixture("wide16", noise=0.1, seed=11, max_iterations=12)
    assert a.trace == b.trace
    assert a.tree.dump() == b.tree.dump()
    for line in a.trace:
        fields = dict(tok.split("=", 1) for tok in line.split()
                      if "=" in tok and not tok.startswith(("children", "scores")))
        assert fields["kind"] in TRACE_KINDS
        assert int(fields["iter"]) >= 1
    assert a.trace[-1].split()[1].startswith("kind=stop")


def test_expand_lines_carry_branching_and_scores():
    _, res = run_fixture("trap3", max_iterations=20)
    expands = [ln for ln in res.trace if "kind=expand" in ln]
    assert expands
    first = expands[0]
    assert "b*=" in first and "scores=[" in first and "backup=max" in first


def test_snapshot_and_replay_agree():
    for fixture in ("trap3", "bottleneck2"):
        _, snap = run_fixture(fixture, noise=0.05, seed=3,
                              state_strategy="snapshot", max_iterations=10)
        _, rep = run_fixture(fixture, noise=0.05, seed=3,
                             state_strategy="replay", max_iterations=10)
        assert snap.trace == rep.trace
        assert snap.tree.dump() == rep.tree.dump()
        assert snap.outcome == rep.outcome


@pytest.mark.parametrize("judge_mode", ["comparative", "independent"])
@pytest.mark.parametrize("strategy", ["snapshot", "replay"])
@pytest.mark.parametrize("fixture", builtin_fixtures())
def test_threaded_judging_equals_serial(fixture, strategy, judge_mode):
    """A judge thread pool changes no draw: the tree, trace and outcome
    equal the serial run's, with threads switching as often as they can."""
    spec = load_fixture(fixture)
    judge = SimJudgeSpec(noise_std=0.05, shared_offset_std=0.2)
    cfg = SearchConfig(max_iterations=12, judge_mode=judge_mode,
                       state_strategy=strategy, seed=3)
    serial = search_fixture(spec, cfg, judge)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = search_fixture(spec, replace(cfg, parallel_actions=3), judge)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.tree.dump() == serial.tree.dump()
    assert threaded.trace == serial.trace
    assert threaded.outcome == serial.outcome


def test_optimal_route_matches_exhaustive_enumeration():
    """Greedy extraction agrees with brute force over all root-to-goal routes."""
    spec = load_fixture("trap3")

    def enumerate_routes(screen, path, seen):
        if screen in spec.goals:
            yield tuple(path)
            return
        for (src, action), dest in spec.edges.items():
            if src == screen and dest not in seen:
                yield from enumerate_routes(dest, path + [action],
                                            seen | {dest})

    routes = list(enumerate_routes(spec.start, [], {spec.start}))
    assert routes
    shortest = min(routes, key=len)
    _, res = run_fixture("trap3", max_iterations=30)
    assert res.outcome == OUTCOME_SUCCESS
    assert [c.norm_key for c in res.best_path] == list(shortest)


def test_judge_failure_aborts_iteration_and_recovers():
    class FlakyJudge(SimJudge):
        calls = 0

        def score_set(self, prepared, instruction, key):
            type(self).calls += 1
            if type(self).calls == 1:
                raise JudgeFailure("transient backend fault")
            return super().score_set(prepared, instruction, key)

    FlakyJudge.calls = 0
    _, res = run_fixture("trap3", judge_cls=FlakyJudge, max_iterations=20)
    failed = [ln for ln in res.trace if "kind=judge_failed" in ln]
    assert len(failed) == 1
    assert "dropped=" in failed[0]
    assert res.outcome == OUTCOME_SUCCESS  # later iteration retried fresh
    # the aborted set never entered the tree: every child is judged
    for nid in range(1, len(res.tree)):
        assert res.tree.nodes[nid].init_value is not None


class FaultyJudge(SimJudge):
    """Raises ``JudgeFailure`` on every third call that can fail, the first
    included: each joint call when comparative, and each isolated call past a
    set's first sibling when independent, so earlier siblings of that set
    were already scored."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = self.faults = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.calls % 3 == 1:
            self.faults += 1
            raise JudgeFailure(f"fault {self.faults}")

    def score_set(self, prepared, instruction, key):
        self._maybe_fail()
        return super().score_set(prepared, instruction, key)

    def score_one(self, prepared, instruction, key):
        if key[-1] > 0:
            self._maybe_fail()
        return super().score_one(prepared, instruction, key)


@pytest.mark.parametrize("judge_mode", ["comparative", "independent"])
@pytest.mark.parametrize("fixture, cfg", [
    ("trap3", dict(seed=2)),
    ("deep7", dict(chunk_size=2, seed=1)),
    ("wide16", dict(seed=4)),
    ("bottleneck2", dict(seed=3)),
])
def test_judge_faults_leave_a_judged_tree(fixture, cfg, judge_mode):
    """Each judge fault costs one iteration and inserts nothing: the tree
    passes the backup oracle and holds no unjudged child, deterministically."""
    spec = load_fixture(fixture)
    config = SearchConfig(judge_mode=judge_mode, max_iterations=12, **cfg)
    runs = []
    for _ in range(2):
        judge = FaultyJudge(SimJudgeSpec(noise_std=0.3, seed=config.seed),
                            spec.values)
        res = run_search(GuiGraphEnv(spec),
                         proposer_from_fixture(spec, seed=config.seed), judge,
                         None, config)
        runs.append((res.tree.dump(), res.trace))
    failed = [ln for ln in res.trace if "kind=judge_failed" in ln]
    assert len(failed) == judge.faults
    # deep7 is a corridor: every sibling set has one member, so an
    # independent judge never makes a call past a first sibling
    assert failed or (fixture, judge_mode) == ("deep7", "independent")
    tree = res.tree
    admitted = [ln.split("b*=")[1].split()[0] for ln in res.trace
                if "kind=expand" in ln]
    assert len(tree) - 1 == sum(map(int, admitted))  # faults inserted nothing
    for nid in range(len(tree)):
        assert tree.nodes[nid].q_max == tree.subtree_max_oracle(nid)
        assert (tree.nodes[nid].init_value is None) == (nid == ROOT)
    assert runs[0] == runs[1]


def test_empty_proposals_route_to_exhausted():
    class SilentProposer:
        ctx = {}

        def propose(self, screen, k, *, iteration, leaf, slot=None):
            return []

    spec = load_fixture("trap3")
    judge = SimJudge(SimJudgeSpec(), spec.values)
    res = run_search(GuiGraphEnv(spec), SilentProposer(), judge,
                     None, SearchConfig(max_iterations=3))
    assert res.outcome == OUTCOME_BUDGET
    assert res.tree.nodes[ROOT].terminal == "exhausted"
    # first attempt stalls; the now-exhausted root only gets revisits after
    assert "kind=stalled" in res.trace[0]
    assert all("kind=revisit" in ln for ln in res.trace[1:-1])
    assert res.best_path == ()


def test_infeasible_proposer_stops_the_search():
    spec = load_fixture("trap3")
    prop = proposer_from_fixture(spec, seed=0, infeasible_after=2)
    judge = SimJudge(SimJudgeSpec(), spec.values)
    res = run_search(GuiGraphEnv(spec), prop, judge, None,
                     SearchConfig(max_iterations=10))
    assert res.outcome == OUTCOME_INFEASIBLE
    assert "outcome=infeasible" in res.trace[-1]


def test_max_depth_caps_expansion():
    _, res = run_fixture("deep7", max_depth=1, max_iterations=6)
    assert res.outcome == OUTCOME_BUDGET
    assert max(rec.depth for rec in res.tree.nodes) == 1
    assert any("kind=revisit" in ln for ln in res.trace)


def test_config_validation():
    for bad in (dict(max_iterations=0), dict(expansion_factor=0),
                dict(chunk_size=0), dict(max_depth=0), dict(c=-1.0),
                dict(backup="median"), dict(judge_mode="jury"),
                dict(state_strategy="teleport"),
                dict(parallel_actions=-1), dict(seed=-1),
                dict(c=float("inf")), dict(max_iterations=2.5),
                dict(expansion_factor=True)):
        with pytest.raises(ValueError):
            SearchConfig(**bad)


def test_position_env_snapshot_and_replay():
    spec = load_fixture("trap3")
    env = GuiGraphEnv(spec)
    tree = SearchTree(root_state=env.clone(), root_obs=env.observe())
    child_env = env.clone()
    child_env.step("open the lobby door")
    cid = tree.add_child(ROOT, ActionChunk(("open the lobby door",), "open_lobby"),
                         0.0, state_ref=child_env, obs=child_env.observe())
    snap = position_env(tree, cid, "snapshot")
    rep = position_env(tree, cid, "replay")
    assert snap.observe() == rep.observe()
    assert snap is not child_env  # positioned envs are clones

    bare = tree.add_child(cid, ActionChunk(("x",), "x"), 0.0)  # no snapshot
    with pytest.raises(StateError):
        position_env(tree, bare, "snapshot")
    with pytest.raises(ValueError):
        position_env(tree, cid, "teleport")

    tree.nodes[cid].obs = None  # replay also works without a recorded obs
    assert position_env(tree, cid, "replay").observe() == snap.observe()


def test_replay_without_a_root_snapshot_raises():
    with pytest.raises(StateError, match="replay positioning needs the root "
                                         "snapshot"):
        position_env(SearchTree(), ROOT, "replay")


def test_replay_divergence_detected():
    spec = load_fixture("trap3")
    env = GuiGraphEnv(spec)
    tree = SearchTree(root_state=env.clone(), root_obs=env.observe())
    child_env = env.clone()
    child_env.step("open the lobby door")
    cid = tree.add_child(ROOT, ActionChunk(("open the closet",), "open_closet"),
                         0.0, state_ref=child_env, obs=child_env.observe())
    # recorded obs came from the lobby route but the edge replays the closet
    with pytest.raises(ReplayDivergence):
        position_env(tree, cid, "replay")


def test_extract_best_path_breaks_ties_earliest():
    t = SearchTree()
    a = t.add_child(ROOT, ActionChunk(("a",), "a"), init_value=0.5)
    t.add_child(ROOT, ActionChunk(("b",), "b"), init_value=0.5)
    t.add_child(a, ActionChunk(("c",), "c"), init_value=0.2)
    t.add_child(a, ActionChunk(("d",), "d"), init_value=0.2)
    path = extract_best_path(t)
    assert [c.norm_key for c in path] == ["a", "c"]


def test_search_fixture_is_the_seeded_hand_wiring():
    """``search_fixture`` seeds the proposer and the judge with the config's
    seed (a seed in the judge spec is replaced) and passes proposer
    overrides through; an unknown override name is an error."""
    spec = load_fixture("trap3")
    cfg = SearchConfig(seed=5, max_iterations=10)
    judge = SimJudgeSpec(noise_std=0.2, shared_offset_std=0.1)
    ref = run_search(GuiGraphEnv(spec),
                     proposer_from_fixture(spec, seed=5, duplicate_rate=0.6),
                     SimJudge(replace(judge, seed=5), spec.values),
                     None, cfg)
    res = search_fixture(spec, cfg, replace(judge, seed=99), duplicate_rate=0.6)
    assert (res.tree.dump(), res.trace) == (ref.tree.dump(), ref.trace)
    plain = search_fixture(spec, cfg, judge)
    assert plain.tree.dump() != res.tree.dump()
    with pytest.raises(TypeError):
        search_fixture(spec, cfg, judge, duplicte_rate=0.6)


def test_pinned_digest_with_every_proposer_override():
    """Both proposer overrides reach the proposer through
    ``search_fixture``: duplicates and an infeasibility declaration after
    iteration 4 that ends the search."""
    res = search_fixture(load_fixture("trap3"),
                         SearchConfig(seed=1, max_iterations=12),
                         SimJudgeSpec(noise_std=0.3), duplicate_rate=0.6,
                         infeasible_after=4)
    kinds = [line.split()[1] for line in res.trace]
    assert kinds == ["kind=expand", "kind=expand", "kind=stalled",
                     "kind=expand"] + ["kind=revisit"] * 3 + ["kind=stop"]
    assert res.outcome == OUTCOME_INFEASIBLE
    blob = res.tree.dump() + "\n".join(res.trace)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "eb1ef3d25e9b8d0e0faed35c07ce9e3179cdc6acef7e56474e4dedf449801650"


@pytest.mark.parametrize("fixture, cfg, digest", [
    ("trap3", dict(seed=7),
     "4ba771c44ba5dfbb1c9c8bb3adebbbca3baf51cccea16e70b70140f059112e2e"),
    ("deep7", dict(chunk_size=2),
     "1a37e9cb77c8a7221c8cd33b94dcb9e86c7162f9b96c30ba72761764dc47af8f"),
    ("wide16", dict(judge_mode="independent"),
     "d54bea32d18435198b49596a0f73723a5fa99907bf4875c120be1fa9781dbda0"),
    # expand, stalled and revisit with a re-asserted value, expand, success
    ("bottleneck2", dict(noise=0.2, seed=3, max_iterations=12),
     "7fa27c36cdbac4a1a484adfaddff073527cd5f62d5d6e7da81cda7fec3e367f2"),
    # the running mean feeds selection; all four kinds
    ("trap3", dict(backup="mean", noise=0.3, seed=2, max_iterations=15),
     "4c70b4dcbf38f1e687a73c9cc2df5e3171320a32ea4a5197acb999181e5fad9e"),
    # replay positioning through two-atom chunks
    ("deep7", dict(state_strategy="replay", chunk_size=2, noise=0.1, seed=6,
                   max_iterations=10),
     "93d902a3c583b4b79e400e5511453a9b6962fe048d06dccdc23b760729461b43"),
])
def test_pinned_search_digests(fixture, cfg, digest):
    """SHA-256 of the tree dump plus the trace, pinned so that a change to
    anything on the search stream shows."""
    _, res = run_fixture(fixture, **cfg)
    blob = res.tree.dump() + "\n".join(res.trace)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("fixture, cfg, overrides", [
    ("trap3", dict(seed=4), dict(duplicate_rate=0.6)),
    ("wide16", dict(seed=1, judge_mode="independent"), {}),
    ("deep7", dict(chunk_size=2, seed=2), dict(duplicate_rate=0.3)),
])
def test_make_chunk_and_derive_rng_run_through_their_modules(
        monkeypatch, fixture, cfg, overrides):
    """Counting wrappers on the module attributes that fault injection and
    the benchmark tracer patch: ``expansion.make_chunk`` runs once per
    non-empty candidate, admitted or not, and ``proposer.derive_rng`` once
    per ``propose`` call that draws (a screen without policy draws
    nothing)."""
    counts = {"make_chunk": 0, "derive_rng": 0, "propose": 0, "heads": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    propose = SimProposer.propose

    def counted_propose(self, *args, **kwargs):
        out = propose(self, *args, **kwargs)
        counts["propose"] += bool(out)
        if kwargs.get("slot") is None:
            counts["heads"] += len(out)  # each head starts one candidate
        return out

    monkeypatch.setattr(expansion_mod, "make_chunk",
                        counted("make_chunk", expansion_mod.make_chunk))
    monkeypatch.setattr(proposer_mod, "derive_rng",
                        counted("derive_rng", proposer_mod.derive_rng))
    monkeypatch.setattr(SimProposer, "propose", counted_propose)
    res = search_fixture(load_fixture(fixture),
                         SearchConfig(max_iterations=15, **cfg),
                         SimJudgeSpec(noise_std=0.2), **overrides)
    children = len(res.tree) - 1
    assert counts["propose"] > 0
    assert counts["derive_rng"] == counts["propose"]
    assert counts["make_chunk"] == counts["heads"]
    assert counts["make_chunk"] >= children
    if overrides.get("duplicate_rate"):
        assert counts["make_chunk"] > children  # rejected candidates counted
