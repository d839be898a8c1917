"""Acceptance suite: every release-gating check as a named criterion.

Each criterion re-derives its expected numbers independently of the code
under test — brute-force oracles over event logs, closed forms, frozen
transcripts of published search walks, or measurement records frozen in this
file — and reports one pass/fail line with the measured quantities.

``run_criteria`` executes any subset; ``inject_fault`` deliberately breaks
one mechanism, a row of ``FAULTS`` that names the criteria it must FAIL,
leaving its audit trail intact so the detectors can be shown to fire.
"""
from __future__ import annotations

# a parallel search imports it on first use; not inside the speedup clock
import concurrent.futures  # noqa: F401
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import expansion as expansion_mod
from . import judging as judging_mod
from . import search as search_mod
from .ablation import direction_tests, run_ablation
from .backup import MAX, MEAN, MODES
from .envs import (UNIFORM, BanditSpec, builtin_fixtures, load_fixture,
                   parse_fixture)
from .expansion import admit_candidates, chunk_key
from .judging import COMPARATIVE, INDEPENDENT, SimJudgeSpec
from .lab import (MdsSpec, SlopeRatio, efficiency_ratio_experiment,
                  freedman_empirical_check, freedman_radius, ratio_table,
                  slope_ratio_ci)
from .manifest import write_csv
from .regret import (ALGO_ALPHA, RegretCurve, bound_for_spec, fit_log_regret,
                     run_bandit_experiment)
from .search import SearchConfig, search_fixture
from .selection import select_path
from .tree import ROOT, ActionChunk, SearchTree

# -- regret-lab experiment design (frozen before the acceptance gate) ---------
#
# The bound/fit grid uses continuous (uniform) noise: under two-point noise a
# laggard arm's empirical mean sits on a lattice, its re-explorations lock to
# nearly the same steps in every seed, and the seed-averaged curve keeps
# staircase kinks that no smooth model fits.  The efficiency sweep must keep
# two-point noise: at sigma_x2 = 0.2 only the minimal-width bounded noise
# stays inside [0, 1].

GRID_KS = (2, 5, 10)
GRID_GAPS = (0.1, 0.2)
GRID_SIGMA2S = (0.01, 0.05)
GRID_HORIZON = 100_000
GRID_SEEDS = 100
SLOPE_RATIO_SEEDS = 1000  # the K=10/K=5 tail-slope ratio sits near 2.3;
#                           the CI must be tight to clear the band's 2.5 edge
RATIO_SWEEP_RHOS = (0.1, 0.25, 0.5, 1.0)
RATIO_SWEEP_SEEDS = 200
# Measured 200-seed bootstrap CI for the rho = 0.25 final-regret ratio was
# [0.2846, 0.2929]; the acceptance band is that CI rounded outward.
RHO25_BAND = (0.28, 0.30)
# The trap3 ablation grid runs 1000 seeds per cell: over ten disjoint
# 100-seed blocks the pooled max > mean test was significant on only one,
# because max backup helps under comparative judging and hurts under
# independent judging.  The conditional tests gate that interaction.
ABLATION_SEEDS = 1000
ABLATION_GATED = ("max>mean", "comp>indep", "max>mean|comp", "comp>indep|max")
# The speedup probe's screen graph: a chain s0 -> s1 -> s2 -> s3 -> goal whose
# first three screens offer 256 equally weighted actions each, so K = 8 draws
# rarely repeat.  At seed 0 both sibling sets of a two-iteration search are
# 8 wide (the criterion checks it), so 8 workers can hide up to 8x of the
# judge's latency.
PROBE_K = 8
PROBE_FIXTURE = "\n".join(
    ["[screens]", "s0 s1 s2 s3 goal", "[start]", "s0", "[goals]", "goal",
     "[edges]", "s3 a0 -> goal"]
    + [f"s{i} a{a} -> s{i + 1}" for i in range(3) for a in range(256)]
    + ["[policy]", "s3 a0 1"]
    + [f"s{i} a{a} 1" for i in range(3) for a in range(256)])


def one_best_arm(k: int, gap: float) -> tuple[float, ...]:
    """``k`` arm means: one best at 0.5 + gap/2, the rest tied at 0.5 - gap/2."""
    return (0.5 + gap / 2.0,) + (0.5 - gap / 2.0,) * (k - 1)


def grid_spec(k: int, gap: float, sigma2: float) -> BanditSpec:
    """``one_best_arm(k, gap)`` under uniform noise of variance sigma2."""
    return BanditSpec(means=one_best_arm(k, gap), sigma_x2=sigma2, rho=1.0,
                      noise=UNIFORM)


def ratio_sweep_spec() -> BanditSpec:
    return BanditSpec(means=one_best_arm(10, 0.1), sigma_x2=0.2, rho=1.0)


GridKey = tuple[int, float, float]  # (K, gap, sigma2)
GRID_KEYS = tuple((k, gap, s2) for k in GRID_KS for gap in GRID_GAPS
                  for s2 in GRID_SIGMA2S)
SLOPE_CELLS = tuple((gap, s2) for gap in GRID_GAPS for s2 in GRID_SIGMA2S)
GRID_COLUMNS = ("k", "gap", "sigma2", "mean_regret", "bound", "slope",
                "r_squared", "linear_r_squared")


def regret_curves() -> dict[str, tuple[tuple[GridKey, int], ...]]:
    """The bandit curves each regret criterion reads, as rows of a grid key
    and a seed count.  ``regret_slope`` reads
    the grid for its tail fits and the K = 10 and K = 5 curves of each
    (gap, sigma2) cell, at more seeds, for its doubling ratios."""
    grid = tuple((key, GRID_SEEDS) for key in GRID_KEYS)
    pairs = tuple(((k, gap, s2), SLOPE_RATIO_SEEDS) for gap, s2 in SLOPE_CELLS
                  for k in (10, 5))
    return {"regret_bound": grid, "regret_slope": grid + pairs}


# -- frozen selection-walk transcripts -----------------------------------------
#
# Two hand-transcribed reference trees, each a (label, parent_label, score)
# list in creation order with the walk the subtree-max rule must reproduce.
# WALK_SETTINGS is a short three-way root choice (the recorded scores came
# from a settings-navigation task); WALK_EXPORT is a deep multi-app task
# whose recorded optimal path survives several near-tie layers.

WALK_SETTINGS = (
    ("1.1", "", 0.729, "click(1908, 90)"),
    ("1.2", "", 0.131, "hotkey('ctrl', ',')"),
    ("1.3", "", 0.289, "hotkey('ctrl', 'l')"),
    ("1.1.1", "1.1", 0.101, "click(1906, 90)"),
    ("1.1.2", "1.1", 0.221, "hotkey('ctrl', 'l')"),
    ("1.1.3", "1.1", 0.731, "write('chrome://settings...')"),
    ("1.1.3.1", "1.1.3", 0.539, "click(1300, 698)"),
    ("1.1.3.2", "1.1.3", 0.491, "click(1302, 698)"),
)
WALK_SETTINGS_PATH = ("1.1", "1.1.3", "1.1.3.1")

WALK_EXPORT = (
    ("1.1", "", 0.855, None),
    ("1.2", "", 0.342, None),
    ("1.1.1", "1.1", 0.140, None),
    ("1.1.2", "1.1", 0.440, None),
    ("1.1.3", "1.1", 0.040, None),
    ("1.1.4", "1.1", 0.856, None),
    ("1.1.4.1", "1.1.4", -0.063, None),
    ("1.1.4.2", "1.1.4", 0.237, None),
    ("1.1.4.3", "1.1.4", 0.337, None),
    ("1.1.4.4", "1.1.4", -0.063, None),
    ("1.1.4.5", "1.1.4", 0.856, None),
    ("1.1.4.5.1", "1.1.4.5", 0.334, None),
    ("1.1.4.5.2", "1.1.4.5", -0.166, None),
    ("1.1.4.5.3", "1.1.4.5", 0.857, None),
    ("1.1.4.5.3.1", "1.1.4.5.3", 0.857, None),
    ("1.1.4.5.3.2", "1.1.4.5.3", -0.170, None),
    ("1.1.4.5.3.1.1", "1.1.4.5.3.1", 0.826, None),
    ("1.1.4.5.3.1.2", "1.1.4.5.3.1", 0.426, None),
    ("1.1.4.5.3.1.3", "1.1.4.5.3.1", 0.859, None),
    ("1.1.4.5.3.1.3.1", "1.1.4.5.3.1.3", 0.421, None),
    ("1.1.4.5.3.1.3.2", "1.1.4.5.3.1.3", 0.811, None),
    ("1.1.4.5.3.1.3.2.1", "1.1.4.5.3.1.3.2", 0.815, None),
    ("1.1.4.5.3.1.3.2.2", "1.1.4.5.3.1.3.2", 0.315, None),
)
WALK_EXPORT_PATH = ("1.1", "1.1.4", "1.1.4.5", "1.1.4.5.3", "1.1.4.5.3.1",
                    "1.1.4.5.3.1.3", "1.1.4.5.3.1.3.2", "1.1.4.5.3.1.3.2.1")


def build_walk_tree(rows) -> tuple[SearchTree, dict[str, int]]:
    """Tree whose node scores are the transcript's recorded per-node values.

    Scores go in as init values (hence q_max); actions fall back to the node
    label when the transcript records none.
    """
    tree = SearchTree()
    ids: dict[str, int] = {"": ROOT}
    for label, parent, score, action in rows:
        surface = action if action is not None else f"goto {label}"
        chunk = ActionChunk((surface,), surface)
        ids[label] = tree.add_child(ids[parent], chunk, init_value=score)
    return tree, ids


def greedy_walk(tree: SearchTree, ids: dict[str, int]) -> tuple[str, ...]:
    """Descend by repeated zero-exploration selection; returns node labels."""
    by_id = {v: k for k, v in ids.items()}
    return tuple(by_id[nid] for nid in select_path(tree, 0.0))


# -- fault injection -----------------------------------------------------------


def _smudge(orig, stat: str, modes: tuple[str, ...]):
    """Every seventh propagation into a tree in one of ``modes`` lowers the
    root's ``stat`` by 0.125 after the real update, which the event log
    cannot explain."""
    def smudged(tree, leaf, value, mode=MAX, *, iteration=0):
        orig(tree, leaf, value, mode, iteration=iteration)
        if mode in modes and len(tree.events) % 7 == 0:
            rec = tree.nodes[ROOT]
            q = getattr(rec, stat)
            if q is not None:
                setattr(rec, stat, max(-1.0, q - 0.125))
    return smudged


def _salt(orig):
    """Each candidate key gets its own raw atoms appended: the admission
    filter stops seeing collisions while the true keys still collide."""
    def salted(atoms, aliases):
        chunk = orig(atoms, aliases)
        return ActionChunk(chunk.atoms, f"{chunk.norm_key}#{chunk.atoms!r}")
    return salted


def _last_first(orig):
    """A pooled preparation returns its items last-first; serial runs are
    untouched."""
    def reordered(parent_obs, siblings, judge, call_key, pool):
        items = orig(parent_obs, siblings, judge, call_key, pool)
        return items if pool is None else items[::-1]
    return reordered


def _stale(orig):
    """Snapshot positioning at a non-root node hands back a clone of the
    parent's state."""
    def stale(tree, node_id, strategy):
        if strategy == search_mod.SNAPSHOT and node_id != ROOT:
            node_id = tree.node(node_id).parent
        return orig(tree, node_id, strategy)
    return stale


# kind -> (module, attribute, wrapper, the criteria that must FAIL under it).
# Each wrapper is a pure function of the search it breaks, so two runs that
# must agree (serial and threaded, snapshot and replay, run and rerun) get
# the same fault.
FAULTS = {
    "backup": (search_mod, "backpropagate",
               lambda orig: _smudge(orig, "q_max", MODES), ("backup_oracle",)),
    "mean": (search_mod, "backpropagate",
             lambda orig: _smudge(orig, "q_mean", (MEAN,)), ("backup_oracle",)),
    # ablation_direction FAILs too, a side effect of the duplicated
    # siblings, not a detection
    "dedup": (expansion_mod, "make_chunk", _salt, ("dedup_law",)),
    "order": (judging_mod, "_prepare_all", _last_first, ("determinism",)),
    # ablation_direction FAILs too (comp>indep), a side effect of the stale
    # states, not a detection
    "snapshot": (search_mod, "position_env", _stale, ("determinism",)),
}


@contextmanager
def inject(kind: str | None):
    """Deliberately break one mechanism, a row of ``FAULTS``, for the block."""
    if kind is None:
        yield
        return
    if kind not in FAULTS:
        raise ValueError(f"unknown fault kind {kind!r} (use one of {tuple(FAULTS)})")
    module, attr, wrap, _ = FAULTS[kind]
    orig = getattr(module, attr)
    setattr(module, attr, wrap(orig))
    try:
        yield
    finally:
        setattr(module, attr, orig)


# -- the criteria ---------------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name:<18} {self.detail}  [{self.elapsed_s:.1f}s]"


class VerifyContext:
    """What the selected criteria share: the regret curves, and the directory
    their tables go to (``None``: no tables).

    Each grid spec runs once, at the largest seed count that any criterion in
    ``names`` reads of it.  A criterion reading fewer seeds gets a contiguous
    copy of the first n seed columns, which equals an n-seed run bit for bit:
    a seed's trajectory does not depend on the batch it runs in.
    """

    def __init__(self, names: Iterable[str] = (), outdir: Path | None = None):
        self.outdir = outdir
        self._rows = regret_curves()
        self._seeds: dict[GridKey, int] = {}
        for name in names:
            for key, n in self._rows.get(name, ()):
                self._seeds[key] = max(n, self._seeds.get(key, 0))
        self._runs: dict[GridKey, RegretCurve] = {}

    def curves(self, name: str) -> dict[tuple[GridKey, int], RegretCurve]:
        """Criterion ``name``'s curves, keyed by (grid key, seed count)."""
        out = {}
        for key, n in self._rows[name]:
            run = self._runs.get(key)
            if run is None or run.n_seeds < n:  # a criterion outside ``names``
                run = self._runs[key] = run_bandit_experiment(
                    grid_spec(*key), ALGO_ALPHA, GRID_HORIZON,
                    max(n, self._seeds.get(key, 0)))
            out[key, n] = run if run.n_seeds == n else run._replace(
                per_seed=np.ascontiguousarray(run.per_seed[:, :n]))
        return out

    def write_table(self, name: str, header, rows) -> None:
        if self.outdir is not None:
            write_csv(self.outdir / name, list(header), rows)


def _search_matrix():
    """(fixture, seed, backup, judge_mode, chunk, noise) for the oracle and
    dedup sweeps: every fixture, both backup statistics, both judging
    protocols, chunked and atomic actions.  The low-noise block exercises the
    fast-success path; the 0.45-noise block misleads the judge badly enough
    that searches run deep into the budget and trees grow large."""
    cases = []
    for fixture in builtin_fixtures():
        chunk = 2 if fixture == "deep7" else 1
        for seed in range(12):
            for backup in (MAX, MEAN):
                cases.append((fixture, seed, backup, COMPARATIVE, chunk, 0.1))
        for seed in range(12):
            for backup in (MAX, MEAN):
                cases.append((fixture, seed + 100, backup, COMPARATIVE, chunk, 0.45))
    for seed in range(8):
        cases.append(("trap3", seed, MAX, INDEPENDENT, 1, 0.1))
        cases.append(("bottleneck2", seed, MEAN, INDEPENDENT, 1, 0.1))
        cases.append(("wide16", seed + 100, MAX, INDEPENDENT, 1, 0.45))
    return cases


CASE_CONFIG = SearchConfig(expansion_factor=5, max_iterations=25)
# the running q_mean's rounding against the exact mean of the same events;
# measured worst over the matrix's MEAN runs: 1.1e-16
Q_MEAN_TOL = 1e-15
BACKUP_CHECK_FLOOR = 1000


def _run_case(fixture: str, seed: int, backup: str, judge_mode: str,
              chunk: int, noise: float = 0.1, **proposer_overrides):
    spec = load_fixture(fixture)
    cfg = replace(CASE_CONFIG, chunk_size=chunk, backup=backup,
                  judge_mode=judge_mode, seed=seed)
    judge = SimJudgeSpec(noise_std=noise, shared_offset_std=0.1)
    return spec, search_fixture(spec, cfg, judge, **proposer_overrides)


def crit_backup_oracle(ctx: VerifyContext) -> tuple[bool, str]:
    """Incremental max statistic == brute-force recomputation from the event
    log, exactly, at every scored node of every randomized run; on the
    mean-backup runs the incremental q_mean is within Q_MEAN_TOL of the exact
    mean of the events through the node."""
    checks = mean_checks = runs = 0
    worst = 0.0
    bad = []
    for fixture, seed, backup, judge_mode, chunk, noise in _search_matrix():
        _, res = _run_case(fixture, seed, backup, judge_mode, chunk, noise)
        runs += 1
        tree = res.tree
        # every node has a q_max: a matrix search judges the root's children
        # in its first iteration
        for nid in range(len(tree)):
            rec = tree.nodes[nid]
            checks += 1
            where = f"{fixture}/s{seed}/{backup}/{judge_mode} node {nid}"
            oracle = tree.subtree_max_oracle(nid)
            if rec.q_max != oracle:
                bad.append(f"{where}: incremental {rec.q_max!r} != oracle "
                           f"{oracle!r}")
            if backup == MEAN and rec.visit_count:
                mean_checks += 1
                oracle = tree.subtree_mean_oracle(nid)
                err = abs(rec.q_mean - oracle)
                worst = max(worst, err)
                if not err <= Q_MEAN_TOL:
                    bad.append(f"{where}: incremental q_mean {rec.q_mean!r} "
                               f"!= oracle {oracle!r}")
    if bad:
        return False, (f"{len(bad)}/{checks + mean_checks} node checks "
                       f"diverged; first: {bad[0]}")
    if checks < BACKUP_CHECK_FLOOR:
        return False, (f"only {checks} node checks ({runs} runs); "
                       f"need >= {BACKUP_CHECK_FLOOR}")
    return True, (f"{checks} exact node checks ({checks - BACKUP_CHECK_FLOOR} "
                  f"over the {BACKUP_CHECK_FLOOR} floor) and {mean_checks} "
                  f"q_mean checks within {Q_MEAN_TOL:g} (worst {worst:.1e}) "
                  f"across {runs} runs")


def crit_dedup_law(ctx: VerifyContext) -> tuple[bool, str]:
    """No two admitted siblings share a true normalized key (recomputed from
    raw atoms, not trusted from the node), b* <= K everywhere, and the
    canonical jittered-coordinate pair collapses."""
    k = CASE_CONFIG.expansion_factor
    nodes_checked = 0
    for fixture, seed, backup, judge_mode, chunk, noise in _search_matrix():
        spec, res = _run_case(fixture, seed, backup, judge_mode, chunk, noise,
                              duplicate_rate=0.6)
        aliases = spec.alias_context()
        tree = res.tree
        for nid in range(len(tree)):
            kids = tree.nodes[nid].children
            if not kids:
                continue
            nodes_checked += 1
            if len(kids) > k:
                return False, (f"{fixture}/s{seed}: node {nid} admitted "
                               f"{len(kids)} > K={k}")
            keys = [chunk_key(tree.nodes[c].action.atoms, aliases) for c in kids]
            if len(set(keys)) != len(keys):
                return False, (f"{fixture}/s{seed}: siblings under node {nid} "
                               f"share a normalized key: {sorted(keys)}")
    pair = admit_candidates([("Click (450, 320)",), ("click(452, 318)",)], {})
    trio = admit_candidates([("click(450, 320)",), ("click(463, 320)",)], {})
    if len(pair) != 1:
        return False, f"jittered coordinate pair admitted {len(pair)} nodes, want 1"
    if len(trio) != 2:
        return False, "distinct-bucket pair wrongly collapsed"
    return True, (f"{nodes_checked} sibling sets unique and within budget; "
                  f"450/452 collapse, 450/463 distinct")


def crit_selection_fixtures(ctx: VerifyContext) -> tuple[bool, str]:
    """Zero-exploration selection reproduces both recorded walks exactly."""
    tree_a, ids_a = build_walk_tree(WALK_SETTINGS)
    path_a = greedy_walk(tree_a, ids_a)
    if path_a != WALK_SETTINGS_PATH:
        return False, f"settings walk {path_a} != {WALK_SETTINGS_PATH}"
    tree_b, ids_b = build_walk_tree(WALK_EXPORT)
    path_b = greedy_walk(tree_b, ids_b)
    if path_b != WALK_EXPORT_PATH:
        return False, f"export walk {path_b} != {WALK_EXPORT_PATH}"
    return True, (f"root pick {path_a[0]}; export walk matches all "
                  f"{len(WALK_EXPORT_PATH)} recorded levels")


def crit_regret_bound(ctx: VerifyContext) -> tuple[bool, str]:
    """Mean final regret <= closed-form bound on every grid config, zero
    tolerance, 100 seeds each.  Writes grid.csv: each config's final regret,
    bound and tail fit."""
    rows = []
    for ((k, gap, s2), _), curve in ctx.curves("regret_bound").items():
        fit = fit_log_regret(curve)
        rows.append((k, gap, s2, float(curve.final.mean()),
                     bound_for_spec(curve.spec, GRID_HORIZON).total,
                     fit.slope, fit.r_squared, fit.linear_r_squared))
    ctx.write_table("grid.csv", GRID_COLUMNS, rows)
    for k, gap, s2, mean_rt, bound, *_ in rows:
        if mean_rt > bound:
            return False, (f"K={k} gap={gap} s2={s2}: mean regret "
                           f"{mean_rt:.3f} > bound {bound:.3f}")
    worst = max(row[3] / row[4] for row in rows)
    return True, f"{len(rows)} configs hold the bound; worst margin {worst:.3f}"


def crit_log_slope(ctx: VerifyContext) -> tuple[bool, str]:
    """Tail of every mean curve is ln-linear (r^2 >= 0.95), and doubling K
    roughly doubles the fitted slope (95% CI inside [1.5, 2.5]).  Writes
    slopes.csv: each (gap, sigma2) cell's K=10 / K=5 slope ratio."""
    curves = ctx.curves("regret_slope")
    r2s = {key: fit_log_regret(curves[key, GRID_SEEDS]).r_squared
           for key in GRID_KEYS}
    ratios = {(gap, s2): slope_ratio_ci(curves[(10, gap, s2), SLOPE_RATIO_SEEDS],
                                        curves[(5, gap, s2), SLOPE_RATIO_SEEDS])
              for gap, s2 in SLOPE_CELLS}
    ctx.write_table("slopes.csv",
                    ["gap", "sigma2", *SlopeRatio._fields],
                    [cell + tuple(sr) for cell, sr in ratios.items()])
    for (k, gap, s2), r2 in r2s.items():
        if r2 < 0.95:
            return False, f"K={k} gap={gap} s2={s2}: tail fit r^2 {r2:.4f} < 0.95"
    for (gap, s2), sr in ratios.items():
        if not (1.5 <= sr.ci_lo and sr.ci_hi <= 2.5):
            return False, (f"gap={gap} s2={s2}: slope ratio {sr.ratio:.3f} "
                           f"CI [{sr.ci_lo:.3f}, {sr.ci_hi:.3f}] leaves [1.5, 2.5]")
    lo = min(sr.ci_lo for sr in ratios.values())
    hi = max(sr.ci_hi for sr in ratios.values())
    return True, (f"min r^2 {min(r2s.values()):.4f}; {len(ratios)} doubling "
                  f"CIs within [{lo:.3f}, {hi:.3f}] subset of [1.5, 2.5]")


def crit_efficiency_ratio(ctx: VerifyContext) -> tuple[bool, str]:
    """Regret ratio vs the blind baseline: < 1 for rho < 1, non-decreasing
    (up to CI overlap), exactly 1 at rho = 1, and the rho = 0.25 point
    inside the frozen measurement band.  Writes ratios.csv, the table of
    ``bandit --rho-grid``."""
    points = efficiency_ratio_experiment(ratio_sweep_spec(), RATIO_SWEEP_RHOS,
                                         GRID_HORIZON, RATIO_SWEEP_SEEDS)
    ctx.write_table("ratios.csv", *ratio_table(points))
    for pt in points:
        if pt.rho < 1.0 and not pt.ratio < 1.0:
            return False, f"rho={pt.rho}: ratio {pt.ratio:.4f} not < 1"
    if points[-1].ratio != 1.0:
        return False, f"rho=1 ratio {points[-1].ratio!r} != 1"
    for a, b in zip(points, points[1:]):
        if b.ratio < a.ratio and b.ci_hi < a.ci_lo:
            return False, (f"ratio decreases from rho={a.rho} to {b.rho} "
                           f"beyond CI overlap")
    quarter = next(pt for pt in points if pt.rho == 0.25)
    lo, hi = RHO25_BAND
    if not lo <= quarter.ratio <= hi:
        return False, (f"rho=0.25 ratio {quarter.ratio:.4f} outside frozen "
                       f"band [{lo}, {hi}]")
    seq = " < ".join(f"{pt.ratio:.4f}" for pt in points)
    return True, f"ratios {seq}; rho=0.25 in [{lo}, {hi}]"


FREEDMAN_EPSILONS = (2.0, 3.0, 4.0, 5.0, 6.5)
FREEDMAN_VCAPS = (7.0, 8.5, 10.0, 12.0, 14.4)


def crit_freedman_tail(ctx: VerifyContext) -> tuple[bool, str]:
    """Martingale tail rates never significantly beat the closed-form bound,
    on a 5x5 (epsilon, v) grid with a variance-varying walk (all 25 cells
    read one sample of 10,000 walks); the radius formula matches its hand
    value."""
    hand = freedman_radius(100, 0.04, 0.01)
    if abs(hand - 0.09140) > 1e-4:
        return False, f"radius(100, 0.04, 0.01) = {hand:.6f}, want 0.09140 +- 1e-4"
    mds = MdsSpec(scale=0.08, scale_hi=0.12)
    worst = -math.inf
    for cell in freedman_empirical_check(mds, 1000, FREEDMAN_EPSILONS,
                                         FREEDMAN_VCAPS, trials=10_000):
        slack = cell.rate - (cell.bound + 3.0 * cell.binom_std)
        worst = max(worst, slack)
        if slack > 0:
            return False, (f"eps={cell.epsilon} v={cell.v_cap}: rate "
                           f"{cell.rate:.4f} beats bound {cell.bound:.4f} "
                           f"+ 3 std")
    return True, (f"25 cells clean (worst slack {worst:+.4f}); "
                  f"radius hand value {hand:.5f}")


def crit_ablation_direction(ctx: VerifyContext) -> tuple[bool, str]:
    """On the decoy-heavy fixture, at p < 0.05 each: max backup beats mean
    backup and comparative judging beats per-sibling judging, pooled over
    the other factor, and also max beats mean within comparative judging and
    comparative beats independent within max backup.  Mean beating max under
    independent judging is reported, not gated."""
    cells = run_ablation("trap3", ABLATION_SEEDS)
    tests = direction_tests(cells)
    for name in ABLATION_GATED:
        z, p = tests[name]
        if p >= 0.05:
            return False, f"{name}: z={z:.3f} p={p:.4f} not significant"
    rates = {(c.judge_mode, c.backup): c.rate for c in cells}
    cell_str = " ".join(f"{jm[:4]}/{b}={rates[(jm, b)]:.3f}"
                        for jm in (COMPARATIVE, INDEPENDENT)
                        for b in (MAX, MEAN))
    gated = ", ".join(f"{name} p={tests[name][1]:.2e}" for name in ABLATION_GATED)
    z, p = tests["mean>max|indep"]
    return True, (f"{ABLATION_SEEDS} seeds: {cell_str}; {gated}; "
                  f"not gated: mean>max|indep z={z:.2f} p={p:.2e}")


def crit_parallel_speedup(ctx: VerifyContext) -> tuple[bool, str]:
    """Eight judge-preparation workers under 50 ms latency on the probe
    graph's two K = 8 sibling sets: every set K wide, at least 2x wall
    clock, the same tree, trace and outcome.  Every probe sibling reaches
    the same screen, so that comparison cannot see the order of the
    prepared items; ``determinism`` compares serial and threaded runs where
    it can."""
    spec = parse_fixture(PROBE_FIXTURE, name="speedup-probe")
    judge = SimJudgeSpec(noise_std=0.05, latency_s=0.05)
    workers = 8
    base = SearchConfig(expansion_factor=PROBE_K, max_iterations=2)
    runs = []
    for cfg in (base, replace(base, parallel_actions=workers)):
        t0 = time.perf_counter()
        res = search_fixture(spec, cfg, judge)
        runs.append((time.perf_counter() - t0, res))
    (serial_s, serial), (parallel_s, parallel) = runs
    # the trace has a line per iteration, so it covers ``iterations``
    if (serial.tree.dump(), serial.trace, serial.outcome) != \
            (parallel.tree.dump(), parallel.trace, parallel.outcome):
        return False, "parallel run produced a different tree, trace or outcome"
    # each expanded node's children were one judged sibling set; the pool
    # prepares a set in ceil(b* / workers) latency rounds, serial in b*
    widths = [len(rec.children) for rec in serial.tree.nodes if rec.children]
    if not widths or min(widths) < PROBE_K:
        return False, f"sibling set widths {widths} < K = {PROBE_K}"
    ceiling = sum(widths) / sum(-(-b // workers) for b in widths)
    speedup = serial_s / parallel_s
    if speedup < 2.0:
        return False, (f"speedup {speedup:.2f}x < 2x ({serial_s:.2f}s vs "
                       f"{parallel_s:.2f}s, ceiling {ceiling:.2f}x)")
    return True, (f"{speedup:.1f}x ({serial_s:.2f}s -> {parallel_s:.2f}s), "
                  f"ceiling {ceiling:.2f}x, trees identical")


def crit_determinism(ctx: VerifyContext) -> tuple[bool, str]:
    """Manifest-driven reruns reproduce artifacts byte-for-byte, and on
    every fixture replay positioning retraces snapshot positioning and a
    search with a two-thread judge pool retraces the serial search: the
    same tree, trace and outcome."""
    import io
    import tempfile
    from contextlib import redirect_stdout

    from .cli import main as cli_main

    def quiet_cli(argv) -> int:
        with redirect_stdout(io.StringIO()):
            return cli_main(argv)

    def artifact_bytes(outdir: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
                if p.name != "manifest.json"}

    commands = {
        "search": ["search", "--env", "trap3", "--iters", "20", "--expansion",
                   "5", "--chunk", "1", "--backup", "max", "--judge",
                   "comparative", "--seed", "7"],
        "bandit": ["bandit", "--arms", "5", "--gap", "0.1", "--sigma2", "0.05",
                   "--rho", "0.5", "--horizon", "20000", "--seeds", "20"],
        "ablate": ["ablate", "--fixture", "trap3", "--seeds", "5"],
    }
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        for name, argv in commands.items():
            first, again = tmp / f"{name}1", tmp / f"{name}2"
            code = quiet_cli(argv + ["--out", str(first)])
            if code != 0:
                return False, f"{name} run exited {code}"
            code = quiet_cli(["rerun", str(first / "manifest.json"),
                              "--out", str(again)])
            if code != 0:
                return False, f"{name} manifest rerun exited {code}"
            a, b = artifact_bytes(first), artifact_bytes(again)
            # an artifact only one side wrote differs too
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            if diff:
                return False, f"{name} rerun differs in {diff}"
    base = SearchConfig(expansion_factor=4, max_iterations=8, seed=3)
    configs = {"snapshot": base, "replay": replace(base, state_strategy="replay"),
               "threaded": replace(base, parallel_actions=2)}
    for fixture in builtin_fixtures():
        spec = load_fixture(fixture)
        runs = {}
        for name, cfg in configs.items():
            res = search_fixture(spec, cfg, SimJudgeSpec(noise_std=0.05))
            runs[name] = (res.tree.dump(), res.trace, res.outcome)
        if runs["snapshot"] != runs["replay"]:
            return False, f"{fixture}: snapshot and replay runs diverge"
        if runs["snapshot"] != runs["threaded"]:
            return False, f"{fixture}: serial and threaded runs diverge"
    n = len(builtin_fixtures())
    return True, (f"3 manifest reruns byte-identical; snapshot == replay "
                  f"== threaded on {n} fixtures")


CRITERIA: tuple[tuple[str, Callable[[VerifyContext], tuple[bool, str]]], ...] = (
    ("backup_oracle", crit_backup_oracle),
    ("dedup_law", crit_dedup_law),
    ("selection_fixtures", crit_selection_fixtures),
    ("regret_bound", crit_regret_bound),
    ("regret_slope", crit_log_slope),
    ("regret_ratio", crit_efficiency_ratio),
    ("regret_freedman", crit_freedman_tail),
    ("ablation_direction", crit_ablation_direction),
    ("parallel_speedup", crit_parallel_speedup),
    ("determinism", crit_determinism),
)
CRITERION_NAMES = tuple(name for name, _ in CRITERIA)


def run_criteria(names: Sequence[str] | None = None, *,
                 inject_fault: str | None = None, out=None,
                 outdir: Path | None = None) -> list[CriterionResult]:
    """Run the named criteria (all by default) and return their results.

    ``names`` entries match by substring, so ``["regret"]`` selects the
    regret-lab criteria.  ``out`` is an optional stream that receives each
    result line as it lands.  With ``outdir``, the regret criteria that run
    write their tables there: grid.csv, slopes.csv and ratios.csv.
    """
    selected = []
    for name, fn in CRITERIA:
        if names is None or any(pat in name for pat in names):
            selected.append((name, fn))
    if names is not None and not selected:
        raise ValueError(f"no criterion matches {list(names)!r} "
                         f"(known: {', '.join(CRITERION_NAMES)})")
    ctx = VerifyContext([name for name, _ in selected], outdir)
    results = []
    with inject(inject_fault):
        for name, fn in selected:
            t0 = time.perf_counter()
            try:
                passed, detail = fn(ctx)
            except Exception as exc:  # a crashed criterion is a failed criterion
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            res = CriterionResult(name=name, passed=passed, detail=detail,
                                  elapsed_s=time.perf_counter() - t0)
            results.append(res)
            if out is not None:
                print(res.line(), file=out, flush=True)
    return results
