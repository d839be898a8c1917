"""Ablation grids and parallelism timing on the navigation fixtures.

The 2x2 grid crosses the backup statistic (max vs mean) with the judging
protocol (comparative vs independent) under a noisy judge and counts goal
discoveries.  The speedup probe runs one configuration serially and with a
judge thread pool under simulated judge latency and checks the trees come out
identical.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from .backup import MAX, MEAN
from .envs import load_fixture
from .judging import COMPARATIVE, INDEPENDENT, SimJudgeSpec
from .search import SearchConfig, search_fixture

# Calibrated on the trap3 fixture so the judge noise actually separates the
# four cells within the iteration budget: a per-call offset of 0.2 is enough
# to punish per-sibling calls, and 10 iterations is tight enough that budget
# soaked by the decoy branches converts into missed goals.
ABLATION_JUDGE = SimJudgeSpec(noise_std=0.05, shared_offset_std=0.2)
ABLATION_CONFIG = SearchConfig(c=0.4, expansion_factor=5, max_iterations=10)


@dataclass(frozen=True)
class AblationCell:
    judge_mode: str
    backup: str
    successes: int
    runs: int

    @property
    def rate(self) -> float:
        return self.successes / self.runs


def run_cell(fixture: str, judge_mode: str, backup: str, seeds: int, *,
             seed0: int = 0, config: SearchConfig = ABLATION_CONFIG,
             judge_spec: SimJudgeSpec = ABLATION_JUDGE) -> AblationCell:
    spec = load_fixture(fixture)
    wins = 0
    for s in range(seed0, seed0 + seeds):
        cfg = replace(config, judge_mode=judge_mode, backup=backup, seed=s)
        wins += search_fixture(spec, cfg, judge_spec).outcome == "success"
    return AblationCell(judge_mode, backup, wins, seeds)


def run_ablation(fixture: str = "trap3", seeds: int = 100, *, seed0: int = 0,
                 config: SearchConfig = ABLATION_CONFIG,
                 judge_spec: SimJudgeSpec = ABLATION_JUDGE) -> list[AblationCell]:
    cells = []
    for judge_mode in (COMPARATIVE, INDEPENDENT):
        for backup in (MAX, MEAN):
            cells.append(run_cell(fixture, judge_mode, backup, seeds,
                                  seed0=seed0, config=config,
                                  judge_spec=judge_spec))
    return cells


def pooled(cells: list[AblationCell], **match) -> tuple[int, int]:
    """(successes, runs) over the cells matching the given field values."""
    wins = runs = 0
    for cell in cells:
        if all(getattr(cell, k) == v for k, v in match.items()):
            wins += cell.successes
            runs += cell.runs
    if runs == 0:
        raise ValueError(f"no cells match {match}")
    return wins, runs


def two_proportion_test(wins1: int, n1: int, wins2: int, n2: int) -> tuple[float, float]:
    """One-sided pooled z-test of rate1 > rate2; returns (z, p_value)."""
    if min(n1, n2) < 1:
        raise ValueError("empty sample")
    p1, p2 = wins1 / n1, wins2 / n2
    pool = (wins1 + wins2) / (n1 + n2)
    se = math.sqrt(pool * (1.0 - pool) * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        return 0.0, 1.0 if p1 <= p2 else 0.0
    z = (p1 - p2) / se
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return z, p


# Each directional claim of the grid as (name, favoured cells, other cells).
# The first two pool over the other factor; the conditional ones hold the
# other factor at one level, because the effect is an interaction: max backup
# only pays under comparative judging, and under independent judging mean
# backup wins (the last entry, a measured fact rather than a claim).
DIRECTIONS = (
    ("max>mean", dict(backup=MAX), dict(backup=MEAN)),
    ("comp>indep", dict(judge_mode=COMPARATIVE), dict(judge_mode=INDEPENDENT)),
    ("max>mean|comp", dict(judge_mode=COMPARATIVE, backup=MAX),
     dict(judge_mode=COMPARATIVE, backup=MEAN)),
    ("comp>indep|max", dict(judge_mode=COMPARATIVE, backup=MAX),
     dict(judge_mode=INDEPENDENT, backup=MAX)),
    ("mean>max|indep", dict(judge_mode=INDEPENDENT, backup=MEAN),
     dict(judge_mode=INDEPENDENT, backup=MAX)),
)


def direction_tests(cells: list[AblationCell]) -> dict[str, tuple[float, float]]:
    """One-sided (z, p) of every entry of ``DIRECTIONS`` on the grid."""
    return {name: two_proportion_test(*pooled(cells, **better),
                                      *pooled(cells, **worse))
            for name, better, worse in DIRECTIONS}


@dataclass(frozen=True)
class SpeedupReport:
    serial_s: float
    parallel_s: float
    workers: int
    trees_equal: bool
    outcomes_equal: bool
    ceiling: float  # Amdahl bound of the tree: judged items / pool rounds

    @property
    def speedup(self) -> float:
        return self.serial_s / self.parallel_s


def _timed_run(spec, cfg: SearchConfig, judge_spec: SimJudgeSpec):
    t0 = time.perf_counter()
    res = search_fixture(spec, cfg, judge_spec)
    return time.perf_counter() - t0, res


def measure_parallel_speedup(fixture: str = "wide16", *, k: int = 8,
                             latency_s: float = 0.05, workers: int = 8,
                             iterations: int = 6, seed: int = 0,
                             judge_noise: float = 0.05) -> SpeedupReport:
    """Same search serially and with `workers` judge-preparation threads.

    The judge carries a per-sibling preparation latency; everything else is
    deterministic, so the two runs must produce identical trees.
    """
    spec = load_fixture(fixture)
    judge_spec = SimJudgeSpec(noise_std=judge_noise, latency_s=latency_s)
    base = SearchConfig(expansion_factor=k, max_iterations=iterations, seed=seed)
    serial_s, serial = _timed_run(spec, base, judge_spec)
    parallel_s, parallel = _timed_run(
        spec, replace(base, parallel_actions=workers), judge_spec)
    # each expanded node's children were one judged sibling set; the pool
    # prepares a set in ceil(b* / workers) latency rounds, serial in b*
    widths = [len(rec.children) for rec in serial.tree.nodes if rec.children]
    return SpeedupReport(
        serial_s=serial_s, parallel_s=parallel_s, workers=workers,
        trees_equal=serial.tree.dump() == parallel.tree.dump(),
        outcomes_equal=(serial.outcome, serial.iterations) ==
                       (parallel.outcome, parallel.iterations),
        ceiling=(sum(widths) / sum(-(-b // workers) for b in widths)
                 if widths else 1.0))
