"""Workload generator: the inputs each benchmark workload feeds the program.

Every input is plain data and a pure function of the workload seed.  Seed 0
reproduces the seeds of the acceptance criteria in ``alphauct.verify``
exactly (``selftest.py`` pins this against the program).  Seed ``n`` shifts
every search seed by ``n * SEARCH_SEED_STRIDE`` and every bandit seed window
by ``n * n_seeds``, so the inputs of two workload seeds never overlap.

The constants are copied, not imported, so that a later refactor of the
acceptance suite cannot silently change what the benchmark measures.
"""
from __future__ import annotations

from dataclasses import dataclass, field

SEARCH_VERIFY = "search_verify"
BANDIT_NARROW = "bandit_narrow"
BANDIT_WIDE = "bandit_wide"
WORKLOADS = (SEARCH_VERIFY, BANDIT_NARROW, BANDIT_WIDE)

# larger than every seed the acceptance criteria use (111)
SEARCH_SEED_STRIDE = 1000

FIXTURES = ("bottleneck2", "deep7", "trap3", "wide16")


@dataclass(frozen=True)
class SearchCase:
    """One ``run_search`` call: which verify slice it comes from, the fixture,
    the ``SearchConfig`` and ``SimJudgeSpec`` fields, and the proposer
    overrides.  The proposer is seeded with ``config["seed"]``."""

    slice: str
    fixture: str
    config: dict
    judge: dict
    proposer_overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BanditCase:
    """One ``run_bandit_experiment`` call on a ``grid_spec``-style bandit:
    one best arm at 0.5 + gap/2, the other K-1 tied at 0.5 - gap/2."""

    k: int
    gap: float
    sigma2: float
    algo: str
    horizon: int
    n_seeds: int
    seed0: int

    @property
    def means(self) -> tuple[float, ...]:
        return (0.5 + self.gap / 2.0,) + (0.5 - self.gap / 2.0,) * (self.k - 1)


def _matrix(shift: int) -> list[tuple]:
    """(fixture, seed, backup, judge_mode, chunk, noise): verify's
    ``_search_matrix()`` with every seed shifted."""
    cases = []
    for fixture in FIXTURES:
        chunk = 2 if fixture == "deep7" else 1
        for seed in range(12):
            for backup in ("max", "mean"):
                cases.append((fixture, seed + shift, backup, "comparative", chunk, 0.1))
        for seed in range(12):
            for backup in ("max", "mean"):
                cases.append((fixture, seed + 100 + shift, backup, "comparative",
                              chunk, 0.45))
    for seed in range(8):
        cases.append(("trap3", seed + shift, "max", "independent", 1, 0.1))
        cases.append(("bottleneck2", seed + shift, "mean", "independent", 1, 0.1))
        cases.append(("wide16", seed + 100 + shift, "max", "independent", 1, 0.45))
    return cases


def _matrix_case(slice_name, row, overrides=None) -> SearchCase:
    fixture, seed, backup, judge_mode, chunk, noise = row
    return SearchCase(
        slice=slice_name, fixture=fixture,
        config=dict(expansion_factor=5, max_iterations=25, chunk_size=chunk,
                    backup=backup, judge_mode=judge_mode, seed=seed),
        judge=dict(noise_std=noise, shared_offset_std=0.1, seed=seed),
        proposer_overrides=dict(overrides or {}))


def search_cases(seed: int) -> list[SearchCase]:
    """The 644 ``run_search`` calls of one verify pass, in verify's order:
    backup_oracle (216), dedup_law (20), ablation_direction (400) and
    determinism (8)."""
    shift = seed * SEARCH_SEED_STRIDE
    matrix = _matrix(shift)
    cases = [_matrix_case("backup_oracle", row) for row in matrix]
    cases += [_matrix_case("dedup_law", row, {"duplicate_rate": 0.6})
              for row in matrix[:20]]
    for judge_mode in ("comparative", "independent"):
        for backup in ("max", "mean"):
            for s in range(shift, shift + 100):
                cases.append(SearchCase(
                    slice="ablation_direction", fixture="trap3",
                    config=dict(c=0.4, expansion_factor=5, max_iterations=10,
                                judge_mode=judge_mode, backup=backup, seed=s),
                    judge=dict(noise_std=0.05, shared_offset_std=0.2, seed=s)))
    for fixture in FIXTURES:
        for strategy in ("snapshot", "replay"):
            cases.append(SearchCase(
                slice="determinism", fixture=fixture,
                config=dict(expansion_factor=4, max_iterations=8, seed=3 + shift,
                            state_strategy=strategy),
                judge=dict(noise_std=0.05, seed=3 + shift)))
    return cases


def bandit_case(workload: str, seed: int) -> BanditCase:
    """``bandit_narrow``: one ``regret_bound`` grid curve (K=10, gap 0.1,
    sigma^2 0.05, 100 seeds, T=100k).  ``bandit_wide``: the same bandit at
    1000 seeds and T=20k, a prefix of ``regret_slope``'s K=10 runs."""
    if workload == BANDIT_NARROW:
        n_seeds, horizon = 100, 100_000
    elif workload == BANDIT_WIDE:
        n_seeds, horizon = 1000, 20_000
    else:
        raise ValueError(f"not a bandit workload: {workload!r}")
    return BanditCase(k=10, gap=0.1, sigma2=0.05, algo="alpha", horizon=horizon,
                      n_seeds=n_seeds, seed0=seed * n_seeds)
