"""The regret lab's experiments that no bandit run needs: the Freedman
(martingale tail) check behind the confidence radius, and the bootstrap
ratio CIs of ``slopes.csv`` and ``ratios.csv``.  ``verify`` and ``cli``
import this module; ``import alphauct`` does not.  Every bandit run goes
through ``regret.run_bandit_experiment``, looked up at call time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import regret
from .envs import BanditSpec
from .rng import derive_rng

N_BOOT = 2000  # bootstrap resamples behind every ratio CI


# -- martingale tail check ----------------------------------------------------


def freedman_radius(n: int, sigma2: float, delta: float) -> float:
    """Bernstein-style confidence radius at sample size n:
    sqrt(2*sigma2*ln(1/delta)/n) + 2*ln(1/delta)/(3*n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be >= 0")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    log_term = math.log(1.0 / delta)
    return math.sqrt(2.0 * sigma2 * log_term / n) + 2.0 * log_term / (3.0 * n)


@dataclass(frozen=True)
class MdsSpec:
    """Bounded martingale-difference generator: a predictable two-regime
    walk d = +-scale_now, where the next step uses ``scale_hi`` while the
    running sum is negative and ``scale`` otherwise, so the quadratic
    variation V_n varies across trials.  With ``scale_hi == scale`` it is
    the plain +-scale walk.
    """

    scale: float
    scale_hi: float

    def __post_init__(self):
        for name in ("scale", "scale_hi"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {value!r}")


class FreedmanCell(NamedTuple):
    epsilon: float
    v_cap: float
    n: int
    trials: int
    rate: float
    bound: float

    @property
    def binom_std(self) -> float:
        return math.sqrt(self.bound * (1.0 - self.bound) / self.trials)


def freedman_tail_bound(epsilon: float, v_cap: float) -> float:
    """exp(-eps^2 / (2*v + 2*eps/3)) for the event {S_n >= eps, V_n <= v}."""
    if epsilon <= 0 or v_cap <= 0:
        raise ValueError("epsilon and v_cap must be > 0")
    return math.exp(-epsilon ** 2 / (2.0 * v_cap + 2.0 * epsilon / 3.0))


def freedman_empirical_check(mds: MdsSpec, n: int,
                             epsilons: Sequence[float],
                             v_caps: Sequence[float],
                             trials: int) -> list[FreedmanCell]:
    """Monte-Carlo hit rates of {S_n >= eps and V_n <= v} for the generator,
    one ``FreedmanCell`` per (eps, v) pair, epsilon-major: the cells of
    ``epsilons[0]`` first, each in ``v_caps`` order.

    Every cell thresholds the final (S_n, V_n) of the same ``trials`` walks,
    one sample simulated once, so the cells are correlated: they are not
    independent tests of the bound."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    rng = derive_rng(0, "freedman", n).generator()
    s = np.zeros(trials)
    v = np.zeros(trials)
    for _ in range(n):
        scale = np.where(s < 0.0, mds.scale_hi, mds.scale)
        d = scale * np.where(rng.random(trials) >= 0.5, 1.0, -1.0)
        s += d
        v += scale ** 2
    return [FreedmanCell(epsilon=eps, v_cap=cap, n=n, trials=trials,
                         rate=float(np.mean((s >= eps) & (v <= cap))),
                         bound=freedman_tail_bound(eps, cap))
            for eps in epsilons for cap in v_caps]


# -- ratios -------------------------------------------------------------------


def _ratio_ci(num: np.ndarray, den: np.ndarray, rng) -> tuple[float, float]:
    """Percentile 95 % CI of ``mean(num) / mean(den)`` over ``N_BOOT``
    independent bootstrap resamples of the two arrays."""
    ni = rng.integers(0, len(num), size=(N_BOOT, len(num)))
    di = rng.integers(0, len(den), size=(N_BOOT, len(den)))
    boots = num[ni].mean(axis=1) / den[di].mean(axis=1)
    return float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5))


class SlopeRatio(NamedTuple):
    ratio: float
    ci_lo: float
    ci_hi: float
    n_seeds: int


def slope_ratio_ci(num: regret.RegretCurve,
                   den: regret.RegretCurve) -> SlopeRatio:
    """Ratio of fitted tail slopes with a percentile bootstrap CI over seeds
    (independent resamples for numerator and denominator)."""
    sn = regret.per_seed_log_slopes(num)
    sd = regret.per_seed_log_slopes(den)
    lo, hi = _ratio_ci(sn, sd, derive_rng(0, "slope-boot").generator())
    return SlopeRatio(ratio=float(sn.mean() / sd.mean()), ci_lo=lo, ci_hi=hi,
                      n_seeds=len(sn))


class RatioPoint(NamedTuple):
    rho: float
    ratio: float
    ci_lo: float
    ci_hi: float
    mean_regret: float
    base_mean_regret: float
    n_seeds: int


def ratio_table(points: Iterable[RatioPoint]) -> tuple[list[str], list]:
    """``ratios.csv``'s header (``RatioPoint``'s fields) and rows."""
    return list(RatioPoint._fields), [tuple(p) for p in points]


def efficiency_ratio_experiment(spec: BanditSpec, rho_grid: Sequence[float],
                                horizon: int,
                                n_seeds: int) -> list[RatioPoint]:
    """Final-regret ratio of the residual-variance policy at each rho against
    the blind (rho = 1) baseline of the same family.

    The rho = 1 grid entry reuses the baseline runs seed-for-seed, so its
    ratio is exactly 1 by construction.  CIs are independent percentile
    bootstraps over seeds.
    """
    if not all(0.0 <= rho <= 1.0 for rho in rho_grid):
        raise ValueError("rho grid entries must be in [0, 1]")
    base_spec = spec._replace(rho=1.0)
    base = regret.run_bandit_experiment(base_spec, regret.ALGO_ALPHA,
                                        horizon, n_seeds)
    base_final = base.final
    base_mean = float(base_final.mean())
    points = []
    for rho in rho_grid:
        if rho == 1.0:
            final, lo, hi = base_final, 1.0, 1.0
        else:
            final = regret.run_bandit_experiment(
                spec._replace(rho=rho), regret.ALGO_ALPHA, horizon,
                n_seeds).final
            lo, hi = _ratio_ci(final, base_final,
                               derive_rng(0, "ratio-boot",
                                          int(round(rho * 1e6))).generator())
        ratio = float(final.mean()) / base_mean
        points.append(RatioPoint(rho=float(rho), ratio=ratio, ci_lo=lo,
                                 ci_hi=hi, mean_regret=float(final.mean()),
                                 base_mean_regret=base_mean, n_seeds=n_seeds))
    return points
