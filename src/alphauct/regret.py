"""Regret laboratory: gap-dependent bounds, vectorized bandit simulations
for the residual-variance policy family, and the fits of their regret
curves.  The martingale tail check and the bootstrap ratio CIs, which no
bandit run needs, are in ``lab``.

The headline quantity is the per-arm bound

    8 * sigma_res^2 * ln T / gap  +  16 * ln T / 3  +  2 * gap

summed over suboptimal arms: logarithmic in the horizon and scaled by the
*residual* variance left after value prediction, not the raw outcome
variance.  The simulated policy ("alpha") plays the empirical mean plus a
variance-scaled anytime radius sqrt(2 * sigma_res^2 * ln(1/delta_t) / n) with
delta_t = t^-4, the schedule whose index race pulls each suboptimal arm
about 8 * sigma_res^2 * ln T / gap^2 times -- the same constant the bound
carries; residual noise is bounded, hence sub-Gaussian with proxy
equal to its variance, so the radius is a valid confidence radius.  The
blind baseline is the same policy at rho = 1, where the residual variance
is the full outcome variance.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .envs import BanditSpec, bandit_pull
from .rng import derive_rng

ALGO_ALPHA = "alpha"  # the one policy; the ``algo`` arguments accept only it
# run_bandit_experiment calls in this process, by the step loop they ran
LOOP_RUNS: Counter[str] = Counter()
GRID_POINTS = 512  # checkpoints of ``default_grid``


# -- closed-form pieces -------------------------------------------------------


class PerArmBound(NamedTuple):
    gap: float
    sigma_res2: float
    var_term: float  # 8*sigma^2*lnT/gap
    log_term: float  # 16*lnT/3
    gap_term: float  # 2*gap

    @property
    def total(self) -> float:
        return self.var_term + self.log_term + self.gap_term


class BoundReport(NamedTuple):
    horizon: int
    arms: tuple[PerArmBound, ...]

    @property
    def total(self) -> float:
        return sum(a.total for a in self.arms)


def theorem1_bound(gaps: Iterable[float], sigma_res2: float,
                   horizon: int) -> BoundReport:
    """Gap-dependent cumulative-regret bound over the suboptimal arms, all
    sharing the residual variance ``sigma_res2``."""
    gaps = tuple(float(g) for g in gaps)
    if not all(0 < g < math.inf for g in gaps):
        raise ValueError("gaps must be positive and finite (suboptimal arms)")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = float(sigma_res2)
    if not 0 <= s < math.inf:
        raise ValueError("sigma_res2 must be finite and >= 0")
    log_t = math.log(horizon)
    arms = tuple(
        PerArmBound(gap=g, sigma_res2=s,
                    var_term=8.0 * s * log_t / g,
                    log_term=16.0 * log_t / 3.0,
                    gap_term=2.0 * g)
        for g in gaps)
    return BoundReport(horizon=horizon, arms=arms)


def bound_for_spec(spec: BanditSpec, horizon: int) -> BoundReport:
    return theorem1_bound(spec.gaps, spec.residual_var, horizon)


# -- bandit simulation --------------------------------------------------------


class RegretCurve(NamedTuple):
    spec: BanditSpec
    horizon: int
    t_grid: tuple[int, ...]
    per_seed: np.ndarray  # (len(t_grid), n_seeds) cumulative pseudo-regret
    seed0: int

    @property
    def n_seeds(self) -> int:
        return self.per_seed.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.per_seed.mean(axis=1)

    @property
    def std(self) -> np.ndarray:
        if self.n_seeds < 2:
            return np.zeros(len(self.t_grid))
        return self.per_seed.std(axis=1, ddof=1)

    @property
    def final(self) -> np.ndarray:
        """Per-seed cumulative regret at the horizon."""
        return self.per_seed[-1]


def default_grid(horizon: int) -> tuple[int, ...]:
    """``GRID_POINTS`` geometrically spaced integer checkpoints (every step
    up to that horizon), always ending at the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if GRID_POINTS >= horizon:
        return tuple(range(1, horizon + 1))
    raw = np.geomspace(1.0, float(horizon), num=GRID_POINTS)
    # geomspace sets both end points exactly: 1 and the horizon
    return tuple(int(t) for t in np.unique(np.rint(raw).astype(np.int64)))


def _check_algo(algo: str) -> None:
    if algo != ALGO_ALPHA:
        raise ValueError(f"unknown algo {algo!r} (only {ALGO_ALPHA!r})")


def _int_arg(name: str, value) -> int:
    """``value`` as a plain ``int``: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def run_bandit_experiment(spec: BanditSpec, algo: str, horizon: int,
                          n_seeds: int, *, seed0: int = 0,
                          grid: Sequence[int] | None = None,
                          block: int = 2048) -> RegretCurve:
    """Simulate ``n_seeds`` independent runs through ``kernel.simulate``
    and record cumulative pseudo-regret at the grid checkpoints.

    Noise streams are per-seed (one uniform draw per step, whatever the arm),
    so a seed's trajectory is identical whether it runs alone, in any batch,
    in any seed shard, or through the scalar reference implementation.
    All arguments are checked before any simulation: ``horizon``,
    ``n_seeds``, ``seed0``, ``block`` and the grid entries must be ints
    (numpy integers are stored as ``int``; a bool is refused), and
    ``horizon`` at most 2^53: the step loop's ln t needs exact doubles.
    """
    _check_algo(algo)
    horizon, n_seeds, seed0, block = (
        _int_arg("horizon", horizon), _int_arg("n_seeds", n_seeds),
        _int_arg("seed0", seed0), _int_arg("block", block))
    if horizon < 1 or n_seeds < 1 or block < 1:
        raise ValueError("horizon, n_seeds and block must be >= 1")
    if horizon > 2 ** 53:
        raise ValueError(f"horizon must be <= 2^53, got {horizon}")
    t_grid = (tuple(_int_arg("grid entry", t) for t in grid)
              if grid is not None else default_grid(horizon))
    if not t_grid or list(t_grid) != sorted(set(t_grid)) or \
            t_grid[0] < 1 or t_grid[-1] > horizon:
        raise ValueError("grid must be sorted unique ints in [1, horizon]")
    loop = _kernel()
    # resolved before any shard starts, so that a cold cache compiles once
    LOOP_RUNS["numpy" if loop.compiled() is None else "compiled"] += 1
    per_seed = loop.simulate(spec, horizon, t_grid, block, seed0,
                             seed0 + n_seeds).per_seed
    return RegretCurve(spec=spec, horizon=horizon, t_grid=t_grid,
                       per_seed=per_seed, seed0=seed0)


@cache
def _kernel():
    """``kernel``, kept from this module's first bandit run: after a fresh
    package import (perfbench's set-up) ``from . import kernel`` reruns it."""
    from . import kernel
    return kernel


def simulate_policy_scalar(spec: BanditSpec, algo: str, horizon: int,
                           seed: int) -> np.ndarray:
    """Plain-python reference run (one seed): cumulative pseudo-regret at
    every step.  Differential twin of ``run_bandit_experiment``."""
    _check_algo(algo)
    rng = derive_rng(0, "pull-noise", seed).generator()
    kk = spec.k
    counts = [0] * kk
    sums = [0.0] * kk
    best = spec.means[spec.best_arm]
    reg = 0.0
    out = np.empty(horizon)
    for t in range(1, horizon + 1):
        best_arm, best_idx = 0, -math.inf
        for a in range(kk):
            if counts[a] == 0:
                idx = math.inf
            else:
                idx = sums[a] / counts[a] + math.sqrt(
                    8.0 * spec.residual_var * math.log(t) / counts[a])
            if idx > best_idx:
                best_arm, best_idx = a, idx
        x = bandit_pull(spec, best_arm, rng)
        sums[best_arm] += x
        counts[best_arm] += 1
        reg += best - spec.means[best_arm]
        out[t - 1] = reg
    return out


# -- fits --------------------------------------------------------------------


class LogFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    linear_r_squared: float
    log_model_preferred: bool
    n_points: int
    window: tuple[int, int]


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def _tail(curve: RegretCurve) -> tuple[np.ndarray, np.ndarray]:
    """(mask, t) of the checkpoints in the fitted tail window
    [horizon / 2, horizon]."""
    t = np.asarray(curve.t_grid, dtype=float)
    mask = t >= 0.5 * curve.horizon
    if int(mask.sum()) < 3:
        raise ValueError("window holds fewer than 3 checkpoints")
    return mask, t[mask]


def fit_log_regret(curve: RegretCurve) -> LogFit:
    """Least-squares fit of mean regret against ln t over the tail window
    [horizon / 2, horizon]; also fits a plain-linear model so the caller can
    see which shape explains the tail better."""
    mask, t = _tail(curve)
    x = np.log(t)
    y = curve.mean[mask]
    if float(np.ptp(y)) == 0.0:
        raise ValueError("degenerate (constant) regret curve in window")
    slope, intercept = np.polyfit(x, y, 1)
    r2 = _r_squared(y, slope * x + intercept)
    lin = np.polyfit(t, y, 1)
    r2_lin = _r_squared(y, lin[0] * t + lin[1])
    return LogFit(slope=float(slope), intercept=float(intercept),
                  r_squared=float(r2), linear_r_squared=float(r2_lin),
                  log_model_preferred=bool(r2 >= r2_lin),
                  n_points=len(t), window=(int(t[0]), int(t[-1])))


def per_seed_log_slopes(curve: RegretCurve) -> np.ndarray:
    """Tail ln-t slope of each seed's own curve.

    Least squares is linear in the ordinates, so the mean of this array is
    exactly ``fit_log_regret(curve).slope``; bootstrapping the mean-curve
    slope therefore reduces to resampling this array, with no refitting.
    """
    mask, t = _tail(curve)
    x = np.log(t)
    xc = x - x.mean()
    return (xc @ curve.per_seed[mask]) / float(xc @ x)
