"""Regret laboratory: gap-dependent bounds, a martingale tail check, and
vectorized bandit simulations for the residual-variance policy family.

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

The bandit step loop runs in a small C kernel (``_ucb.c``, see the
``kernel`` module) when one builds and passes its check, and in numpy
otherwise.  The kernel skips index values that provably cannot win, and
computes every other value with the numpy loop's IEEE operations, so every
curve is bit for bit the same on either: the numpy loop, which computes
every index at every step, is the fallback and the tests' reference.
"""
from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .envs import BanditSpec, bandit_pull, residual_noise
from .rng import derive_rng

ALGO_ALPHA = "alpha"  # the one policy; the ``algo`` arguments accept only it
# run_bandit_experiment calls in this process, by the step loop they ran
LOOP_RUNS: Counter[str] = Counter()
_KERNEL_MEMO: list = []  # empty until _kernel() first runs in this process


# -- closed-form pieces -------------------------------------------------------


def freedman_radius(n: int, sigma2: float, delta: float) -> float:
    """Bernstein-style confidence radius at sample size n:
    sqrt(2*sigma2*ln(1/delta)/n) + 2*ln(1/delta)/(3*n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    log_term = math.log(1.0 / delta)
    return math.sqrt(2.0 * sigma2 * log_term / n) + 2.0 * log_term / (3.0 * n)


@dataclass(frozen=True)
class PerArmBound:
    gap: float
    sigma_res2: float
    var_term: float  # 8*sigma^2*lnT/gap
    log_term: float  # 16*lnT/3
    gap_term: float  # 2*gap

    @property
    def total(self) -> float:
        return self.var_term + self.log_term + self.gap_term


@dataclass(frozen=True)
class BoundReport:
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
    if any(g <= 0 for g in gaps):
        raise ValueError("gaps must be positive (suboptimal arms only)")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = float(sigma_res2)
    if s < 0:
        raise ValueError("sigma_res2 must be >= 0")
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


# -- martingale tail check ----------------------------------------------------


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


@dataclass(frozen=True)
class FreedmanCell:
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
                             v_caps: Sequence[float], trials: int,
                             seed: int = 0) -> list[FreedmanCell]:
    """Monte-Carlo hit rates of {S_n >= eps and V_n <= v} for the generator,
    one ``FreedmanCell`` per (eps, v) pair, epsilon-major: the cells of
    ``epsilons[0]`` first, each in ``v_caps`` order.

    Every cell thresholds the final (S_n, V_n) of the same ``trials`` walks,
    one sample simulated once, so the cells are correlated: they are not
    independent tests of the bound."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    rng = derive_rng(seed, "freedman", n).generator()
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


# -- bandit simulation --------------------------------------------------------


@dataclass(frozen=True)
class RegretCurve:
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


def default_grid(horizon: int, points: int = 512) -> tuple[int, ...]:
    """Geometrically spaced integer checkpoints, always ending at the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if points >= horizon:
        return tuple(range(1, horizon + 1))
    raw = np.geomspace(1.0, float(horizon), num=points)
    grid = np.unique(np.rint(raw).astype(np.int64))
    grid[0] = max(grid[0], 1)
    if grid[-1] != horizon:
        grid = np.append(grid, horizon)
    return tuple(int(t) for t in np.unique(grid))


def _check_algo(algo: str) -> None:
    if algo != ALGO_ALPHA:
        raise ValueError(f"unknown algo {algo!r} (only {ALGO_ALPHA!r})")


# A run of fewer seed-steps stays in the calling process.  Forking a shard,
# piping its block back and reaping it took 2.4-2.6 ms (median; 11 ms at
# worst) on a 2-vCPU VM with numpy loaded.  There the compiled step loop does
# about 20M seed-steps/s per core at K = 10 (the numpy loop 6-14M): at this
# size one fork costs about 2.5 % of a shard's run in the median and 11 % at
# worst, and no unit-test-sized run forks.
SHARD_MIN_SEED_STEPS = 2_000_000


def _worker_count(n_seeds: int, horizon: int) -> int:
    """How many seed ranges one run splits into: one per core this process
    may run on, at most one per seed, and 1 for a run below
    ``SHARD_MIN_SEED_STEPS``, where ``os.fork`` is missing, or on
    CPython >= 3.12, which warns on a fork in a process with more than one
    OS thread (importing numpy can start one)."""
    if (n_seeds * horizon < SHARD_MIN_SEED_STEPS or not hasattr(os, "fork")
            or sys.version_info >= (3, 12)):
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(cores, n_seeds)


def run_bandit_experiment(spec: BanditSpec, algo: str, horizon: int,
                          n_seeds: int, *, seed0: int = 0,
                          grid: Sequence[int] | None = None,
                          block: int = 2048) -> RegretCurve:
    """Simulate ``n_seeds`` independent runs and record cumulative
    pseudo-regret at the grid checkpoints.

    Noise streams are per-seed (one uniform draw per step, whatever the arm),
    so a seed's trajectory is identical whether it runs alone, in any batch,
    or through the scalar reference implementation.  That makes the seeds
    free to split: the run cuts them into ``_worker_count`` contiguous,
    near-equal ranges, simulates the first in this process and each other
    one in a forked child that pipes its block of the curve back, and joins
    the blocks in seed order, bit for bit the curve of one in-process run.
    All arguments are checked before any fork, and a failed child makes the
    call raise.
    """
    _check_algo(algo)
    if horizon < 1 or n_seeds < 1 or block < 1:
        raise ValueError("horizon, n_seeds and block must be >= 1")
    t_grid = tuple(grid) if grid is not None else default_grid(horizon)
    if not t_grid or list(t_grid) != sorted(set(t_grid)) or \
            t_grid[0] < 1 or t_grid[-1] > horizon:
        raise ValueError("grid must be sorted unique ints in [1, horizon]")
    # resolved before any fork, so that no shard ever compiles
    LOOP_RUNS["numpy" if _kernel() is None else "compiled"] += 1
    w = _worker_count(n_seeds, horizon)
    cuts = [seed0 + i * n_seeds // w for i in range(w + 1)]
    shards = []  # (pid, pipe, first seed, end seed) of each forked range
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            shards.append(_fork_shard(spec, horizon, t_grid, block, lo, hi))
        blocks = [_simulate(spec, horizon, t_grid, block, cuts[0], cuts[1])]
        blocks += [_join_shard(shard, len(t_grid)) for shard in shards]
    finally:
        for pid, pipe, _, _ in shards:
            if not pipe.closed:  # not joined: this call is raising
                from signal import SIGKILL
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    per_seed = blocks[0] if w == 1 else np.concatenate(blocks, axis=1)
    return RegretCurve(spec=spec, horizon=horizon, t_grid=t_grid,
                       per_seed=per_seed, seed0=seed0)


def _fork_shard(spec: BanditSpec, horizon: int, t_grid: tuple[int, ...],
                block: int, seed_lo: int, seed_hi: int):
    """Simulate seeds [seed_lo, seed_hi) in a forked child, which writes its
    float64 block to a pipe and leaves through ``os._exit``: it never returns
    into the caller's code or runs its exit handlers."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            out = _simulate(spec, horizon, t_grid, block, seed_lo, seed_hi)
            data = memoryview(out).cast("B")
            while data:
                data = data[os.write(wfd, data):]
            code = 0
        except BaseException as exc:
            os.write(2, f"bandit seeds [{seed_lo}, {seed_hi}): "
                        f"{exc!r}\n".encode())
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, os.fdopen(rfd, "rb"), seed_lo, seed_hi


def _join_shard(shard, rows: int) -> np.ndarray:
    """Read a forked range's block, reap the child, and check that it exited
    0 and sent the whole block.  The pipe closes only once the child is
    reaped."""
    pid, pipe, seed_lo, seed_hi = shard
    data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    pipe.close()
    want = rows * (seed_hi - seed_lo) * 8
    if code != 0 or len(data) != want:
        raise RuntimeError(f"bandit seeds [{seed_lo}, {seed_hi}): child "
                           f"exited {code} after sending {len(data)} of "
                           f"{want} bytes")
    return np.frombuffer(data).reshape(rows, seed_hi - seed_lo)


def _simulate(spec: BanditSpec, horizon: int, t_grid: tuple[int, ...],
              block: int, seed_lo: int, seed_hi: int) -> np.ndarray:
    """Cumulative pseudo-regret of seeds [seed_lo, seed_hi) at the grid
    checkpoints, shape ``(len(t_grid), seed_hi - seed_lo)``: the compiled
    loop when ``_kernel()`` has one, else the numpy loop, bit for bit the
    same curve."""
    lib = _kernel()
    if lib is None:
        return _numpy_loop(spec, horizon, t_grid, block, seed_lo, seed_hi)
    from .kernel import compiled_loop
    return compiled_loop(lib, spec, horizon, t_grid, block, seed_lo, seed_hi)


def _kernel():
    """The compiled step loop as a ``ctypes`` library (``kernel.build()``),
    or ``None``: the numpy loop runs then.  Resolved once per process, on
    first use; nothing is built or loaded at import."""
    if not _KERNEL_MEMO:
        from .kernel import build
        _KERNEL_MEMO.append(build())
    return _KERNEL_MEMO[0]


def _numpy_loop(spec: BanditSpec, horizon: int, t_grid: tuple[int, ...],
                block: int, seed_lo: int, seed_hi: int,
                state: np.ndarray | None = None) -> np.ndarray:
    """The step loop in numpy, all seeds a step at a time: the fallback
    where no kernel builds, and the reference the kernel is checked against.

    Uniforms are drawn and mapped to residuals ``block`` steps at a time; the
    block size is physical only.

    State is incremental.  Each (seed, arm) cell keeps its reward sum, pull
    count, ``inv = 1/count`` and ``mean = sum * inv`` in four flat
    ``n_seeds * K`` slabs of one array.  A step rewrites only the cell each
    seed pulled, with the same IEEE operations a full recompute would do, so
    its index values are bit-for-bit those of the full recompute.  The first
    K steps play arm ``t - 1``, the arm an infinite untried-arm index picks.
    After that a step recomputes only the radius ``sqrt(inv * scale * ln t)``,
    the index ``mean + radius`` and its row-wise argmax (a tie goes to the
    lowest arm).  A caller's zeroed ``state`` of ``4 * n_seeds * K`` floats
    serves as the slabs and is left holding their final values.
    """
    n_seeds = seed_hi - seed_lo
    kk = spec.k
    means = np.asarray(spec.means)
    gaps_all = means[spec.best_arm] - means
    s_res = math.sqrt(spec.residual_var)
    # 2 * sigma_res^2 * ln(1/delta_t) with delta_t = t^-4
    scale = 8.0 * spec.residual_var

    cells = n_seeds * kk
    # one flat array holding four per-cell slabs: sum | count | inv | mean
    state = np.zeros(4 * cells) if state is None else state
    inv = state[2 * cells:3 * cells]
    mean = state[3 * cells:]
    index = np.empty((n_seeds, kk))
    flat_index = index.reshape(cells)
    # cell[j, s]: slab j's entry for the arm seed s pulled this step
    slab_base = np.arange(0, 4 * cells, cells)[:, None] + np.arange(0, cells, kk)
    cell = np.empty((4, n_seeds), dtype=np.intp)
    sum_count_cell = cell[:2]
    upd = np.empty((4, n_seeds))
    sum_count_upd = upd[:2]
    new_sum, new_count, new_inv, new_mean = upd
    inc = np.ones((2, n_seeds))  # row 0: this step's rewards; row 1: one pull
    x = inc[0]
    reg = np.zeros(n_seeds)
    gens = [derive_rng(0, "pull-noise", sd).generator()
            for sd in range(seed_lo, seed_hi)]
    out = np.empty((len(t_grid), n_seeds))
    gi = 0
    next_t = t_grid[0]

    for t0 in range(0, horizon, block):
        bl = min(block, horizon - t0)
        u = np.empty((bl, n_seeds))
        for si, g in enumerate(gens):
            u[:, si] = g.random(bl)
        noise = residual_noise(u, s_res, spec.noise)
        del u
        for b in range(bl):
            t = t0 + b + 1
            if t <= kk:
                chosen = np.full(n_seeds, t - 1)
            else:
                np.multiply(inv, scale * math.log(t), out=flat_index)
                np.sqrt(flat_index, out=flat_index)
                np.add(flat_index, mean, out=flat_index)
                chosen = index.argmax(axis=1)
            np.add(slab_base, chosen, out=cell)
            np.add(means[chosen], noise[b], out=x)
            np.add(state[sum_count_cell], inc, out=sum_count_upd)
            np.divide(1.0, new_count, out=new_inv)
            np.multiply(new_sum, new_inv, out=new_mean)
            state[cell] = upd
            reg += gaps_all[chosen]
            if t == next_t:
                out[gi] = reg
                gi += 1
                next_t = t_grid[gi] if gi < len(t_grid) else 0
        del noise  # before the next block's uniforms are drawn
    assert gi == len(t_grid)
    return out


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


# -- fits and ratios ----------------------------------------------------------


@dataclass(frozen=True)
class LogFit:
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


def _ratio_ci(num: np.ndarray, den: np.ndarray, n_boot: int,
              rng) -> tuple[float, float]:
    """Percentile 95 % CI of ``mean(num) / mean(den)`` over independent
    bootstrap resamples of the two arrays."""
    ni = rng.integers(0, len(num), size=(n_boot, len(num)))
    di = rng.integers(0, len(den), size=(n_boot, len(den)))
    boots = num[ni].mean(axis=1) / den[di].mean(axis=1)
    return float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5))


@dataclass(frozen=True)
class SlopeRatio:
    ratio: float
    ci_lo: float
    ci_hi: float
    n_seeds: int


def slope_ratio_ci(num: RegretCurve, den: RegretCurve, *,
                   n_boot: int = 2000) -> SlopeRatio:
    """Ratio of fitted tail slopes with a percentile bootstrap CI over seeds
    (independent resamples for numerator and denominator)."""
    sn = per_seed_log_slopes(num)
    sd = per_seed_log_slopes(den)
    lo, hi = _ratio_ci(sn, sd, n_boot,
                       derive_rng(0, "slope-boot").generator())
    return SlopeRatio(ratio=float(sn.mean() / sd.mean()), ci_lo=lo, ci_hi=hi,
                      n_seeds=len(sn))


@dataclass(frozen=True)
class RatioPoint:
    rho: float
    ratio: float
    ci_lo: float
    ci_hi: float
    mean_regret: float
    base_mean_regret: float
    n_seeds: int


def efficiency_ratio_experiment(spec: BanditSpec, rho_grid: Sequence[float],
                                horizon: int, n_seeds: int, *, seed0: int = 0,
                                n_boot: int = 2000) -> list[RatioPoint]:
    """Final-regret ratio of the residual-variance policy at each rho against
    the blind (rho = 1) baseline of the same family.

    The rho = 1 grid entry reuses the baseline runs seed-for-seed, so its
    ratio is exactly 1 by construction.  CIs are independent percentile
    bootstraps over seeds.
    """
    if not all(0.0 <= rho <= 1.0 for rho in rho_grid):
        raise ValueError("rho grid entries must be in [0, 1]")
    base_spec = replace(spec, rho=1.0)
    base = run_bandit_experiment(base_spec, ALGO_ALPHA, horizon, n_seeds,
                                 seed0=seed0)
    base_final = base.final
    base_mean = float(base_final.mean())
    points = []
    for rho in rho_grid:
        if rho == 1.0:
            final = base_final
        else:
            cur = run_bandit_experiment(replace(spec, rho=rho), ALGO_ALPHA,
                                        horizon, n_seeds, seed0=seed0)
            final = cur.final
        ratio = float(final.mean()) / base_mean
        if rho == 1.0:
            lo = hi = 1.0
        else:
            lo, hi = _ratio_ci(final, base_final, n_boot,
                               derive_rng(0, "ratio-boot",
                                          int(round(rho * 1e6))).generator())
        points.append(RatioPoint(rho=float(rho), ratio=ratio, ci_lo=lo,
                                 ci_hi=hi, mean_regret=float(final.mean()),
                                 base_mean_regret=base_mean, n_seeds=n_seeds))
    return points
