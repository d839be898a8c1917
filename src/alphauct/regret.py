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

``_simulate`` runs the bandit step loop through ``ucb_run`` of a small C
kernel (``_ucb.c``, see ``kernel``), one call per seed shard, when one
builds and passes its check, else of ``NUMPY``, the same loop in numpy.  The
kernel skips index values that provably cannot win and computes every
other one, and every cell update, with ``NUMPY``'s IEEE operations, and
draws each step's pull noise from the seed's PCG64 stream as numpy's own
generator does, so a curve is bit for bit the same on either; ``NUMPY`` is
the fallback and the tests' reference.  A large compiled run splits its
seeds into shards, one per core, on threads that fill disjoint columns of
one set of arrays.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .envs import NOISE_KINDS, BanditSpec, bandit_pull, residual_noise
from .rng import derive_rng, pcg64_rows

ALGO_ALPHA = "alpha"  # the one policy; the ``algo`` arguments accept only it
# run_bandit_experiment calls in this process, by the step loop they ran
LOOP_RUNS: Counter[str] = Counter()
_KERNEL_MEMO: list = []  # empty until _kernel() first runs in this process
_MASK64 = (1 << 64) - 1
GRID_POINTS = 512  # checkpoints of ``default_grid``
N_BOOT = 2000  # bootstrap resamples behind every ratio CI


# -- closed-form pieces -------------------------------------------------------


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


def default_grid(horizon: int) -> tuple[int, ...]:
    """``GRID_POINTS`` geometrically spaced integer checkpoints (every step
    up to that horizon), always ending at the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if GRID_POINTS >= horizon:
        return tuple(range(1, horizon + 1))
    raw = np.geomspace(1.0, float(horizon), num=GRID_POINTS)
    grid = np.unique(np.rint(raw).astype(np.int64))
    grid[0] = max(grid[0], 1)
    if grid[-1] != horizon:
        grid = np.append(grid, horizon)
    return tuple(int(t) for t in np.unique(grid))


def _check_algo(algo: str) -> None:
    if algo != ALGO_ALPHA:
        raise ValueError(f"unknown algo {algo!r} (only {ALGO_ALPHA!r})")


# A run of fewer seed-steps runs in one thread.  Starting a pool thread,
# running a trivial job on it and joining it took 0.3 ms in the median
# (quartiles 0.16-0.53 ms over 600; 16 ms at worst) on a 2-vCPU VM with numpy
# loaded.  The kernel does 100-140M seed-steps/s per thread at K = 10, gap
# 0.1, T = 100k and 60-83M at T = 20k (50 and 1000 seeds, medians of runs
# minutes apart on a VM whose speed drifts), so a shard of this size runs
# 14-33 ms and its thread costs 1-2 % of it in the median; no
# unit-test-sized run starts a thread.
SHARD_MIN_SEED_STEPS = 2_000_000


def _worker_count(n_seeds: int, horizon: int) -> int:
    """How many seed shards one compiled run splits into: one per core this
    process may run on, at most one per seed, and 1 for a run below
    ``SHARD_MIN_SEED_STEPS``."""
    if n_seeds * horizon < SHARD_MIN_SEED_STEPS:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(cores, n_seeds)


def _int_arg(name: str, value) -> int:
    """``value`` as a plain ``int``: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def run_bandit_experiment(spec: BanditSpec, algo: str, horizon: int,
                          n_seeds: int, *, seed0: int = 0,
                          grid: Sequence[int] | None = None,
                          block: int = 2048) -> RegretCurve:
    """Simulate ``n_seeds`` independent runs and record cumulative
    pseudo-regret at the grid checkpoints.

    Noise streams are per-seed (one uniform draw per step, whatever the arm),
    so a seed's trajectory is identical whether it runs alone, in any batch,
    in any seed shard, or through the scalar reference implementation.
    All arguments are checked before any simulation: ``horizon``,
    ``n_seeds``, ``seed0``, ``block`` and the grid entries must be ints
    (numpy integers are stored as ``int``; a bool is refused).
    """
    _check_algo(algo)
    horizon, n_seeds, seed0, block = (
        _int_arg("horizon", horizon), _int_arg("n_seeds", n_seeds),
        _int_arg("seed0", seed0), _int_arg("block", block))
    if horizon < 1 or n_seeds < 1 or block < 1:
        raise ValueError("horizon, n_seeds and block must be >= 1")
    t_grid = (tuple(_int_arg("grid entry", t) for t in grid)
              if grid is not None else default_grid(horizon))
    if not t_grid or list(t_grid) != sorted(set(t_grid)) or \
            t_grid[0] < 1 or t_grid[-1] > horizon:
        raise ValueError("grid must be sorted unique ints in [1, horizon]")
    # resolved before any shard starts, so that a cold cache compiles once
    LOOP_RUNS["numpy" if _kernel() is None else "compiled"] += 1
    per_seed = _simulate(spec, horizon, t_grid, block, seed0,
                         seed0 + n_seeds).per_seed
    return RegretCurve(spec=spec, horizon=horizon, t_grid=t_grid,
                       per_seed=per_seed, seed0=seed0)


class Simulation(NamedTuple):
    """What ``_simulate`` leaves behind."""

    per_seed: np.ndarray  # regret at each checkpoint, (len(t_grid), n_seeds)
    state: np.ndarray  # the four slabs: sum, count, inv, mean per cell
    pcg: np.ndarray  # each seed's PCG64 row after its last draw
    full_steps: int  # seed-steps that computed all K indices


def _simulate(spec: BanditSpec, horizon: int, t_grid: tuple[int, ...],
              block: int, seed_lo: int, seed_hi: int, lib=None) -> Simulation:
    """Step seeds [seed_lo, seed_hi) through ``horizon`` pulls with ``lib``
    (default: ``_kernel()``, or ``NUMPY`` where it is ``None``) and return
    their ``Simulation``: the cumulative pseudo-regret at the grid
    checkpoints, the final slabs and PCG64 rows, and the full-step count.

    One ``lib.ucb_run`` call per shard (below) runs ``block`` steps per
    ``ucb_block`` call, drawing each step's pull noise from the seed's own
    PCG64 stream; the block size is physical only.  Each (seed, arm) cell
    keeps its reward sum, pull count, ``inv = 1/count`` and ``mean = sum *
    inv`` in four ``n_seeds * K`` slabs of one array, ``state``.  Each
    seed's stream state is a row of four uint64 words (see ``_pcg_row``) in
    ``pcg``, which ends holding the seed's state after its last draw.  One
    ``rng.pcg64_rows`` call sets up every row, as the seed's
    ``derive_rng(0, "pull-noise", sd).generator()`` would start.

    Once every stream is set up here, the seeds split into
    ``_worker_count`` contiguous shards (one for ``NUMPY``, whose numpy
    calls hold the GIL).  Shard ``i`` of seeds [lo, hi) calls
    ``ucb_run(hi - lo, n_seeds, ...)`` with each per-seed array offset to
    seed ``lo``: shard 0 in this thread, each other one in a pool thread.
    A shard's exception is raised once every shard has stopped; so is a
    ``RuntimeError`` for a shard whose ``ucb_run`` returns any index but
    the grid's length (-1: a block's fell outside [gi, n_grid]).
    """
    lib = lib or _kernel() or NUMPY
    n_seeds = seed_hi - seed_lo
    kk = spec.k
    means = np.asarray(spec.means, dtype=np.float64)
    gaps = means[spec.best_arm] - means
    s_res = math.sqrt(spec.residual_var)
    kind = NOISE_KINDS.index(spec.noise)
    # 2 * sigma_res^2 * ln(1/delta_t) with delta_t = t^-4
    scale = 8.0 * spec.residual_var
    grid = np.asarray(t_grid, dtype=np.int64)
    state = np.zeros(4 * n_seeds * kk)
    pcg = np.empty(4 * n_seeds, dtype=np.uint64)
    pcg[:] = pcg64_rows((0, "pull-noise"), seed_lo, seed_hi)
    reg = np.zeros(n_seeds)
    out = np.empty((len(t_grid), n_seeds))
    flat_out = out.reshape(-1)  # seed s's checkpoint g at g * n_seeds + s
    w = 1 if lib is NUMPY else _worker_count(n_seeds, horizon)
    cuts = [i * n_seeds // w for i in range(w + 1)]
    fulls = np.zeros(w, dtype=np.int64)

    def shard(i: int) -> None:
        lo, hi = cuts[i], cuts[i + 1]
        ct = np.empty(min(block, horizon))  # scale * ln t for a block's steps
        got = lib.ucb_run(hi - lo, n_seeds, kk, horizon, len(ct), scale, ct,
                          means, gaps, pcg[4 * lo:], s_res, kind,
                          state[kk * lo:], reg[lo:], grid, len(grid),
                          flat_out[lo:], fulls[i:i + 1])
        if got != len(grid):
            raise RuntimeError(
                f"bandit seeds [{seed_lo + lo}, {seed_lo + hi}): step loop "
                f"returned checkpoint {got} of {len(grid)}")

    if w == 1:
        shard(0)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(w - 1) as pool:
            others = [pool.submit(shard, i) for i in range(1, w)]
            shard(0)
            for future in others:
                future.result()
    return Simulation(out, state, pcg, int(fulls.sum()))


def _pcg_row(bit_generator) -> list[int]:
    """A PCG64's state as the step loop's four uint64 words: the 128-bit
    LCG state, low word first, then its increment."""
    words = bit_generator.state["state"]
    return [words["state"] & _MASK64, words["state"] >> 64,
            words["inc"] & _MASK64, words["inc"] >> 64]


def _kernel():
    """The compiled step loop as a ``ctypes`` library (``kernel.build()``),
    or ``None``: ``NUMPY`` steps then.  Resolved once per process, on
    first use; nothing is built or loaded at import."""
    if not _KERNEL_MEMO:
        from .kernel import build
        _KERNEL_MEMO.append(build())
    return _KERNEL_MEMO[0]


def _numpy_log_table(scale: float, t0: int, n: int, ct: np.ndarray) -> None:
    """``ucb_log_table`` in numpy: ct[b] = scale * ln(t0 + 1 + b), b < n."""
    ct[:n] = [scale * math.log(t) for t in range(t0 + 1, t0 + n + 1)]


def _numpy_block(n_seeds, stride, k, t0, n, ct, means, gaps, pcg, s_res,
                 kind, st, reg, grid, n_grid, gi, out, full) -> int:
    """``ucb_block`` of ``_ucb.c`` in numpy, all seeds a step at a time.
    First each seed's ``n`` uniforms come from numpy's own PCG64 restored
    from its row of ``pcg`` (``Generator.random``), which then holds the
    advanced state, and ``residual_noise`` maps them.  The first K steps
    play arm ``t - 1`` (an untried arm's index is infinite), each later step
    computes every arm's index ``mean + sqrt(inv * c_t)`` and its first
    maximum.  A step rewrites only the cells each seed pulled, with the
    operations a full recompute would do."""
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    rows = pcg[:4 * n_seeds].reshape(n_seeds, 4)
    noise = np.empty((n_seeds, n))
    for row, u in zip(rows, noise):
        lo, hi, inc_lo, inc_hi = (int(word) for word in row)
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": hi << 64 | lo,
                                   "inc": inc_hi << 64 | inc_lo},
                         "has_uint32": 0, "uinteger": 0}
        gen.random(out=u)
        row[:] = _pcg_row(bit_gen)
    noise = residual_noise(noise, s_res, NOISE_KINDS[kind])
    cells, size = n_seeds * k, stride * k
    inv = st[2 * size:2 * size + cells]
    mean = st[3 * size:3 * size + cells]
    index = np.empty((n_seeds, k))
    flat_index = index.reshape(cells)
    # cell[j, s]: slab j's entry for the arm seed s pulled this step
    slab_base = np.arange(0, 4 * size, size)[:, None] + np.arange(0, cells, k)
    cell = np.empty((4, n_seeds), dtype=np.intp)
    upd = np.empty((4, n_seeds))
    new_sum, new_count, new_inv, new_mean = upd
    inc = np.ones((2, n_seeds))  # row 0: this step's rewards; row 1: one pull
    reg = reg[:n_seeds]
    step_noise = noise.T  # row b: step b's noise
    for b in range(n):
        t = t0 + 1 + b
        if t <= k:
            chosen = np.full(n_seeds, t - 1)
        else:
            np.multiply(inv, ct[b], out=flat_index)
            np.sqrt(flat_index, out=flat_index)
            np.add(flat_index, mean, out=flat_index)
            chosen = index.argmax(axis=1)
        np.add(slab_base, chosen, out=cell)
        np.add(means[chosen], step_noise[b], out=inc[0])
        np.add(st[cell[:2]], inc, out=upd[:2])
        np.divide(1.0, new_count, out=new_inv)
        np.multiply(new_sum, new_inv, out=new_mean)
        st[cell] = upd
        reg += gaps[chosen]
        if gi < n_grid and t == grid[gi]:
            out[gi * stride:gi * stride + n_seeds] = reg
            gi += 1
    full[0] += n_seeds * max(0, t0 + n - max(t0, k))
    return gi


def _numpy_run(n_seeds, stride, k, horizon, block, scale, ct, means, gaps,
               pcg, s_res, kind, st, reg, grid, n_grid, out, full) -> int:
    """``ucb_run`` in numpy: -1 once a block's index leaves [gi, n_grid]."""
    gi = 0
    for t0 in range(0, horizon, block):
        n = min(block, horizon - t0)
        _numpy_log_table(scale, t0, n, ct)
        got = _numpy_block(n_seeds, stride, k, t0, n, ct, means, gaps, pcg,
                           s_res, kind, st, reg, grid, n_grid, gi, out, full)
        if not gi <= got <= n_grid:
            return -1
        gi = got
    return gi


# The kernel's entry points in numpy, the step loop wherever no kernel
# builds: ``_simulate(..., lib=NUMPY)`` runs it.
NUMPY = SimpleNamespace(ucb_log_table=_numpy_log_table,
                        ucb_block=_numpy_block, ucb_run=_numpy_run)


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


def _ratio_ci(num: np.ndarray, den: np.ndarray, rng) -> tuple[float, float]:
    """Percentile 95 % CI of ``mean(num) / mean(den)`` over ``N_BOOT``
    independent bootstrap resamples of the two arrays."""
    ni = rng.integers(0, len(num), size=(N_BOOT, len(num)))
    di = rng.integers(0, len(den), size=(N_BOOT, len(den)))
    boots = num[ni].mean(axis=1) / den[di].mean(axis=1)
    return float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5))


@dataclass(frozen=True)
class SlopeRatio:
    ratio: float
    ci_lo: float
    ci_hi: float
    n_seeds: int


def slope_ratio_ci(num: RegretCurve, den: RegretCurve) -> SlopeRatio:
    """Ratio of fitted tail slopes with a percentile bootstrap CI over seeds
    (independent resamples for numerator and denominator)."""
    sn = per_seed_log_slopes(num)
    sd = per_seed_log_slopes(den)
    lo, hi = _ratio_ci(sn, sd, derive_rng(0, "slope-boot").generator())
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
    base_spec = replace(spec, rho=1.0)
    base = run_bandit_experiment(base_spec, ALGO_ALPHA, horizon, n_seeds)
    base_final = base.final
    base_mean = float(base_final.mean())
    points = []
    for rho in rho_grid:
        if rho == 1.0:
            final, lo, hi = base_final, 1.0, 1.0
        else:
            final = run_bandit_experiment(replace(spec, rho=rho), ALGO_ALPHA,
                                          horizon, n_seeds).final
            lo, hi = _ratio_ci(final, base_final,
                               derive_rng(0, "ratio-boot",
                                          int(round(rho * 1e6))).generator())
        ratio = float(final.mean()) / base_mean
        points.append(RatioPoint(rho=float(rho), ratio=ratio, ci_lo=lo,
                                 ci_hi=hi, mean_regret=float(final.mean()),
                                 base_mean_regret=base_mean, n_seeds=n_seeds))
    return points
