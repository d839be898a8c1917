"""Regret-lab numerics: closed-form bound values, confidence radii, the
martingale tail bound, simulation determinism, the scalar/vectorized twin
property, pinned curve digests, the compiled step loop against the numpy
loop, and slope fitting on synthetic curves."""
import hashlib
import math
import os
import shutil
import sys
import warnings

import numpy as np
import pytest

from alphauct import kernel as ucb
from alphauct import regret
from alphauct.envs import NOISE_KINDS, BanditSpec, residual_noise
from alphauct.regret import (ALGO_ALPHA, MdsSpec, RegretCurve, bound_for_spec,
                             default_grid, efficiency_ratio_experiment,
                             fit_log_regret, freedman_empirical_check,
                             freedman_radius, freedman_tail_bound,
                             per_seed_log_slopes, run_bandit_experiment,
                             simulate_policy_scalar, slope_ratio_ci,
                             theorem1_bound)
from alphauct.verify import grid_spec, ratio_sweep_spec


# -- closed forms ---------------------------------------------------------------


def test_bound_at_horizon_one_is_twice_the_gap():
    rep = theorem1_bound([0.5], 0.02, horizon=1)
    assert rep.total == 1.0  # ln 1 = 0 kills both log terms
    arm = rep.arms[0]
    assert (arm.var_term, arm.log_term, arm.gap_term) == (0.0, 0.0, 1.0)


def test_bound_hand_value():
    # 8*0.01*ln(1000)/0.2 + 16*ln(1000)/3 + 0.4
    rep = theorem1_bound([0.2], 0.01, horizon=1000)
    assert rep.total == pytest.approx(40.00446, abs=1e-3)


def test_doubling_residual_variance_doubles_only_var_term():
    lo = theorem1_bound([0.1, 0.3], 0.02, horizon=10_000)
    hi = theorem1_bound([0.1, 0.3], 0.04, horizon=10_000)
    for a, b in zip(lo.arms, hi.arms):
        assert b.var_term == pytest.approx(2 * a.var_term)
        assert b.log_term == a.log_term
        assert b.gap_term == a.gap_term


def test_bound_validates_its_inputs():
    with pytest.raises(ValueError):
        theorem1_bound([0.1, -0.2], 0.01, horizon=100)
    with pytest.raises(ValueError):
        theorem1_bound([0.1], -0.01, horizon=100)
    with pytest.raises(ValueError):
        theorem1_bound([0.1], 0.01, horizon=0)


def test_bound_for_spec_uses_residual_variance():
    spec = BanditSpec(means=(0.6, 0.5, 0.4), sigma_x2=0.04, rho=0.25)
    rep = bound_for_spec(spec, 1000)
    direct = theorem1_bound((0.1, 0.2), 0.01, 1000)
    assert rep.total == direct.total


def test_freedman_radius_values():
    assert freedman_radius(50, 0.1, 1.0) == 0.0  # ln(1/1) = 0
    assert freedman_radius(100, 0.04, 0.01) == pytest.approx(0.09140, abs=1e-4)
    # radius shrinks with more samples
    rs = [freedman_radius(n, 0.04, 0.01) for n in (10, 100, 1000, 10_000)]
    assert rs == sorted(rs, reverse=True)
    with pytest.raises(ValueError):
        freedman_radius(0, 0.04, 0.01)
    with pytest.raises(ValueError):
        freedman_radius(10, 0.04, 0.0)


def test_freedman_tail_bound_formula():
    eps, v = 3.0, 8.5
    assert freedman_tail_bound(eps, v) == pytest.approx(
        math.exp(-eps ** 2 / (2 * v + 2 * eps / 3)))
    with pytest.raises(ValueError):
        freedman_tail_bound(0.0, 1.0)


def test_freedman_empirical_cell_respects_bound():
    mds = MdsSpec(scale=0.25, scale_hi=0.25)  # the plain +-0.25 walk
    cell, = freedman_empirical_check(mds, 400, (3.0,), (25.0 + 1e-9,),
                                     trials=4000)
    # V_n = 400 * 0.0625 = 25 always, so the cap never binds
    assert cell.rate <= cell.bound + 3 * cell.binom_std
    assert cell.rate == 0.282  # recorded when this walk had its own kind
    again, = freedman_empirical_check(mds, 400, (3.0,), (25.0 + 1e-9,),
                                      trials=4000)
    assert cell.rate == again.rate  # keyed rng: bitwise reproducible


def test_mds_spec_validation():
    for scale, scale_hi in ((0.0, 0.1), (0.1, -0.1), (math.nan, 0.1),
                            (0.1, math.nan), (math.inf, 0.1), (0.1, math.inf)):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            MdsSpec(scale, scale_hi)


# -- simulation ------------------------------------------------------------------


def small_spec(**kw) -> BanditSpec:
    defaults = dict(means=(0.6, 0.5), sigma_x2=0.04, rho=1.0)
    defaults.update(kw)
    return BanditSpec(**defaults)


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    """The compiled step loop, freshly built (and checked) in a scratch
    cache; ``None`` where there is no C compiler."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        mp.setattr(regret, "_KERNEL_MEMO", [])
        lib = regret._kernel()
    if lib is None and shutil.which(ucb.CC[0]) is not None:
        pytest.fail("a C compiler is present but the kernel did not build")
    return lib


@pytest.fixture
def each_loop(monkeypatch, kernel):
    """Call it to iterate over the step loops, "compiled" (where it built)
    and then "numpy", with ``regret._kernel`` patched to each in turn."""
    def each():
        for name, lib in (("compiled", kernel), ("numpy", None)):
            if name == "numpy" or lib is not None:
                monkeypatch.setattr(regret, "_kernel", lambda lib=lib: lib)
                yield name
    return each


def test_default_grid_shape():
    grid = default_grid(100_000, points=512)
    assert grid[0] == 1 and grid[-1] == 100_000
    assert list(grid) == sorted(set(grid))
    small = default_grid(100, points=512)
    assert small == tuple(range(1, 101))


def test_experiment_reproducible_and_blockwise_invariant(each_loop):
    spec = small_spec()
    for loop in each_loop():
        a = run_bandit_experiment(spec, ALGO_ALPHA, 2000, 8)
        b = run_bandit_experiment(spec, ALGO_ALPHA, 2000, 8)
        c = run_bandit_experiment(spec, ALGO_ALPHA, 2000, 8, block=97)
        assert np.array_equal(a.per_seed, b.per_seed), loop
        # block size is physical only
        assert np.array_equal(a.per_seed, c.per_seed), loop


def test_scalar_twin_matches_vectorized_exactly(each_loop):
    spec = small_spec(means=(0.55, 0.45, 0.35), sigma_x2=0.05, rho=0.5)
    horizon = 1500
    refs = [simulate_policy_scalar(spec, ALGO_ALPHA, horizon, si)
            for si in range(4)]
    for loop in each_loop():
        curve = run_bandit_experiment(spec, ALGO_ALPHA, horizon, 4,
                                      grid=range(1, horizon + 1))
        for si, ref in enumerate(refs):
            assert np.array_equal(curve.per_seed[:, si], ref), (loop, si)


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
@pytest.mark.parametrize("noise", NOISE_KINDS)
@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_scalar_twin_across_noise_kinds_and_rho(each_loop, algo, noise, rho):
    spec = small_spec(means=(0.6, 0.5, 0.5, 0.4), sigma_x2=0.05, rho=rho,
                      noise=noise)
    horizon = 600
    refs = [simulate_policy_scalar(spec, algo, horizon, si) for si in range(3)]
    for loop in each_loop():
        curve = run_bandit_experiment(spec, algo, horizon, 3,
                                      grid=range(1, horizon + 1))
        for si, ref in enumerate(refs):
            assert np.array_equal(curve.per_seed[:, si], ref), (loop, si)


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
def test_single_arm_bandit_matches_scalar_twin(each_loop, algo):
    spec = BanditSpec(means=(0.5,), sigma_x2=0.05)
    for loop in each_loop():
        curve = run_bandit_experiment(spec, algo, 50, 2, grid=range(1, 51))
        for si in range(2):
            ref = simulate_policy_scalar(spec, algo, 50, si)
            assert np.array_equal(curve.per_seed[:, si], ref), loop
        assert not curve.per_seed.any(), loop


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
def test_horizon_inside_forced_exploration(each_loop, algo):
    spec = small_spec(means=(0.4, 0.6, 0.5, 0.3, 0.45), sigma_x2=0.04)
    horizon = 3  # stops before every arm was tried once
    for loop in each_loop():
        curve = run_bandit_experiment(spec, algo, horizon, 4, grid=[1, 2, 3])
        for si in range(4):
            ref = simulate_policy_scalar(spec, algo, horizon, si)
            assert np.array_equal(curve.per_seed[:, si], ref), loop


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
@pytest.mark.parametrize("block", [1, 97, 5000])
def test_block_size_is_physical_only(each_loop, algo, block):
    spec = small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="uniform")
    for loop in each_loop():
        ref = run_bandit_experiment(spec, algo, 3000, 5)
        got = run_bandit_experiment(spec, algo, 3000, 5, block=block)
        assert np.array_equal(got.per_seed, ref.per_seed), loop


# SHA-256 of per_seed.tobytes(); the regret criteria print figures drawn
# from these curves.  The grid row was recorded before the step loop went
# incremental, the two-point-noise ratio-sweep row before the UCB1 baseline
# was deleted.
PINNED_CURVES = [
    (grid_spec(10, 0.1, 0.05), ALGO_ALPHA, 20_000,
     "4c50cf34d6f25317c66e3fea92dabd625b9c2ae4f8dca9cefc4b5ade51f742d8"),
    (ratio_sweep_spec(), ALGO_ALPHA, 5_000,
     "72aaaa22a22d79e2ad35aba4c848f3def509b2d5d0c6d151f1483a37616ac826"),
]


@pytest.mark.parametrize("spec, algo, horizon, digest", PINNED_CURVES)
def test_curve_digest_is_pinned(each_loop, spec, algo, horizon, digest):
    for loop in each_loop():
        curve = run_bandit_experiment(spec, algo, horizon, 20)
        assert hashlib.sha256(curve.per_seed.tobytes()).hexdigest() == digest, \
            loop


# -- seed shards -----------------------------------------------------------------


# the library never forks there, and a fork in a numpy process would warn
needs_fork = pytest.mark.skipif(
    sys.version_info >= (3, 12) or not hasattr(os, "fork"),
    reason="seed shards fork only on CPython < 3.12 with os.fork")


def force_workers(monkeypatch, w: int) -> list[int]:
    """Split every run into ``w`` seed ranges; returns the pids forked."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(regret, "_worker_count", lambda n_seeds, horizon: w)
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


UNEVEN_GRID = (1, 2, 3, 4, 50, 333, 1000, 1499, 1500)


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_seed_shards_are_bit_equal_to_one_process(monkeypatch, each_loop,
                                                  workers):
    """7 seeds in 1, 2 or 3 contiguous ranges (3 gives 2 + 2 + 3), joined in
    seed order: the same bytes as the in-process run."""
    spec = small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="uniform")
    for loop in each_loop():
        ref = run_bandit_experiment(spec, ALGO_ALPHA, 1500, 7, seed0=4,
                                    grid=UNEVEN_GRID, block=97)
        with monkeypatch.context() as mp:
            pids = force_workers(mp, workers)
            got = run_bandit_experiment(spec, ALGO_ALPHA, 1500, 7, seed0=4,
                                        grid=UNEVEN_GRID, block=97)
        assert len(pids) == workers - 1, loop
        assert_reaped(pids)
        assert got.per_seed.shape == (len(UNEVEN_GRID), 7)
        assert got.per_seed.flags.c_contiguous and got.per_seed.flags.writeable
        assert got.per_seed.tobytes() == ref.per_seed.tobytes(), loop
        assert (got.t_grid, got.seed0) == (UNEVEN_GRID, 4)


@needs_fork
@pytest.mark.parametrize("spec, algo, horizon, digest", PINNED_CURVES)
def test_sharded_curve_matches_pinned_digest(monkeypatch, each_loop, spec,
                                             algo, horizon, digest):
    force_workers(monkeypatch, 2)
    for loop in each_loop():
        curve = run_bandit_experiment(spec, algo, horizon, 20)
        assert hashlib.sha256(curve.per_seed.tobytes()).hexdigest() == digest, \
            loop


@needs_fork
@pytest.mark.parametrize("fault, want", [
    ("raise", "child exited 1 after sending 0 of 2400 bytes"),
    ("short", "child exited 0 after sending 1200 of 2400 bytes"),
    ("status", "child exited 3 after sending 2400 of 2400 bytes"),
], ids=["raise", "short", "status"])
def test_a_failed_shard_makes_the_run_raise(monkeypatch, capfd, each_loop,
                                            fault, want):
    """A child that raises exits 1 and sends nothing; a short block or a
    non-zero exit status after a whole block is caught too.  Each way the
    call raises and every child is reaped."""
    real = regret._simulate
    real_exit = os._exit

    def broken(spec, horizon, t_grid, block, seed_lo, seed_hi):
        if seed_lo == 0 or fault == "status":  # the caller's own range
            return real(spec, horizon, t_grid, block, seed_lo, seed_hi)
        if fault == "short":
            return real(spec, horizon, t_grid, block, seed_lo, seed_lo + 1)
        raise OSError("shard lost")

    monkeypatch.setattr(regret, "_simulate", broken)
    if fault == "status":  # only the forked children call os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
    pids = force_workers(monkeypatch, 3)
    for loop in each_loop():
        pids.clear()
        with pytest.raises(RuntimeError,
                           match=r"bandit seeds \[2, 4\): " + want):
            run_bandit_experiment(small_spec(), ALGO_ALPHA, 300, 7,
                                  grid=range(2, 302, 2))
        assert len(pids) == 2, loop
        assert_reaped(pids)
        if fault == "raise":
            assert ("bandit seeds [2, 4): OSError('shard lost')"
                    in capfd.readouterr().err), loop


def test_arguments_are_checked_before_any_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked before the arguments were checked")

    monkeypatch.setattr(regret, "_worker_count", lambda n_seeds, horizon: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    spec = small_spec()
    for args, kwargs in [((ALGO_ALPHA, 0, 4), {}), ((ALGO_ALPHA, 100, 0), {}),
                         (("uct", 100, 4), {}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [5, 3]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [0, 5]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [5, 101]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": []}),
                         ((ALGO_ALPHA, 100, 4), {"block": 0}),
                         ((ALGO_ALPHA, 100, 4), {"block": -3})]:
        with pytest.raises(ValueError):
            run_bandit_experiment(spec, *args, **kwargs)


def test_worker_count_rule(monkeypatch):
    """Small runs stay in-process; a large one gets a range per usable core,
    at most one per seed, and none on CPython >= 3.12."""
    big = regret.SHARD_MIN_SEED_STEPS
    assert regret._worker_count(20, 20_000) == 1  # the pinned-digest runs
    assert regret._worker_count(1, big - 1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cores = 1 if sys.version_info >= (3, 12) else 3
    assert regret._worker_count(1000, big) == cores
    assert regret._worker_count(2, big) == min(cores, 2)
    assert regret._worker_count(1, big) == 1


# -- the compiled step loop ------------------------------------------------------


# (spec, horizon, grid): the edges of the step loop
DIFFERENTIAL_CASES = {
    "one_arm": (BanditSpec(means=(0.5,), sigma_x2=0.05), 60, None),
    "horizon_below_k": (small_spec(means=(0.4, 0.6, 0.5, 0.3, 0.45)), 3,
                        (1, 2, 3)),
    "noiseless": (small_spec(means=(0.6, 0.5, 0.45, 0.4), sigma_x2=0.0), 400,
                  None),
    "rho_zero": (small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, rho=0.0),
                 400, None),
    "two_point": (small_spec(means=(0.6, 0.5, 0.5, 0.4), sigma_x2=0.05,
                             rho=0.5, noise="two_point"), 900, None),
    # exact binary rewards: arms of different means tie on the index
    "exact_ties": (small_spec(means=(0.75, 0.25, 0.5), sigma_x2=0.0625,
                              noise="two_point"), 900, None),
    "grid_in_forced": (small_spec(means=(0.6, 0.5, 0.45, 0.4, 0.55),
                                  sigma_x2=0.05, noise="uniform"), 700,
                       (1, 2, 4, 5, 6, 7, 333, 699, 700)),
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_compiled_loop_leaves_the_numpy_loops_state(kernel, case):
    """Not only the curve: every slab cell (sum, count, 1/count, mean) ends
    with the numpy loop's bits, so no rounding differs on the way."""
    if kernel is None:
        pytest.skip("no C compiler")
    spec, horizon, grid = DIFFERENTIAL_CASES[case]
    args = (spec, horizon, grid or tuple(range(1, horizon + 1)), 97, 2, 7)
    ours, ref = np.zeros((2, 4 * 5 * spec.k))
    assert (ucb.compiled_loop(kernel, *args, ours).tobytes()
            == regret._numpy_loop(*args, ref).tobytes())
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork),
                                     pytest.param(3, marks=needs_fork)])
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_compiled_loop_is_bit_equal_to_numpy_loop(monkeypatch, kernel, case,
                                                  workers):
    if kernel is None:
        pytest.skip("no C compiler")
    spec, horizon, grid = DIFFERENTIAL_CASES[case]
    monkeypatch.setattr(regret, "_kernel", lambda: None)
    ref = run_bandit_experiment(spec, ALGO_ALPHA, horizon, 5, seed0=2,
                                grid=grid, block=97)
    monkeypatch.setattr(regret, "_kernel", lambda: kernel)
    pids = force_workers(monkeypatch, workers)
    got = run_bandit_experiment(spec, ALGO_ALPHA, horizon, 5, seed0=2,
                                grid=grid, block=97)
    assert len(pids) == workers - 1
    assert got.per_seed.tobytes() == ref.per_seed.tobytes()


def test_compiled_noise_is_drawn_for_a_group_of_seeds_at_a_time(monkeypatch,
                                                                kernel):
    """The compiled loop holds at most ``_NOISE_FLOATS`` uniforms at once:
    a block's noise is drawn for as many seeds at a time as fit, and the
    grouping is physical only."""
    if kernel is None:
        pytest.skip("no C compiler")
    spec = small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="uniform")
    args = (spec, 700, UNEVEN_GRID[:4] + (50, 333, 699, 700), 97, 0, 5)
    ref, ref_state = regret._numpy_loop(*args), np.zeros(4 * 5 * spec.k)
    regret._numpy_loop(*args, ref_state)
    shapes = []

    def recording(u, s, kind):
        shapes.append(u.shape)
        return residual_noise(u, s, kind)

    monkeypatch.setattr(ucb, "NOISE_FLOATS", 200)  # 2 seeds of 97 steps
    monkeypatch.setattr(ucb, "residual_noise", recording)
    state = np.zeros(4 * 5 * spec.k)
    assert ucb.compiled_loop(kernel, *args, state).tobytes() == ref.tobytes()
    assert state.tobytes() == ref_state.tobytes()
    assert shapes[:4] == [(2, 97), (2, 97), (1, 97), (2, 97)]
    assert sum(r * c for r, c in shapes) == 5 * 700


# Hand-built blocks of one seed for ``ucb_block``, past its forced steps:
# (K, radius factor c_t per step, arm means, per-arm (sum, count) at the
# start), the arms the full index picks at each step (the noise is 0), and
# how many of those steps the kernel must take on the full K-way path.
LAZY_CASES = {
    # Arm 1 leads with a wider radius.  Four pulls at 0.5 give it arm 0's
    # exact (sum, count) on the window's last step, where c_t = c_end: arm
    # 0's bound equals the leader's index, the indices tie, and arm 0 wins.
    "tie_below_at_c_end": (2, [0.5 * math.log(1001 + b) for b in range(5)],
                           (0.5, 0.5), ((4.0, 8.0), (2.0, 4.0)),
                           [1, 1, 1, 1, 0], 2),
    # c_t = 0, so an index is its mean.  Arm 0 leads; one pull at 0 brings
    # it to arm 1's bound exactly (it keeps the lead, lazily), the next just
    # under it, by far less than 1e-300, and arm 1 takes over.
    "tie_above_then_under": (2, [0.0] * 3, (0.0, 0.0),
                             ((4e-300, 1.0), (2e-300, 1.0)), [0, 0, 1], 2),
    # c_t jumps above the window's c_end on step 2, where arm 0's radius
    # wins: the step must see that its bounds do not hold.
    "c_t_above_c_end": (2, [1.0, 1.0, 4.0, 1.0], (0.0, 0.75),
                        ((0.0, 1.0), (3.0, 4.0)), [1, 1, 0, 1], 3),
}


def hand_state(cells):
    """The four slabs sum | count | inv | mean of one seed's arms, with the
    kernel's own operations for inv and mean."""
    sums, counts = np.array(cells).T
    inv = 1.0 / counts
    return np.concatenate([sums, counts, inv, sums * inv])


@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_lazy_index_keeps_the_first_maximum_rule(kernel, case):
    """``ucb_block`` pulls the arms a full index recomputed at every step
    pulls, leaves the same slabs, and takes the leader-only path where the
    case says it must."""
    if kernel is None:
        pytest.skip("no C compiler")
    k, ct, means, cells, arms, full_steps = LAZY_CASES[case]
    n, t0 = len(ct), 1000
    ct, means = np.array(ct), np.array(means)
    noise = np.zeros(n)
    ref = hand_state(cells)
    sums, counts, inv, mean = ref.reshape(4, k)  # views
    want = []
    for b, c in enumerate(ct):  # the numpy loop's step, for one seed
        a = int(np.argmax(mean + np.sqrt(inv * c)))
        want.append(a)
        sums[a] = sums[a] + (means[a] + noise[b])
        counts[a] = counts[a] + 1.0
        inv[a] = 1.0 / counts[a]
        mean[a] = sums[a] * inv[a]
    assert want == arms
    state, reg, out = hand_state(cells), np.zeros(1), np.empty(n)
    full = np.zeros(1, dtype=np.int64)
    grid = np.arange(t0 + 1, t0 + n + 1)
    gaps = np.arange(k, dtype=np.float64)  # regret counts the arm numbers
    assert kernel.ucb_block(1, 1, k, t0, n, ct, means, gaps, noise, state,
                            reg, grid, n, 0, out, full) == n
    assert np.diff(out, prepend=0.0).tolist() == arms
    assert state.tobytes() == ref.tobytes()
    assert full[0] == full_steps


def test_most_steps_skip_the_full_index(kernel):
    """Between changes of leader the kernel computes only the leader's
    index: at K = 10, gap 0.1, sigma2 0.05 and T = 100k, under 10 % of all
    steps take the full K-way path (5.5 % when this was written)."""
    if kernel is None:
        pytest.skip("no C compiler")
    horizon, n_seeds = 100_000, 20
    full = np.zeros(1, dtype=np.int64)
    ucb.compiled_loop(kernel, grid_spec(10, 0.1, 0.05), horizon,
                      default_grid(horizon), 2048, 0, n_seeds, None, full)
    assert 0 < full[0] < 0.10 * horizon * n_seeds


def cold_cache(monkeypatch, tmp_path, **patch):
    """Point the kernel cache at ``tmp_path/cache``, apply ``patch`` to the
    kernel module, and forget this process's kernel."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for name, value in patch.items():
        monkeypatch.setattr(ucb, name, value)
    monkeypatch.setattr(regret, "_KERNEL_MEMO", [])


def files_under(path):
    return sorted(p for p in path.rglob("*") if p.is_file())


def pinned_digest_holds() -> bool:
    spec, algo, horizon, digest = PINNED_CURVES[0]
    curve = run_bandit_experiment(spec, algo, horizon, 20)
    return hashlib.sha256(curve.per_seed.tobytes()).hexdigest() == digest


def test_without_a_compiler_the_numpy_loop_runs(monkeypatch, tmp_path):
    cold_cache(monkeypatch, tmp_path,
               CC=(str(tmp_path / "no-such-cc"),) + ucb.CC[1:])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert regret._kernel() is None
    assert caught == []
    assert files_under(tmp_path) == []
    runs = regret.LOOP_RUNS["numpy"]
    assert pinned_digest_holds()
    assert regret.LOOP_RUNS["numpy"] == runs + 1


def test_a_kernel_that_disagrees_is_never_cached(monkeypatch, tmp_path):
    """A build whose tie rule differs from numpy's fails the check against
    the numpy loop: no kernel, and nothing left in the cache."""
    if shutil.which(ucb.CC[0]) is None:
        pytest.skip("no C compiler")
    src = ucb.SOURCE.read_text()
    assert src.count("if (v > best)") == 1
    wrong = tmp_path / "src" / "_ucb.c"
    wrong.parent.mkdir()
    wrong.write_text(src.replace("if (v > best)", "if (v >= best)"))
    cold_cache(monkeypatch, tmp_path, SOURCE=wrong)
    assert regret._kernel() is None
    assert files_under(tmp_path / "cache") == []


@needs_fork
def test_a_sharded_run_with_a_cold_cache_compiles_once(monkeypatch, tmp_path):
    cc = shutil.which(ucb.CC[0])
    if cc is None:
        pytest.skip("no C compiler")
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc"
    wrapper.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec "{cc}" "$@"\n')
    wrapper.chmod(0o755)
    cold_cache(monkeypatch, tmp_path, CC=(str(wrapper),) + ucb.CC[1:])
    pids = force_workers(monkeypatch, 3)
    runs = regret.LOOP_RUNS["compiled"]
    assert pinned_digest_holds()
    assert len(pids) == 2
    assert regret.LOOP_RUNS["compiled"] == runs + 1
    assert log.read_text() == "run\n"
    assert len(files_under(tmp_path / "cache")) == 1
    monkeypatch.setattr(regret, "_KERNEL_MEMO", [])  # a new process
    assert regret._kernel() is not None
    assert log.read_text() == "run\n"  # loaded from the cache


def test_seed_trajectories_independent_of_batch():
    spec = small_spec()
    solo = run_bandit_experiment(spec, ALGO_ALPHA, 1000, 1, seed0=3)
    batch = run_bandit_experiment(spec, ALGO_ALPHA, 1000, 8, seed0=0)
    assert np.array_equal(solo.per_seed[:, 0], batch.per_seed[:, 3])


def test_regret_curves_start_with_forced_exploration(each_loop):
    """The policy tries every arm once before exploiting, so regret at
    t = K equals the sum of all gaps."""
    spec = small_spec(means=(0.6, 0.5, 0.45, 0.4), sigma_x2=0.0)
    for loop in each_loop():
        curve = run_bandit_experiment(spec, ALGO_ALPHA, 50, 3,
                                      grid=[spec.k, 50])
        assert np.allclose(curve.per_seed[0], sum(spec.gaps)), loop


def test_mean_curve_non_decreasing():
    spec = small_spec(sigma_x2=0.05)
    curve = run_bandit_experiment(spec, ALGO_ALPHA, 5000, 10)
    assert np.all(np.diff(curve.mean) >= -1e-12)
    assert curve.n_seeds == 10
    assert curve.final.shape == (10,)


def test_noiseless_regret_is_gap_times_mistakes():
    """With no noise the index race is deterministic and pseudo-regret equals
    gap * (pulls of the bad arm); it must also plateau (log exploration)."""
    spec = small_spec(sigma_x2=0.0)
    curve = run_bandit_experiment(spec, ALGO_ALPHA, 4000, 1)
    final = float(curve.final[0])
    assert final == pytest.approx(round(final / 0.1) * 0.1, abs=1e-9)
    mid = float(curve.per_seed[np.searchsorted(curve.t_grid, 2000), 0])
    assert final - mid <= 0.1 + 1e-9  # at most one more mistake in the tail


def test_experiment_validation():
    spec = small_spec()
    for algo in ("thompson", "uct"):  # UCB1 was retired
        with pytest.raises(ValueError, match="unknown algo"):
            run_bandit_experiment(spec, algo, 100, 2)
        with pytest.raises(ValueError, match="unknown algo"):
            simulate_policy_scalar(spec, algo, 100, 0)
    with pytest.raises(ValueError):
        run_bandit_experiment(spec, ALGO_ALPHA, 0, 2)
    with pytest.raises(ValueError):
        run_bandit_experiment(spec, ALGO_ALPHA, 100, 2, grid=[5, 3])
    with pytest.raises(ValueError):
        run_bandit_experiment(spec, ALGO_ALPHA, 100, 2, grid=[0, 5])


# -- fits ------------------------------------------------------------------------


def synthetic_curve(fn, horizon=10_000, n_seeds=5, jitter=0.0) -> RegretCurve:
    grid = default_grid(horizon)
    t = np.asarray(grid, dtype=float)
    base = fn(t)
    rng = np.random.default_rng(0)
    per_seed = np.tile(base[:, None], (1, n_seeds))
    if jitter:
        per_seed = per_seed + rng.normal(0.0, jitter, per_seed.shape)
    return RegretCurve(spec=small_spec(), horizon=horizon,
                       t_grid=grid, per_seed=per_seed, seed0=0)


def test_fit_recovers_synthetic_log_slope():
    curve = synthetic_curve(lambda t: 5.0 * np.log(t) + 2.0)
    fit = fit_log_regret(curve)
    assert fit.slope == pytest.approx(5.0, abs=1e-6)
    assert fit.intercept == pytest.approx(2.0, abs=1e-5)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.log_model_preferred
    assert fit.window[1] == 10_000


def test_fit_flags_linear_growth():
    curve = synthetic_curve(lambda t: 0.01 * t, jitter=0.05)
    fit = fit_log_regret(curve)
    assert fit.linear_r_squared > fit.r_squared
    assert not fit.log_model_preferred


def test_fit_window_validation():
    # only t = 9_000 and 10_000 lie in the tail window [5_000, 10_000]
    grid = (1, 10, 100, 1000, 9000, 10_000)
    short = RegretCurve(spec=small_spec(), horizon=10_000, t_grid=grid,
                        per_seed=np.tile(np.log(grid)[:, None], (1, 3)),
                        seed0=0)
    with pytest.raises(ValueError, match="fewer than 3"):
        fit_log_regret(short)
    with pytest.raises(ValueError, match="fewer than 3"):
        per_seed_log_slopes(short)
    flat = synthetic_curve(lambda t: np.ones_like(t))
    with pytest.raises(ValueError):
        fit_log_regret(flat)


def test_per_seed_slopes_mean_equals_mean_curve_slope():
    """Exact linearity: the mean of per-seed slopes is the mean-curve slope,
    which is what makes slope bootstraps cheap."""
    spec = small_spec(sigma_x2=0.05)
    curve = run_bandit_experiment(spec, ALGO_ALPHA, 3000, 12)
    slopes = per_seed_log_slopes(curve)
    assert slopes.shape == (12,)
    assert float(slopes.mean()) == pytest.approx(fit_log_regret(curve).slope,
                                                 abs=1e-10)


def test_slope_ratio_ci_on_synthetic_curves():
    num = synthetic_curve(lambda t: 9.0 * np.log(t), jitter=0.05)
    den = synthetic_curve(lambda t: 3.0 * np.log(t), jitter=0.05)
    sr = slope_ratio_ci(num, den, n_boot=500)
    assert sr.ratio == pytest.approx(3.0, rel=0.05)
    assert sr.ci_lo <= sr.ratio <= sr.ci_hi
    assert sr.n_seeds == 5


def test_efficiency_ratio_rho_one_is_exactly_one():
    spec = small_spec(means=(0.55, 0.45), sigma_x2=0.2)
    points = efficiency_ratio_experiment(spec, [0.25, 1.0], 2000, 12,
                                         n_boot=300)
    assert points[1].rho == 1.0
    assert points[1].ratio == 1.0
    assert (points[1].ci_lo, points[1].ci_hi) == (1.0, 1.0)
    assert points[0].ratio < 1.0  # sharper predictions help
    assert points[0].ci_lo <= points[0].ratio <= points[0].ci_hi
    assert points[0].base_mean_regret == points[1].mean_regret
    with pytest.raises(ValueError):
        efficiency_ratio_experiment(spec, [1.5], 500, 4)


def test_efficiency_ratio_checks_every_rho_before_any_run(monkeypatch):
    """A bad grid entry is rejected before the baseline or any earlier sweep
    point runs; a good grid runs the baseline and each rho < 1 once."""
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec.rho)
        return run_bandit_experiment(spec, *args, **kwargs)

    monkeypatch.setattr(regret, "run_bandit_experiment", counting)
    spec = small_spec(means=(0.55, 0.45), sigma_x2=0.2)
    with pytest.raises(ValueError, match="rho grid"):
        efficiency_ratio_experiment(spec, [0.1, 1.5], 500, 4)
    assert calls == []
    efficiency_ratio_experiment(spec, [0.1, 1.0], 50, 2, n_boot=10)
    assert calls == [1.0, 0.1]
