"""Regret-lab numerics: closed-form bound values, confidence radii, the
martingale tail bound, simulation determinism, the scalar/vectorized twin
property, pinned curve digests, the kernel's step loop against
``kernel.NUMPY``'s under the one driver ``kernel.simulate`` on hand-picked
and random runs, and slope fitting on synthetic curves."""
import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alphauct import kernel as ucb
from alphauct import regret
from alphauct.envs import NOISE_KINDS, BanditSpec
from alphauct.lab import (MdsSpec, efficiency_ratio_experiment,
                          freedman_empirical_check, freedman_radius,
                          freedman_tail_bound, slope_ratio_ci)
from alphauct.regret import (ALGO_ALPHA, RegretCurve, bound_for_spec,
                             default_grid, fit_log_regret, per_seed_log_slopes,
                             run_bandit_experiment, simulate_policy_scalar,
                             theorem1_bound)
from alphauct.rng import derive_rng
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


@pytest.mark.parametrize("gaps, sigma_res2", [
    ([math.nan], 0.1), ([0.1, math.inf], 0.1), ([0.1], math.nan),
    ([0.1], math.inf),
])
def test_bound_rejects_non_finite_inputs(gaps, sigma_res2):
    """A NaN gap or variance would give a NaN bound that no regret exceeds."""
    with pytest.raises(ValueError, match="finite"):
        theorem1_bound(gaps, sigma_res2, horizon=100)


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


@pytest.mark.parametrize("sigma2", [-0.01, math.nan])
def test_freedman_radius_rejects_bad_variance(sigma2):
    with pytest.raises(ValueError, match="sigma2 must be >= 0"):
        freedman_radius(10, sigma2, 0.1)


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


def test_freedman_check_needs_steps_and_walks():
    mds = MdsSpec(scale=0.25, scale_hi=0.25)
    for n, trials in ((0, 10), (10, 0)):
        with pytest.raises(ValueError, match="^n and trials must be >= 1$"):
            freedman_empirical_check(mds, n, (3.0,), (25.0,), trials=trials)


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
        mp.setattr(ucb, "compiled", cache(ucb.build))
        lib = ucb.compiled()
    if lib is None and shutil.which(ucb.CC[0]) is not None:
        pytest.fail("a C compiler is present but the kernel did not build")
    return lib


@pytest.fixture(scope="module")
def portable(tmp_path_factory):
    """The kernel built with ``kernel.CC`` plus ``-U__SSE2__`` and every
    warning an error, bound but not checked; ``None`` where there is no C
    compiler."""
    if shutil.which(ucb.CC[0]) is None:
        return None
    lib = tmp_path_factory.mktemp("portable") / "ucb.so"
    res = subprocess.run([ucb.CC[0], "-U__SSE2__", *ucb.CC[1:], "-Wall",
                          "-Wextra", "-Wshadow", "-Werror", "-o", str(lib),
                          str(ucb.SOURCE), "-lm"], stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return ucb.bind(ctypes.CDLL(str(lib)))


@pytest.fixture
def each_loop(monkeypatch, kernel):
    """Call it to iterate over the step loops, "compiled" (where it built)
    and then "numpy", with ``kernel.compiled`` patched to each in turn."""
    def each():
        for name, lib in (("compiled", kernel), ("numpy", None)):
            if name == "numpy" or lib is not None:
                monkeypatch.setattr(ucb, "compiled", lambda lib=lib: lib)
                yield name
    return each


def test_default_grid_shape():
    grid = default_grid(100_000)
    assert grid[0] == 1 and grid[-1] == 100_000
    assert list(grid) == sorted(set(grid))
    small = default_grid(100)
    assert small == tuple(range(1, 101))


def test_default_grid_needs_a_step():
    with pytest.raises(ValueError, match="^horizon must be >= 1$"):
        default_grid(0)


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


def force_shards(monkeypatch, w: int) -> list[tuple[int, int]]:
    """Split every run into ``w`` seed shards of a recording wrapper around
    the step loop ``kernel.compiled`` gives now (``NUMPY`` where that is
    ``None``), resolved on each call; returns the ``(thread id, n_seeds)``
    of every ``ucb_run`` call."""
    calls = []
    inner = ucb.compiled

    def recording():
        lib = inner() or ucb.NUMPY

        def ucb_run(n_seeds, *args):
            calls.append((threading.get_ident(), n_seeds))
            return lib.ucb_run(n_seeds, *args)
        return SimpleNamespace(ucb_run=ucb_run)

    monkeypatch.setattr(ucb, "_worker_count", lambda n_seeds, horizon: w)
    monkeypatch.setattr(ucb, "compiled", recording)
    return calls


def assert_shards_ran(calls, sizes):
    """Each shard made exactly one ``ucb_run`` call: shard 0 (``sizes[0]``
    seeds) in this thread, every other one in another thread."""
    here = threading.get_ident()
    assert [n for tid, n in calls if tid == here] == [sizes[0]]
    assert sorted(n for tid, n in calls if tid != here) == sorted(sizes[1:])


UNEVEN_GRID = (1, 2, 3, 4, 50, 333, 1000, 1499, 1500)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_seed_shards_are_bit_equal_to_one_process(monkeypatch, each_loop,
                                                  workers):
    """7 seeds in 1, 2 or 3 contiguous shards (3 gives 2 + 2 + 3), the
    first on this thread and each other one on a pool thread: the same
    bytes as the one-thread run, on either step loop, and no thread is left
    running."""
    spec = small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="uniform")
    sizes = {1: (7,), 2: (3, 4), 3: (2, 2, 3)}[workers]
    threads = threading.active_count()
    for loop in each_loop():
        ref = run_bandit_experiment(spec, ALGO_ALPHA, 1500, 7, seed0=4,
                                    grid=UNEVEN_GRID, block=97)
        with monkeypatch.context() as mp:
            calls = force_shards(mp, workers)
            got = run_bandit_experiment(spec, ALGO_ALPHA, 1500, 7, seed0=4,
                                        grid=UNEVEN_GRID, block=97)
        assert_shards_ran(calls, sizes)
        assert threading.active_count() == threads, loop
        assert got.per_seed.shape == (len(UNEVEN_GRID), 7)
        assert got.per_seed.flags.c_contiguous and got.per_seed.flags.writeable
        assert got.per_seed.tobytes() == ref.per_seed.tobytes(), loop
        assert (got.t_grid, got.seed0) == (UNEVEN_GRID, 4)


@pytest.mark.parametrize("spec, algo, horizon, digest", PINNED_CURVES)
def test_sharded_curve_matches_pinned_digest(monkeypatch, each_loop, spec,
                                             algo, horizon, digest):
    for loop in each_loop():
        with monkeypatch.context() as mp:
            calls = force_shards(mp, 2)
            curve = run_bandit_experiment(spec, algo, horizon, 20)
        assert_shards_ran(calls, (10, 10))
        assert hashlib.sha256(curve.per_seed.tobytes()).hexdigest() == digest, \
            loop


def test_more_shards_than_cores_keep_every_cell(monkeypatch, kernel):
    """16 seeds in 8 shards, with the interpreter switching threads every
    microsecond: the curve, final slabs, PCG64 rows and full-step count
    equal the one-thread run's, so no shard wrote another's cells or lost
    its count."""
    spec = small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="uniform")
    monkeypatch.setattr(ucb, "compiled", lambda: kernel)

    def run(w):
        with monkeypatch.context() as mp:
            calls = force_shards(mp, w)
            run = ucb.simulate(spec, 3000, default_grid(3000), 97, 5, 21)
        assert_shards_ran(calls, (16 // w,) * w)
        return (run.per_seed.tobytes(), run.state.tobytes(), run.pcg.tobytes(),
                run.full_steps)

    ref = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run(8) == ref
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("fault", ["raise", "short", "status"])
def test_a_failed_shard_makes_the_run_raise(monkeypatch, kernel, fault):
    """7 seeds in shards of 2 + 2 + 3.  "raise": a shard's ``ucb_run``
    raises, in this thread or in a pool thread; the call raises that
    exception.  "short": the pool shard of seeds [2, 4) returns one
    checkpoint too few; "status": it returns -1, the status of a block whose
    checkpoint index left [gi, n_grid].  Each way the call raises once
    every shard has stopped, returns no curve, and leaves no thread
    running."""
    here = threading.get_ident()
    threads = threading.active_count()
    lib = kernel or ucb.NUMPY
    for in_caller in ((True, False) if fault == "raise" else (False,)):
        calls = []

        def ucb_run(n_seeds, *args):
            calls.append(n_seeds)
            faulty = ((threading.get_ident() == here) == in_caller
                      and n_seeds == 2)
            if fault == "raise" and faulty:
                raise OSError("shard lost")
            gi = lib.ucb_run(n_seeds, *args)
            if fault == "short" and faulty:
                return gi - 1
            if fault == "status" and faulty:
                return -1
            return gi

        want = {"raise": (OSError, "shard lost"),
                "short": (RuntimeError, r"bandit seeds \[2, 4\): step loop "
                          r"returned checkpoint 149 of 150$"),
                "status": (RuntimeError, r"bandit seeds \[2, 4\): step loop "
                           r"returned checkpoint -1 of 150$")}
        with monkeypatch.context() as mp:
            mp.setattr(ucb, "_worker_count", lambda n_seeds, horizon: 3)
            mp.setattr(ucb, "compiled",
                       lambda: SimpleNamespace(ucb_run=ucb_run))
            curve = None
            with pytest.raises(want[fault][0], match=want[fault][1]):
                curve = run_bandit_experiment(small_spec(), ALGO_ALPHA, 300,
                                              7, grid=range(2, 302, 2),
                                              block=97)
        assert curve is None
        assert threading.active_count() == threads, in_caller
        assert sorted(calls) == [2, 2, 3], in_caller  # every shard ran once


def test_the_numpy_run_stops_at_a_block_behind_its_index(monkeypatch):
    """``NUMPY.ucb_run`` returns -1 as soon as a block's step returns a
    checkpoint index behind the one it was given, here on the second of four
    blocks, and steps no further block; the run raises."""
    blocks = []
    inner = ucb._numpy_block

    def behind(n_seeds, stride, k, t0, n, *args):
        blocks.append(t0)
        got = inner(n_seeds, stride, k, t0, n, *args)
        return args[-3] - 1 if t0 == 97 else got  # args[-3]: gi

    monkeypatch.setattr(ucb, "compiled", lambda: None)
    monkeypatch.setattr(ucb, "_numpy_block", behind)
    with pytest.raises(RuntimeError, match=r"bandit seeds \[0, 7\): step "
                       r"loop returned checkpoint -1 of 150$"):
        run_bandit_experiment(small_spec(), ALGO_ALPHA, 300, 7,
                              grid=range(2, 302, 2), block=97)
    assert blocks == [0, 97]


def test_arguments_are_checked_before_any_simulation(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(ucb, "simulate", no_simulation)
    spec = small_spec()
    for args, kwargs in [((ALGO_ALPHA, 0, 4), {}), ((ALGO_ALPHA, 100, 0), {}),
                         (("uct", 100, 4), {}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [5, 3]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [0, 5]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [5, 101]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": []}),
                         ((ALGO_ALPHA, 100, 4), {"block": 0}),
                         ((ALGO_ALPHA, 100, 4), {"block": -3}),
                         # a step number past 2^53 is no exact double
                         ((ALGO_ALPHA, 2**53 + 1, 4), {}),
                         # ints only: no float, bool or string, even where
                         # its value is a whole number
                         ((ALGO_ALPHA, 2000, 1000.0), {}),
                         ((ALGO_ALPHA, 100.0, 4), {}),
                         ((ALGO_ALPHA, True, 4), {}),
                         ((ALGO_ALPHA, 100, True), {}),
                         ((ALGO_ALPHA, 100, 4), {"block": 64.0}),
                         ((ALGO_ALPHA, 100, 4), {"block": True}),
                         ((ALGO_ALPHA, 2000, 1000), {"seed0": 1.5}),
                         ((ALGO_ALPHA, 100, 4), {"seed0": True}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [1.5, 10]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [True, 10]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [1, 10.0]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": [1, np.bool_(1)]}),
                         ((ALGO_ALPHA, 100, 4), {"grid": ["1", 10]})]:
        with pytest.raises(ValueError):
            run_bandit_experiment(spec, *args, **kwargs)


def test_numpy_integer_arguments_are_stored_as_int():
    spec = small_spec()
    ref = run_bandit_experiment(spec, ALGO_ALPHA, 60, 3, grid=[3, 10, 60])
    got = run_bandit_experiment(spec, ALGO_ALPHA, np.int64(60), np.int32(3),
                                seed0=np.int8(0), grid=np.array([3, 10, 60]),
                                block=np.uint16(7))
    assert got.t_grid == (3, 10, 60)
    assert all(type(t) is int for t in got.t_grid)
    assert type(got.horizon) is int and type(got.seed0) is int
    assert np.array_equal(got.per_seed, ref.per_seed)


def test_worker_count_rule(monkeypatch):
    """Small runs take one thread; a large one gets a shard per usable
    core, at most one per seed."""
    big = ucb.SHARD_MIN_SEED_STEPS
    assert ucb._worker_count(20, 20_000) == 1  # the pinned-digest runs
    assert ucb._worker_count(1, big - 1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert ucb._worker_count(1000, big) == 3
    assert ucb._worker_count(2, big) == 2
    assert ucb._worker_count(1, big) == 1


def test_worker_count_without_affinity(monkeypatch):
    """Where ``os`` has no ``sched_getaffinity``, a large run gets a shard
    per CPU that ``os.cpu_count`` reports, and one if it reports none."""
    big = ucb.SHARD_MIN_SEED_STEPS
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert ucb._worker_count(1000, big) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ucb._worker_count(1000, big) == 1


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
    with ``kernel.NUMPY``'s bits, so no rounding differs on the way."""
    if kernel is None:
        pytest.skip("no C compiler")
    spec, horizon, grid = DIFFERENTIAL_CASES[case]
    args = (spec, horizon, grid or tuple(range(1, horizon + 1)), 97, 2, 7)
    ours = ucb.simulate(*args, kernel)
    ref = ucb.simulate(*args, ucb.NUMPY)
    assert ours.per_seed.tobytes() == ref.per_seed.tobytes()
    assert ours.state.tobytes() == ref.state.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_compiled_loop_is_bit_equal_to_numpy_loop(monkeypatch, kernel, case,
                                                  workers):
    if kernel is None:
        pytest.skip("no C compiler")
    spec, horizon, grid = DIFFERENTIAL_CASES[case]
    monkeypatch.setattr(ucb, "compiled", lambda: None)
    ref = run_bandit_experiment(spec, ALGO_ALPHA, horizon, 5, seed0=2,
                                grid=grid, block=97)
    monkeypatch.setattr(ucb, "compiled", lambda: kernel)
    calls = force_shards(monkeypatch, workers)
    got = run_bandit_experiment(spec, ALGO_ALPHA, horizon, 5, seed0=2,
                                grid=grid, block=97)
    assert_shards_ran(calls, {1: (5,), 2: (2, 3), 3: (1, 2, 2)}[workers])
    assert got.per_seed.tobytes() == ref.per_seed.tobytes()


@st.composite
def bandit_runs(draw):
    """(spec, horizon, grid, block, seed_lo, seed_hi) of a random run: K in
    1..16; either exact binary means (0.75 over ties at 0.25 and 0.5) under
    two-point noise of a binary width, so that arms tie on the index, or
    free means with sigma2 including 0 and 1e-6, either noise kind and rho
    in [0, 1]; seed windows with negative seeds and seeds of two 32-bit
    words, blocks of 1..400 steps, horizons up to 3,000, and grids with
    checkpoints inside the forced first K steps."""
    k = draw(st.integers(1, 16))
    if draw(st.booleans()):
        means = draw(st.lists(st.sampled_from((0.25, 0.5)), min_size=k - 1,
                              max_size=k - 1))
        means.insert(draw(st.integers(0, k - 1)), 0.75)
        spec = BanditSpec(means=tuple(means), sigma_x2=0.0625,
                          rho=draw(st.sampled_from((1.0, 0.25))))
    else:
        means = draw(st.lists(st.floats(0.3, 0.7), min_size=k, max_size=k,
                              unique=True))
        noise = draw(st.sampled_from(NOISE_KINDS))
        top = 0.0625 if noise == "two_point" else 0.02  # half-width <= 0.25
        spec = BanditSpec(
            means=tuple(means), noise=noise,
            sigma_x2=draw(st.sampled_from((0.0, 1e-6)) | st.floats(0.0, top)),
            rho=draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)))
    block = draw(st.integers(1, 8) | st.integers(1, 400))
    horizon = draw(st.integers(1, min(3000, 300 * block)))
    forced = draw(st.sets(st.integers(1, min(k, horizon))))
    free = draw(st.sets(st.integers(1, horizon), min_size=1, max_size=30))
    seed_lo = draw(st.sampled_from((-4, 2**32 - 2))
                   | st.integers(-(2**33), 2**33))
    return (spec, horizon, tuple(sorted(forced | free)), block, seed_lo,
            seed_lo + draw(st.integers(1, 16)))


# The random-run gate's explicit run: 16 seeds of exact binary rewards in
# 2-step blocks (see test_random_runs_agree_bit_for_bit).
EXPLICIT_RUN = (BanditSpec(means=(0.5, 0.25, 0.5, 0.75, 0.25, 0.5, 0.25, 0.5),
                           sigma_x2=0.0625), 200, (1, 3, 8, 9, 100, 200), 2,
                -4, 12)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(run=bandit_runs())
@example(run=EXPLICIT_RUN)
def test_random_runs_agree_bit_for_bit(kernel, portable, run):
    """On random runs both kernel builds (SSE2 and portable) leave
    ``kernel.NUMPY``'s curve, final slabs and final PCG64 rows bit for bit,
    across many block edges of ``ucb_run``, and the first seed's curve is
    ``simulate_policy_scalar``'s.  The explicit run, 16 seeds of exact
    binary rewards in 2-step blocks, meets index ties at window ends, where
    the leader-only step must hand the lead to a lower arm; random runs
    meet them rarely."""
    spec, horizon, grid, block, seed_lo, seed_hi = run

    def simulate(lib):
        run = ucb.simulate(spec, horizon, grid, block, seed_lo, seed_hi, lib)
        return run.per_seed, run.state.tobytes(), run.pcg.tobytes()

    out, *ref = simulate(ucb.NUMPY)
    for lib in (kernel, portable):
        if lib is not None:
            got, *cells = simulate(lib)
            assert (got.tobytes(), cells) == (out.tobytes(), ref)
    scalar = simulate_policy_scalar(spec, ALGO_ALPHA, horizon, seed_lo)
    assert np.array_equal(out[:, 0], scalar[np.array(grid) - 1])


@pytest.mark.parametrize("spec", [
    small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="uniform"),
    small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="two_point"),
    small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.0),
], ids=["uniform", "two_point", "noiseless"])
def test_each_seed_ends_at_its_numpy_generators_state(kernel, spec):
    """Either lib draws each seed's pull noise from the seed's own numpy
    PCG64 stream, one draw a step whatever the arm (zero noise too), across
    blocks: after the run each seed's state row is what its numpy generator
    holds after ``horizon`` ``random()`` draws.  The windows include seeds
    of two 32-bit words (a wider key) and negative seeds (masked to 64
    bits)."""
    horizon = 700
    for seed_lo, seed_hi in ((2, 7), (2**32 - 2, 2**32 + 2), (-3, 1)):
        want = []
        for sd in range(seed_lo, seed_hi):
            gen = derive_rng(0, "pull-noise", sd).generator()
            gen.random(horizon)
            want.append(gen.bit_generator.state["state"])
        for lib in [lib for lib in (ucb.NUMPY, kernel) if lib is not None]:
            pcg = ucb.simulate(spec, horizon, (horizon,), 97, seed_lo,
                               seed_hi, lib).pcg
            got = [{"state": int(hi) << 64 | int(lo),
                    "inc": int(inc_hi) << 64 | int(inc_lo)}
                   for lo, hi, inc_lo, inc_hi in pcg.reshape(-1, 4)]
            assert got == want, (seed_lo, seed_hi)


@pytest.mark.parametrize("n_seeds", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("noise", NOISE_KINDS)
def test_the_first_block_runs_dense(kernel, noise, n_seeds):
    """A block that starts at or before step K runs every step past K as a
    full step, step-major over groups of seeds: a one-block run takes
    n_seeds * (n - K) full steps.  For seed counts below, at and past a
    multiple of the group size and blocks of 1, K - 1, K, K + 1 and 2048
    steps (so one or two dense blocks hand off to lazy ones), the kernel
    leaves ``NUMPY``'s curve, slabs and PCG64 rows, with checkpoints inside
    the dense blocks and after them."""
    if kernel is None:
        pytest.skip("no C compiler")
    spec = small_spec(means=(0.5, 0.6, 0.45, 0.55, 0.4), sigma_x2=0.05,
                      noise=noise)
    k = spec.k
    one = ucb.simulate(spec, 300, (300,), 300, 0, n_seeds, kernel)
    assert one.full_steps == n_seeds * (300 - k)
    for block in (1, k - 1, k, k + 1, 2048):
        horizon = block + 60
        grid = tuple(sorted({1, 2, k - 1, k, k + 1, k + 2, 40, block,
                             block + 1, horizon}))

        def simulate(lib):
            run = ucb.simulate(spec, horizon, grid, block, 3, 3 + n_seeds,
                               lib)
            return [a.tobytes() for a in (run.per_seed, run.state, run.pcg)]

        assert simulate(kernel) == simulate(ucb.NUMPY), block


@pytest.mark.parametrize("case", sorted(ucb.LAZY_CASES))
def test_lazy_index_keeps_the_first_maximum_rule(kernel, case):
    """On each hand-built block ``NUMPY.ucb_block`` pulls the arms the case
    states, and the kernel's ``ucb_block`` returns the same checkpoint
    index, regret writes and slabs, bit for bit, and takes the leader-only
    path where the case says it must."""
    arms, full_steps = ucb.LAZY_CASES[case][4:]
    got, out, state, full = ucb.run_lazy_case(ucb.NUMPY, case)
    assert got == len(arms)
    assert np.diff(np.frombuffer(out), prepend=0.0).tolist() == arms
    assert full == len(arms)  # the numpy block computes every index
    if kernel is None:
        pytest.skip("no C compiler")
    assert ucb.run_lazy_case(kernel, case) == (got, out, state, full_steps)


def test_most_steps_skip_the_full_index(kernel):
    """Between changes of leader the kernel computes only the leader's
    index: at K = 10, gap 0.1, sigma2 0.05 and T = 100k, under 10 % of all
    steps take the full K-way path (5.03 % when this was written, 3.05 %
    past the dense first block, whose 2,038 post-forced steps a seed are
    all full)."""
    if kernel is None:
        pytest.skip("no C compiler")
    horizon, n_seeds = 100_000, 20
    full = ucb.simulate(grid_spec(10, 0.1, 0.05), horizon,
                        default_grid(horizon), 2048, 0, n_seeds,
                        kernel).full_steps
    assert 0 < full < 0.10 * horizon * n_seeds


def test_windows_grow_while_the_leader_holds(kernel):
    """A window that runs out with the leader kept doubles the next one (up
    to 256 steps), so where the leader rarely changes most full steps that
    remain are changes of leader, not window expiries: at K = 2, gap 0.1,
    sigma2 0.05 and T = 100k, fewer than one step in 32 past the first
    block takes the full path, which fixed 32-step windows could not do
    (3.49 % of the post-forced steps with them).  Every post-forced step
    of the first block is full, since that block runs dense (see
    ``test_the_first_block_runs_dense``), so the count leaves that block
    out: 0.94 % past it when this was written, against 2.97 % of all
    post-forced steps."""
    if kernel is None:
        pytest.skip("no C compiler")
    k, horizon, n_seeds, block = 2, 100_000, 20, 2048
    full = ucb.simulate(grid_spec(k, 0.1, 0.05), horizon,
                        default_grid(horizon), block, 0, n_seeds,
                        kernel).full_steps
    lazy = full - n_seeds * (block - k)
    assert 0 < lazy < (horizon - block) * n_seeds / 32


def cold_cache(monkeypatch, tmp_path, **patch):
    """Point the kernel cache at ``tmp_path/cache``, apply ``patch`` to the
    kernel module, and forget this process's kernel."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for name, value in patch.items():
        monkeypatch.setattr(ucb, name, value)
    monkeypatch.setattr(ucb, "compiled", cache(ucb.build))


def files_under(path):
    return sorted(p for p in path.rglob("*") if p.is_file())


def pinned_digest_holds() -> bool:
    spec, algo, horizon, digest = PINNED_CURVES[0]
    curve = run_bandit_experiment(spec, algo, horizon, 20)
    return hashlib.sha256(curve.per_seed.tobytes()).hexdigest() == digest


def assert_numpy_fallback(tmp_path):
    """No kernel, no warning, no file under ``tmp_path``, and the pinned
    curve from ``kernel.NUMPY``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ucb.compiled() is None
    assert caught == []
    assert files_under(tmp_path) == []
    runs = regret.LOOP_RUNS["numpy"]
    assert pinned_digest_holds()
    assert regret.LOOP_RUNS["numpy"] == runs + 1


def test_without_a_compiler_the_numpy_loop_runs(monkeypatch, tmp_path):
    cold_cache(monkeypatch, tmp_path,
               CC=(str(tmp_path / "no-such-cc"),) + ucb.CC[1:])
    assert_numpy_fallback(tmp_path)


def test_a_compiler_that_rejects_the_source_leaves_the_numpy_loop(
        monkeypatch, tmp_path):
    """The kernel's PCG64 state is an ``unsigned __int128``.  A compiler
    without the type (here ``cc`` with it defined away) fails the build,
    and the numpy loop runs as without a compiler."""
    if shutil.which(ucb.CC[0]) is None:
        pytest.skip("no C compiler")
    cold_cache(monkeypatch, tmp_path,
               CC=(ucb.CC[0], "-D__int128=__no_int128_type") + ucb.CC[1:])
    assert_numpy_fallback(tmp_path)


def test_the_portable_pass_agrees_with_numpy(portable):
    """Built without ``__SSE2__``, the full step computes each arm's index
    and bound with scalar ``sqrt``: that path also builds without warnings
    and passes the build check."""
    if portable is None:
        pytest.skip("no C compiler")
    assert ucb.agrees_with_numpy(portable)


def test_the_kernel_compiles_without_warnings(tmp_path):
    """``_ucb.c`` builds with ``kernel.CC`` plus ``-Wall -Wextra -Wshadow
    -Werror``: in particular no name in the step body shadows another, so
    each means one thing over its whole scope."""
    if shutil.which(ucb.CC[0]) is None:
        pytest.skip("no C compiler")
    res = subprocess.run([*ucb.CC, "-Wall", "-Wextra", "-Wshadow", "-Werror",
                          "-o", str(tmp_path / "ucb.so"), str(ucb.SOURCE),
                          "-lm"], stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


# Run in a fresh interpreter on the UBSan build at argv[1]: the build check,
# then EXPLICIT_RUN (argv[2], as a literal) against NUMPY.
UBSAN_SCRIPT = """
import ast, ctypes, sys
from alphauct import kernel as ucb
from alphauct.envs import BanditSpec
lib = ucb.bind(ctypes.CDLL(sys.argv[1]))
means, sigma_x2, *run = ast.literal_eval(sys.argv[2])
spec = BanditSpec(means=means, sigma_x2=sigma_x2)
got, ref = (ucb.simulate(spec, *run, x) for x in (lib, ucb.NUMPY))
print(ucb.agrees_with_numpy(lib),
      all(getattr(got, f).tobytes() == getattr(ref, f).tobytes()
          for f in ("per_seed", "state", "pcg")))
"""


def test_the_kernel_has_no_undefined_behaviour(tmp_path):
    """Built with ``-fsanitize=undefined,bounds -fno-sanitize-recover=all``,
    which aborts the process at the first undefined operation (an index
    past a local array such as a dense group's, a shift past the word, a
    signed overflow), the kernel passes the build check and agrees with
    ``NUMPY`` on the random-run gate's explicit run, in a subprocess.
    Skipped only where the compiler cannot build that library."""
    if shutil.which(ucb.CC[0]) is None:
        pytest.skip("no C compiler")
    lib = tmp_path / "ucb.so"
    res = subprocess.run([*ucb.CC, "-fsanitize=undefined,bounds",
                          "-fno-sanitize-recover=all", "-o", str(lib),
                          str(ucb.SOURCE), "-lm"], stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        pytest.skip(f"cc cannot build with UBSan: {res.stderr[-200:]}")
    spec, *run = EXPLICIT_RUN
    path = [str(Path(ucb.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    res = subprocess.run([sys.executable, "-c", UBSAN_SCRIPT, str(lib),
                          repr((spec.means, spec.sigma_x2, *run))], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout) == (0, "True True\n"), res.stderr


@pytest.mark.parametrize("right, wrong", [
    ("if (v > best)", "if (v >= best)"),  # a tie in the full index
    ("lo < v", "lo <= v"),  # a tie with a bound below the leader
    ("(w >> 11)", "(w >> 12)"),  # the uniform's bits
    ("*state >> 122", "*state >> 121"),  # the XSL-RR rotation
    ("p[0] = (uint64_t)state; p[1] = (uint64_t)(state >> 64);", ""),
    ("/* the held leader, before the pass */\n            put(",
     "if (0) put("),
    ("/* the held leader, at the block's end */\n        put(",
     "if (0) put("),
    ("ucb_log_table(scale, t0, n, ct);", "ucb_log_table(scale, 0, n, ct);"),
    ("gi = got;", "gi = 0;"),
    ("int64_t n = horizon - t0 < block ? horizon - t0 : block;",
     "int64_t n = block;"),
    ("int64_t forced = k - t0 < n ? k - t0 : n;",
     "int64_t forced = k - t0 - 1 < n ? k - t0 - 1 : n;"),
    ("*due = ++*g < n_grid ? grid[*g] - t0 - 1 : -1;", "++*g;"),
    ("if (!(ct[b] <= c_end))\n                    break;", ""),
    ("int take = v > best;", "int take = v >= best;"),  # the dense tie
    ("p[0] = (uint64_t)state[i];\n            "
     "p[1] = (uint64_t)(state[i] >> 64);", ""),
    ("due = ++g < n_grid ? grid[g] - t0 - 1 : -1;",
     "due = g < n_grid ? grid[g] - t0 - 1 : -1;"),
], ids=["full_tie", "lazy_tie", "output_shift", "rotation", "no_write_back",
        "no_flush_on_change", "no_flush_at_block_end", "ln_from_step_1",
        "index_from_0", "full_last_block", "forced_short", "stale_due",
        "no_c_end_exit", "dense_tie", "no_dense_write_back",
        "dense_stale_due"])
def test_a_kernel_that_disagrees_is_never_cached(monkeypatch, tmp_path, right,
                                                 wrong):
    """A build whose tie rule, noise stream, slab updates, forced steps,
    checkpoints or block loop differ from numpy's fails the check against
    ``kernel.NUMPY``: no kernel, and nothing left in the cache.  The lazy
    tie and a window step that skips its ``ct[b] <= c_end`` exit show only
    on ``LAZY_CASES``' hand-built blocks (the exit on
    ``c_t_above_c_end``); a state or held leader not written back after a
    block, and a ``ucb_run`` that fills the ln table from step 1, restarts
    the checkpoint index or runs the last, shorter block in full, show
    because ``CHECK_RUNS`` cross five ``CHECK_BLOCK``-step blocks.  The
    dense first block's tie rule, its stream write-back and its checkpoint
    index show on ``CHECK_RUNS`` too, whose exact binary rewards tie in
    that block and whose dense blocks hand off to lazy ones."""
    if shutil.which(ucb.CC[0]) is None:
        pytest.skip("no C compiler")
    src = ucb.SOURCE.read_text()
    assert src.count(right) == 1
    wrong_src = tmp_path / "src" / "_ucb.c"
    wrong_src.parent.mkdir()
    wrong_src.write_text(src.replace(right, wrong))
    cold_cache(monkeypatch, tmp_path, SOURCE=wrong_src)
    assert ucb.compiled() is None
    assert files_under(tmp_path / "cache") == []


def test_a_sharded_run_with_a_cold_cache_compiles_once(monkeypatch, tmp_path):
    cc = shutil.which(ucb.CC[0])
    if cc is None:
        pytest.skip("no C compiler")
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc"
    wrapper.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec "{cc}" "$@"\n')
    wrapper.chmod(0o755)
    cold_cache(monkeypatch, tmp_path, CC=(str(wrapper),) + ucb.CC[1:])
    calls = force_shards(monkeypatch, 3)
    runs = regret.LOOP_RUNS["compiled"]
    assert pinned_digest_holds()
    assert_shards_ran(calls, (6, 7, 7))
    assert regret.LOOP_RUNS["compiled"] == runs + 1
    assert log.read_text() == "run\n"
    assert len(files_under(tmp_path / "cache")) == 1
    monkeypatch.setattr(ucb, "compiled", cache(ucb.build))  # a new process
    assert ucb.compiled() is not None
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


def test_a_block_too_large_to_allocate_is_a_value_error():
    """A shard's ``ct`` table holds ``min(block, horizon)`` doubles (here
    256 TiB); it is allocated with the run's other arrays, before any shard
    starts, so the error names ``block`` and the size."""
    with pytest.raises(ValueError, match=r"block 35184372088832: .*TiB"):
        run_bandit_experiment(small_spec(), ALGO_ALPHA, 2**45, 1, grid=[1],
                              block=2**45)


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
    sr = slope_ratio_ci(num, den)
    assert sr.ratio == pytest.approx(3.0, rel=0.05)
    assert sr.ci_lo <= sr.ratio <= sr.ci_hi
    assert sr.n_seeds == 5


def test_efficiency_ratio_rho_one_is_exactly_one():
    spec = small_spec(means=(0.55, 0.45), sigma_x2=0.2)
    points = efficiency_ratio_experiment(spec, [0.25, 1.0], 2000, 12)
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
    efficiency_ratio_experiment(spec, [0.1, 1.0], 50, 2)
    assert calls == [1.0, 0.1]
