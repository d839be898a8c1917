"""Regret-lab numerics: closed-form bound values, confidence radii, the
martingale tail bound, simulation determinism, the scalar/vectorized twin
property, pinned curve digests, and slope fitting on synthetic curves."""
import hashlib
import math

import numpy as np
import pytest

from alphauct import regret
from alphauct.envs import NOISE_KINDS, BanditSpec
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
    cell = freedman_empirical_check(mds, n=400, epsilon=3.0,
                                    v_cap=25.0 + 1e-9, trials=4000)
    # V_n = 400 * 0.0625 = 25 always, so the cap never binds
    assert cell.rate <= cell.bound + 3 * cell.binom_std
    assert cell.rate == 0.282  # recorded when this walk had its own kind
    again = freedman_empirical_check(mds, n=400, epsilon=3.0,
                                     v_cap=25.0 + 1e-9, trials=4000)
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


def test_default_grid_shape():
    grid = default_grid(100_000, points=512)
    assert grid[0] == 1 and grid[-1] == 100_000
    assert list(grid) == sorted(set(grid))
    small = default_grid(100, points=512)
    assert small == tuple(range(1, 101))


def test_experiment_reproducible_and_blockwise_invariant():
    spec = small_spec()
    a = run_bandit_experiment(spec, ALGO_ALPHA, 2000, 8)
    b = run_bandit_experiment(spec, ALGO_ALPHA, 2000, 8)
    c = run_bandit_experiment(spec, ALGO_ALPHA, 2000, 8, block=97)
    assert np.array_equal(a.per_seed, b.per_seed)
    assert np.array_equal(a.per_seed, c.per_seed)  # block size is physical only


def test_scalar_twin_matches_vectorized_exactly():
    spec = small_spec(means=(0.55, 0.45, 0.35), sigma_x2=0.05, rho=0.5)
    horizon = 1500
    curve = run_bandit_experiment(spec, ALGO_ALPHA, horizon, 4,
                                  grid=range(1, horizon + 1))
    for si in range(4):
        ref = simulate_policy_scalar(spec, ALGO_ALPHA, horizon, si)
        assert np.array_equal(curve.per_seed[:, si], ref), si


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
@pytest.mark.parametrize("noise", NOISE_KINDS)
@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_scalar_twin_across_noise_kinds_and_rho(algo, noise, rho):
    spec = small_spec(means=(0.6, 0.5, 0.5, 0.4), sigma_x2=0.05, rho=rho,
                      noise=noise)
    horizon = 600
    curve = run_bandit_experiment(spec, algo, horizon, 3,
                                  grid=range(1, horizon + 1))
    for si in range(3):
        ref = simulate_policy_scalar(spec, algo, horizon, si)
        assert np.array_equal(curve.per_seed[:, si], ref), si


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
def test_single_arm_bandit_matches_scalar_twin(algo):
    spec = BanditSpec(means=(0.5,), sigma_x2=0.05)
    curve = run_bandit_experiment(spec, algo, 50, 2, grid=range(1, 51))
    for si in range(2):
        ref = simulate_policy_scalar(spec, algo, 50, si)
        assert np.array_equal(curve.per_seed[:, si], ref)
    assert not curve.per_seed.any()


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
def test_horizon_inside_forced_exploration(algo):
    spec = small_spec(means=(0.4, 0.6, 0.5, 0.3, 0.45), sigma_x2=0.04)
    horizon = 3  # stops before every arm was tried once
    curve = run_bandit_experiment(spec, algo, horizon, 4, grid=[1, 2, 3])
    for si in range(4):
        ref = simulate_policy_scalar(spec, algo, horizon, si)
        assert np.array_equal(curve.per_seed[:, si], ref)


@pytest.mark.parametrize("algo", [ALGO_ALPHA])
@pytest.mark.parametrize("block", [1, 97, 5000])
def test_block_size_is_physical_only(algo, block):
    spec = small_spec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, noise="uniform")
    ref = run_bandit_experiment(spec, algo, 3000, 5)
    got = run_bandit_experiment(spec, algo, 3000, 5, block=block)
    assert np.array_equal(got.per_seed, ref.per_seed)


# SHA-256 of per_seed.tobytes(); the regret criteria print figures drawn
# from these curves.  The grid row was recorded before the step loop went
# incremental, the two-point-noise ratio-sweep row before the UCB1 baseline
# was deleted.
@pytest.mark.parametrize("spec, algo, horizon, digest", [
    (grid_spec(10, 0.1, 0.05), ALGO_ALPHA, 20_000,
     "4c50cf34d6f25317c66e3fea92dabd625b9c2ae4f8dca9cefc4b5ade51f742d8"),
    (ratio_sweep_spec(), ALGO_ALPHA, 5_000,
     "72aaaa22a22d79e2ad35aba4c848f3def509b2d5d0c6d151f1483a37616ac826"),
])
def test_curve_digest_is_pinned(spec, algo, horizon, digest):
    curve = run_bandit_experiment(spec, algo, horizon, 20)
    assert hashlib.sha256(curve.per_seed.tobytes()).hexdigest() == digest


def test_seed_trajectories_independent_of_batch():
    spec = small_spec()
    solo = run_bandit_experiment(spec, ALGO_ALPHA, 1000, 1, seed0=3)
    batch = run_bandit_experiment(spec, ALGO_ALPHA, 1000, 8, seed0=0)
    assert np.array_equal(solo.per_seed[:, 0], batch.per_seed[:, 3])


def test_regret_curves_start_with_forced_exploration():
    """The policy tries every arm once before exploiting, so regret at
    t = K equals the sum of all gaps."""
    spec = small_spec(means=(0.6, 0.5, 0.45, 0.4), sigma_x2=0.0)
    curve = run_bandit_experiment(spec, ALGO_ALPHA, 50, 3, grid=[spec.k, 50])
    assert np.allclose(curve.per_seed[0], sum(spec.gaps))


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
