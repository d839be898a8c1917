#!/usr/bin/env python3
"""Measure the regret lab end to end and print the numbers the acceptance
bands are frozen from.

Three blocks:
  1. bound grid  -- K x gap x sigma2_res configs, mean final regret vs the
     closed-form bound, plus the ln-t tail fit for each config;
  2. slope ratios -- K=10 vs K=5 fitted-slope ratio per (gap, sigma2) cell,
     with a percentile bootstrap CI over seeds;
  3. efficiency sweep -- final-regret ratio vs the blind baseline across rho.

The experiment design (grid axes, horizon, seed counts, the sweep's bandit)
is read from ``alphauct.verify``, so the script measures exactly what the
acceptance gate checks.  Writes grid.csv / ratios.csv (LF line ends, like
every package artifact) next to nothing else; stdout is the record.  Run it
with the package importable, e.g. ``PYTHONPATH=src``.
"""
from __future__ import annotations

import argparse
import time
from pathlib import Path

from alphauct.manifest import write_csv
from alphauct.regret import (
    ALGO_ALPHA,
    bound_for_spec,
    efficiency_ratio_experiment,
    fit_log_regret,
    run_bandit_experiment,
    slope_ratio_ci,
)
from alphauct.verify import (
    GRID_GAPS,
    GRID_HORIZON,
    GRID_KS,
    GRID_SEEDS,
    GRID_SIGMA2S,
    RATIO_SWEEP_RHOS,
    RATIO_SWEEP_SEEDS,
    SLOPE_RATIO_SEEDS,
    grid_spec,
    ratio_sweep_spec,
)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--horizon", type=int, default=GRID_HORIZON)
    p.add_argument("--seeds", type=int, default=GRID_SEEDS)
    p.add_argument("--slope-seeds", type=int, default=SLOPE_RATIO_SEEDS,
                   help="seeds for the K-doubling slope-ratio CIs (the "
                        "finite-horizon ratio sits near 2.3, so the CI "
                        "needs to be tight to stay inside [1.5, 2.5])")
    p.add_argument("--ratio-seeds", type=int, default=RATIO_SWEEP_SEEDS)
    p.add_argument("--boot", type=int, default=2000)
    p.add_argument("--out-dir", type=Path, default=Path("."))
    p.add_argument("--skip-ratio", action="store_true")
    args = p.parse_args()

    t0 = time.perf_counter()
    rows = []
    print(f"{'K':>3} {'gap':>5} {'s2':>5} {'mean_RT':>10} {'bound':>10} "
          f"{'margin':>7} {'slope':>8} {'r2':>8} {'lin_r2':>8}")
    violations = 0
    for k in GRID_KS:
        for gap in GRID_GAPS:
            for s2 in GRID_SIGMA2S:
                spec = grid_spec(k, gap, s2)
                curve = run_bandit_experiment(spec, ALGO_ALPHA, args.horizon,
                                              args.seeds)
                mean_rt = float(curve.final.mean())
                bound = bound_for_spec(spec, args.horizon).total
                fit = fit_log_regret(curve)
                ok = mean_rt <= bound
                violations += 0 if ok else 1
                print(f"{k:>3} {gap:>5.2f} {s2:>5.2f} {mean_rt:>10.3f} "
                      f"{bound:>10.2f} {mean_rt / bound:>7.3f} "
                      f"{fit.slope:>8.3f} {fit.r_squared:>8.5f} "
                      f"{fit.linear_r_squared:>8.5f}"
                      + ("" if ok else "  ** VIOLATION **"))
                rows.append(dict(k=k, gap=gap, sigma2=s2, mean_regret=mean_rt,
                                 bound=bound, slope=fit.slope,
                                 r_squared=fit.r_squared,
                                 linear_r_squared=fit.linear_r_squared))
    print(f"bound violations: {violations}   "
          f"min r2: {min(r['r_squared'] for r in rows):.5f}   "
          f"[{time.perf_counter() - t0:.1f}s]")

    print(f"\nK-doubling slope ratios (10 vs 5, {args.slope_seeds} seeds):")
    for gap in GRID_GAPS:
        for s2 in GRID_SIGMA2S:
            num = run_bandit_experiment(grid_spec(10, gap, s2), ALGO_ALPHA,
                                        args.horizon, args.slope_seeds)
            den = run_bandit_experiment(grid_spec(5, gap, s2), ALGO_ALPHA,
                                        args.horizon, args.slope_seeds)
            sr = slope_ratio_ci(num, den, n_boot=args.boot)
            print(f"  gap={gap:.2f} s2={s2:.2f}: ratio={sr.ratio:.4f} "
                  f"95% CI [{sr.ci_lo:.4f}, {sr.ci_hi:.4f}]")

    write_csv(args.out_dir / "grid.csv", list(rows[0]),
              [list(r.values()) for r in rows])

    if not args.skip_ratio:
        print("\nefficiency sweep (K=10, gap=0.1, sigma_x2=0.2):")
        points = efficiency_ratio_experiment(ratio_sweep_spec(),
                                             RATIO_SWEEP_RHOS, args.horizon,
                                             args.ratio_seeds, n_boot=args.boot)
        write_csv(args.out_dir / "ratios.csv",
                  ["rho", "ratio", "ci_lo", "ci_hi", "mean_regret",
                   "base_mean_regret", "n_seeds"],
                  [(pt.rho, pt.ratio, pt.ci_lo, pt.ci_hi, pt.mean_regret,
                    pt.base_mean_regret, pt.n_seeds) for pt in points])
        for pt in points:
            print(f"  rho={pt.rho:.2f}: ratio={pt.ratio:.4f} "
                  f"CI [{pt.ci_lo:.4f}, {pt.ci_hi:.4f}] "
                  f"(RT {pt.mean_regret:.2f} / base {pt.base_mean_regret:.2f})")

    print(f"\ntotal {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
