"""Command-line front end.

Four subcommands: ``search`` (one tree search on a fixture), ``bandit``
(regret curves or the rho efficiency sweep), ``ablate`` (the 2x2 backup x
judging grid, optionally with a parallel-speedup probe), and ``verify`` (the
acceptance suite).  A fifth, ``rerun``, replays any previous run from its
``manifest.json`` and reproduces the artifacts byte-for-byte (serial mode;
timing files are the documented exception).

Config precedence for ``search``: flags > ``--config`` JSON file > defaults.
The config file keys are exactly the search configuration fields.  Exit
codes: 0 success, 1 criterion/outcome failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .ablation import (ABLATION_CONFIG, measure_parallel_speedup, pooled,
                       run_ablation, two_proportion_test)
from .backup import MAX, MEAN, MODES
from .envs import BanditSpec, GuiGraphEnv, load_fixture
from .judging import (COMPARATIVE, INDEPENDENT, JUDGE_MODES, NOISE_KINDS,
                      TWO_POINT, SimJudge, SimJudgeSpec)
from .manifest import RunManifest, atomic_write_text, load_manifest, write_csv, \
    write_json, write_manifest
from .proposer import proposer_from_fixture
from .regret import (ALGOS, ALGO_ALPHA, bound_for_spec,
                     efficiency_ratio_experiment, fit_log_regret,
                     run_bandit_experiment)
from .search import (STATE_STRATEGIES, SearchConfig, SimReflector,
                     run_search)
from .selection import KINDS
from .verify import CRITERION_NAMES, FAULT_KINDS, run_criteria

OUT_ENV_VAR = "ALPHAUCT_OUT"

_SEARCH_CONFIG_KEYS = tuple(f.name for f in fields(SearchConfig))
# every key a search config resolves, with its default; ``env`` has none
_SEARCH_DEFAULTS = {**{f.name: f.default for f in fields(SearchConfig)},
                    "env": None, "judge_noise": 0.0, "judge_offset": 0.0,
                    "judge_latency": 0.0}

# the type of every config key each command resolves (``rho_grid``, a list
# of floats or null, is checked apart)
_CONFIG_TYPES = {
    "search": {k: str if v is None else type(v)
               for k, v in _SEARCH_DEFAULTS.items()},
    "bandit": {"arms": int, "gap": float, "sigma2": float, "rho": float,
               "noise": str, "horizon": int, "seeds": int, "algo": str},
    "ablate": {"fixture": str, "seeds": int, "iters": int,
               "parallel_actions": int, "judge_latency": float},
}


def _default_out(command: str) -> Path:
    base = os.environ.get(OUT_ENV_VAR, "alphauct-runs")
    return Path(base) / command


def _resolve_out(args, command: str) -> Path:
    out = Path(args.out) if args.out else _default_out(command)
    out.mkdir(parents=True, exist_ok=True)
    return out


class UsageError(ValueError):
    pass


class _ManifestConfig(dict):
    """A rerun's config: a key the manifest lacks is a usage error."""

    def __missing__(self, key):
        raise UsageError(f"manifest config lacks {key!r}")


# -- search --------------------------------------------------------------------


def _search_config(resolved: dict) -> SearchConfig:
    cfg = SearchConfig(**{k: v for k, v in resolved.items()
                          if k in _SEARCH_CONFIG_KEYS})
    cfg.validate()
    return cfg


def run_search_command(resolved: dict, outdir: Path) -> int:
    """Core of ``search``: everything after config resolution, so manifest
    reruns share the exact code path."""
    cfg = _search_config(resolved)
    spec = load_fixture(resolved["env"])
    judge = SimJudge(SimJudgeSpec(noise_std=resolved["judge_noise"],
                                  shared_offset_std=resolved["judge_offset"],
                                  latency_s=resolved["judge_latency"],
                                  seed=cfg.seed),
                     spec.values)
    t0 = time.perf_counter()
    res = run_search(GuiGraphEnv(spec), proposer_from_fixture(spec, seed=cfg.seed),
                     judge, SimReflector(), cfg)
    duration = time.perf_counter() - t0
    result = {
        "outcome": res.outcome,
        "iterations": res.iterations,
        "n_nodes": len(res.tree),
        "success_node": res.success_node,
        "best_path": [";".join(ch.atoms) for ch in res.best_path],
        "best_path_normalized": [ch.norm_key for ch in res.best_path],
    }
    atomic_write_text(outdir / "tree.txt", res.tree.dump())
    atomic_write_text(outdir / "trace.txt", "\n".join(res.trace) + "\n")
    write_json(outdir / "result.json", result)
    manifest = RunManifest(
        command="search", config=resolved,
        artifacts={"tree": "tree.txt", "trace": "trace.txt",
                   "result": "result.json"},
        duration_s=duration)
    write_manifest(outdir, manifest)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _check_config_type(key: str, value, want: type) -> None:
    """A config value must have its field's type (a float field also takes
    an int)."""
    allowed = (int, float) if want is float else want
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise UsageError(f"config key {key!r} must be a {want.__name__}, "
                         f"got {value!r}")


def cmd_search(args) -> int:
    resolved = dict(_SEARCH_DEFAULTS)
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)} "
                             f"(valid: {sorted(resolved)})")
        for key, value in file_cfg.items():
            _check_config_type(key, value, _CONFIG_TYPES["search"][key])
        resolved.update(file_cfg)
    flag_map = {
        "env": args.env, "max_iterations": args.iters,
        "expansion_factor": args.expansion, "chunk_size": args.chunk,
        "backup": args.backup, "judge_mode": args.judge, "seed": args.seed,
        "c": args.c, "selection": args.selection,
        "state_strategy": args.state, "max_depth": args.max_depth,
        "parallel_actions": args.parallel_actions,
        "parallel_envs": args.parallel_envs,
        "judge_noise": args.judge_noise, "judge_offset": args.judge_offset,
        "judge_latency": args.judge_latency,
    }
    resolved.update({k: v for k, v in flag_map.items() if v is not None})
    if not resolved["env"]:
        raise UsageError("search needs --env (or an 'env' config key)")
    return run_search_command(resolved, _resolve_out(args, "search"))


# -- bandit --------------------------------------------------------------------


def _parse_rho_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad --rho-grid {text!r}")
    if not grid:
        raise UsageError("--rho-grid is empty")
    return grid


def run_bandit_command(resolved: dict, outdir: Path) -> int:
    try:
        spec = BanditSpec(
            means=(0.5 + resolved["gap"] / 2.0,)
                  + (0.5 - resolved["gap"] / 2.0,) * (resolved["arms"] - 1),
            sigma_x2=resolved["sigma2"], rho=resolved["rho"],
            noise=resolved["noise"])
    except ValueError as exc:
        raise UsageError(str(exc))
    t0 = time.perf_counter()
    artifacts = {}
    summary: dict = {"config": resolved}
    if resolved["rho_grid"]:
        points = efficiency_ratio_experiment(
            spec, resolved["rho_grid"], resolved["horizon"], resolved["seeds"])
        write_csv(outdir / "ratios.csv",
                  ["rho", "ratio", "ci_lo", "ci_hi", "mean_regret",
                   "base_mean_regret", "n_seeds"],
                  [(p.rho, p.ratio, p.ci_lo, p.ci_hi, p.mean_regret,
                    p.base_mean_regret, p.n_seeds) for p in points])
        artifacts["ratios"] = "ratios.csv"
        summary["ratios"] = [{"rho": p.rho, "ratio": p.ratio,
                              "ci": [p.ci_lo, p.ci_hi]} for p in points]
    else:
        curve = run_bandit_experiment(spec, resolved["algo"],
                                      resolved["horizon"], resolved["seeds"])
        mean, std = curve.mean, curve.std
        rows = [(t, mean[i], std[i], bound_for_spec(spec, t).total)
                for i, t in enumerate(curve.t_grid)]
        write_csv(outdir / "curve.csv",
                  ["t", "mean_regret", "std_regret", "bound"], rows)
        artifacts["curve"] = "curve.csv"
        fit = fit_log_regret(curve)
        summary["final_mean_regret"] = float(mean[-1])
        summary["bound_total"] = bound_for_spec(spec, resolved["horizon"]).total
        summary["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                          "r_squared": fit.r_squared,
                          "linear_r_squared": fit.linear_r_squared,
                          "log_model_preferred": fit.log_model_preferred}
    write_json(outdir / "summary.json", summary)
    artifacts["summary"] = "summary.json"
    write_manifest(outdir, RunManifest(
        command="bandit", config=resolved, artifacts=artifacts,
        duration_s=time.perf_counter() - t0))
    print(json.dumps({k: v for k, v in summary.items() if k != "config"},
                     indent=2, sort_keys=True))
    return 0


def cmd_bandit(args) -> int:
    if args.arms < 2:
        raise UsageError("--arms must be >= 2")
    if not 0.0 < args.gap:
        raise UsageError("--gap must be > 0")
    if not 0.0 <= args.rho <= 1.0:
        raise UsageError("--rho must be in [0, 1]")
    if args.horizon < args.arms:
        raise UsageError("--horizon must be >= --arms")
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    resolved = {
        "arms": args.arms, "gap": args.gap, "sigma2": args.sigma2,
        "rho": args.rho, "noise": args.noise, "horizon": args.horizon,
        "seeds": args.seeds, "algo": args.algo,
        "rho_grid": _parse_rho_grid(args.rho_grid) if args.rho_grid else None,
    }
    return run_bandit_command(resolved, _resolve_out(args, "bandit"))


# -- ablate --------------------------------------------------------------------


def run_ablate_command(resolved: dict, outdir: Path) -> int:
    t0 = time.perf_counter()
    cfg = replace(ABLATION_CONFIG, max_iterations=resolved["iters"])
    cells = run_ablation(resolved["fixture"], resolved["seeds"], config=cfg)
    write_csv(outdir / "ablation.csv",
              ["judge_mode", "backup", "successes", "runs", "rate"],
              [(c.judge_mode, c.backup, c.successes, c.runs, c.rate)
               for c in cells])
    z1, p1 = two_proportion_test(*pooled(cells, backup=MAX),
                                 *pooled(cells, backup=MEAN))
    z2, p2 = two_proportion_test(*pooled(cells, judge_mode=COMPARATIVE),
                                 *pooled(cells, judge_mode=INDEPENDENT))
    summary = {
        "config": resolved,
        "cells": [{"judge_mode": c.judge_mode, "backup": c.backup,
                   "successes": c.successes, "runs": c.runs, "rate": c.rate}
                  for c in cells],
        "tests": {
            "max_vs_mean": {"z": z1, "p": p1},
            "comparative_vs_independent": {"z": z2, "p": p2},
        },
    }
    artifacts = {"ablation": "ablation.csv", "summary": "summary.json"}
    if resolved["parallel_actions"] > 0:
        rep = measure_parallel_speedup(
            resolved["fixture"] if resolved["fixture"] != "trap3" else "wide16",
            k=8, latency_s=resolved["judge_latency"],
            workers=resolved["parallel_actions"])
        speedup = {"serial_s": rep.serial_s, "parallel_s": rep.parallel_s,
                   "speedup": rep.speedup, "workers": rep.workers,
                   "trees_equal": rep.trees_equal,
                   "outcomes_equal": rep.outcomes_equal}
        write_json(outdir / "speedup.json", speedup)
        artifacts["speedup"] = "speedup.json"  # timing file: not byte-stable
        summary["speedup"] = speedup
    write_json(outdir / "summary.json", summary)
    write_manifest(outdir, RunManifest(
        command="ablate", config=resolved, artifacts=artifacts,
        duration_s=time.perf_counter() - t0))
    print(json.dumps({k: v for k, v in summary.items() if k != "config"},
                     indent=2, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    if args.parallel_actions < 0:
        raise UsageError("--parallel-actions must be >= 0")
    if args.judge_latency < 0:
        raise UsageError("--judge-latency must be >= 0")
    resolved = {"fixture": args.fixture, "seeds": args.seeds,
                "iters": args.iters,
                "parallel_actions": args.parallel_actions,
                "judge_latency": args.judge_latency}
    return run_ablate_command(resolved, _resolve_out(args, "ablate"))


# -- verify / rerun --------------------------------------------------------------


def cmd_verify(args) -> int:
    names = args.filter if args.filter else None
    try:
        results = run_criteria(names, inject_fault=args.inject_fault,
                               out=sys.stdout)
    except ValueError as exc:
        raise UsageError(str(exc))
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    if args.out:
        outdir = _resolve_out(args, "verify")
        write_json(outdir / "verify.json",
                   [{"name": r.name, "passed": r.passed, "detail": r.detail,
                     "elapsed_s": r.elapsed_s} for r in results])
    return 0 if n_pass == len(results) else 1


_RERUNNERS = {
    "search": run_search_command,
    "bandit": run_bandit_command,
    "ablate": run_ablate_command,
}


def cmd_rerun(args) -> int:
    data = load_manifest(args.manifest)
    runner = _RERUNNERS.get(data["command"])
    if runner is None:
        raise UsageError(f"manifest command {data['command']!r} is not rerunnable")
    if not isinstance(data["config"], dict):
        raise UsageError("manifest config must be a JSON object")
    config = _ManifestConfig(data["config"])
    for key, want in _CONFIG_TYPES[data["command"]].items():
        if key in config:
            _check_config_type(key, config[key], want)
    if data["command"] == "bandit" and config.get("rho_grid"):
        grid = config["rho_grid"]
        if not isinstance(grid, list):
            raise UsageError(f"config key 'rho_grid' must be a list, got {grid!r}")
        for rho in grid:
            _check_config_type("rho_grid", rho, float)
        config["rho_grid"] = tuple(grid)  # JSON gives a list
    return runner(config, _resolve_out(args, data["command"]))


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="alphauct",
        description="Tree search on synthetic GUI graphs, bandit regret "
                    "experiments, ablations, and the acceptance suite.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help=f"output directory (default: "
                                      f"${OUT_ENV_VAR}/<command>)")

    sp = sub.add_parser("search", help="run one tree search on a fixture")
    sp.add_argument("--env", help="fixture name or path")
    sp.add_argument("--config", help="JSON config file (keys = search "
                                     "configuration fields)")
    sp.add_argument("--iters", type=int)
    sp.add_argument("--expansion", type=int)
    sp.add_argument("--chunk", type=int)
    sp.add_argument("--backup", choices=MODES)
    sp.add_argument("--judge", choices=JUDGE_MODES)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--c", type=float)
    sp.add_argument("--selection", choices=KINDS)
    sp.add_argument("--state", choices=STATE_STRATEGIES)
    sp.add_argument("--max-depth", type=int)
    sp.add_argument("--parallel-actions", type=int)
    sp.add_argument("--parallel-envs", type=int)
    sp.add_argument("--judge-noise", type=float)
    sp.add_argument("--judge-offset", type=float)
    sp.add_argument("--judge-latency", type=float)
    add_out(sp)
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("bandit", help="regret curves / efficiency sweep")
    sp.add_argument("--arms", type=int, default=10)
    sp.add_argument("--gap", type=float, default=0.1)
    sp.add_argument("--sigma2", type=float, default=0.05)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--noise", choices=NOISE_KINDS, default=TWO_POINT)
    sp.add_argument("--horizon", type=int, default=100_000)
    sp.add_argument("--seeds", type=int, default=100)
    sp.add_argument("--algo", choices=ALGOS, default=ALGO_ALPHA)
    sp.add_argument("--rho-grid", help="comma-separated rho values; emits the "
                                       "ratio sweep instead of one curve")
    add_out(sp)
    sp.set_defaults(fn=cmd_bandit)

    sp = sub.add_parser("ablate", help="backup x judging grid on a fixture")
    sp.add_argument("--fixture", default="trap3")
    sp.add_argument("--seeds", type=int, default=100)
    sp.add_argument("--iters", type=int, default=ABLATION_CONFIG.max_iterations)
    sp.add_argument("--parallel-actions", type=int, default=0,
                    help="also run the speedup probe with this many workers")
    sp.add_argument("--judge-latency", type=float, default=0.05,
                    help="simulated per-sibling judge latency for the probe")
    add_out(sp)
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--filter", action="append",
                    help=f"criterion name substring; repeatable "
                         f"(known: {', '.join(CRITERION_NAMES)})")
    sp.add_argument("--inject-fault", choices=FAULT_KINDS,
                    help="deliberately break one mechanism to prove the "
                         "detector fires (pair with --filter)")
    add_out(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("rerun", help="replay a run from its manifest")
    sp.add_argument("manifest", help="path to manifest.json or its directory")
    add_out(sp)
    sp.set_defaults(fn=cmd_rerun)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # UsageError, FixtureError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
