"""Command-line front end.

Four subcommands: ``search`` (one alpha-UCT tree search on a fixture),
``bandit`` (regret curves of the residual-variance policy, or its rho
efficiency sweep), ``ablate`` (the 2x2 backup x judging grid), and
``verify`` (the acceptance suite).  A fifth, ``rerun``, replays any previous
run from its ``manifest.json`` and reproduces the artifacts byte-for-byte.

``search``, ``bandit`` and ``ablate`` each resolve their config from one
table of keys and defaults: defaults < ``--config`` JSON file (search only) <
flags.  A config file may hold only the table's keys, a rerun manifest must
hold exactly them, and both are type-checked like the flags; each command
checks value ranges before it writes anything (the output directory appears
with the first artifact).  Exit codes: 0 success, 1 criterion/outcome
failure, 2 usage or config error, reported as one ``error:`` line.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .ablation import ABLATION_CONFIG, direction_tests, run_ablation
from .backup import MODES
from .envs import NOISE_KINDS, TWO_POINT, BanditSpec, load_fixture
from .judging import JUDGE_MODES, SimJudgeSpec
from .lab import efficiency_ratio_experiment, ratio_table
from .manifest import PACKAGE_VERSION, RunManifest, atomic_write_text, \
    load_manifest, read_json, write_csv, write_json, write_manifest
from .regret import (ALGO_ALPHA, LOOP_RUNS, bound_for_spec, fit_log_regret,
                     run_bandit_experiment)
from .search import STATE_STRATEGIES, SearchConfig, search_fixture
from .verify import CRITERION_NAMES, FAULTS, one_best_arm, run_criteria

OUT_ENV_VAR = "ALPHAUCT_OUT"

# every config key each command resolves, with its default; a value must have
# its default's type (a float key also takes an int, and only a finite
# number), except the keys in _TYPES, whose default is None
_DEFAULTS = {
    "search": {**{f.name: f.default for f in fields(SearchConfig)},
               "env": None, "judge_noise": 0.0, "judge_offset": 0.0,
               "judge_latency": 0.0},
    "bandit": {"arms": 10, "gap": 0.1, "sigma2": 0.05, "rho": 1.0,
               "noise": TWO_POINT, "horizon": 100_000, "seeds": 100,
               "rho_grid": None},
    "ablate": {"fixture": "trap3", "seeds": 100,
               "iters": ABLATION_CONFIG.max_iterations},
}
_TYPES = {"env": str, "rho_grid": list}  # rho_grid: a list of numbers


def _resolve_out(args, command: str) -> Path:
    """The output directory; the first artifact written creates it."""
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV_VAR, "alphauct-runs")) / command


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` instead of printing usage, so ``main`` reports a
    bad flag in one line like any other config error.  Subparsers inherit
    this class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _is_a(value, want: type) -> bool:
    if isinstance(value, bool):
        return False
    if want is not float:
        return isinstance(value, want)
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _resolve(command: str, layer, base: dict) -> dict:
    """``base`` overridden by ``layer``, which must be a JSON object holding
    only ``command``'s config keys, each with its key's type."""
    if not isinstance(layer, dict):
        raise UsageError(f"{command} config must be a JSON object")
    defaults = _DEFAULTS[command]
    unknown = set(layer) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys {sorted(unknown)} "
                         f"(valid: {sorted(defaults)})")
    for key, value in layer.items():
        want = _TYPES.get(key) or type(defaults[key])
        if value is None and defaults[key] is None:
            continue
        if want is list:
            ok = isinstance(value, list) and all(_is_a(v, float) for v in value)
        else:
            ok = _is_a(value, want)
        if not ok:
            name = {list: "list of finite numbers",
                    float: "finite number"}.get(want, want.__name__)
            raise UsageError(f"config key {key!r} must be a {name}, "
                             f"got {value!r}")
    return {**base, **layer}


def _require(resolved: dict, key: str, ok: bool, rule: str) -> None:
    if not ok:
        raise UsageError(f"config key {key!r} must be {rule}, "
                         f"got {resolved[key]!r}")


# -- search --------------------------------------------------------------------


def run_search_command(resolved: dict, outdir: Path) -> int:
    """Core of ``search``: everything after config resolution, so manifest
    reruns share the exact code path."""
    if not resolved["env"]:
        raise UsageError("search needs --env (or an 'env' config key)")
    cfg = SearchConfig(**{f.name: resolved[f.name]
                          for f in fields(SearchConfig)})
    spec = load_fixture(resolved["env"])
    judge = SimJudgeSpec(noise_std=resolved["judge_noise"],
                         shared_offset_std=resolved["judge_offset"],
                         latency_s=resolved["judge_latency"])
    t0 = time.perf_counter()
    res = search_fixture(spec, cfg, judge)
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


# -- bandit --------------------------------------------------------------------


def float_list(text: str) -> list[float]:
    """``--rho-grid`` value: comma-separated numbers; an empty element (as
    in ``0.5,,1`` or ``0.5,``) is an error, not skipped."""
    return [float(tok) for tok in text.split(",")]


def run_bandit_command(resolved: dict, outdir: Path) -> int:
    arms, grid = resolved["arms"], resolved["rho_grid"]
    _require(resolved, "arms", arms >= 2, ">= 2")
    _require(resolved, "gap", resolved["gap"] > 0.0, "> 0")
    _require(resolved, "rho", 0.0 <= resolved["rho"] <= 1.0, "in [0, 1]")
    _require(resolved, "horizon", resolved["horizon"] >= arms, ">= arms")
    _require(resolved, "seeds", resolved["seeds"] >= 1, ">= 1")
    _require(resolved, "rho_grid", grid is None or len(grid) > 0, "non-empty")
    try:
        spec = BanditSpec(means=one_best_arm(arms, resolved["gap"]),
                          sigma_x2=resolved["sigma2"], rho=resolved["rho"],
                          noise=resolved["noise"])
    except ValueError as exc:
        raise UsageError(str(exc))
    t0 = time.perf_counter()
    artifacts = {}
    summary: dict = {"config": resolved}
    if grid:
        points = efficiency_ratio_experiment(
            spec, grid, resolved["horizon"], resolved["seeds"])
        write_csv(outdir / "ratios.csv", *ratio_table(points))
        artifacts["ratios"] = "ratios.csv"
        summary["ratios"] = [{"rho": p.rho, "ratio": p.ratio,
                              "ci": [p.ci_lo, p.ci_hi]} for p in points]
    else:
        curve = run_bandit_experiment(spec, ALGO_ALPHA, resolved["horizon"],
                                      resolved["seeds"])
        fit = fit_log_regret(curve)  # may fail: before any artifact is written
        mean, std = curve.mean, curve.std
        rows = [(t, mean[i], std[i], bound_for_spec(spec, t).total)
                for i, t in enumerate(curve.t_grid)]
        write_csv(outdir / "curve.csv",
                  ["t", "mean_regret", "std_regret", "bound"], rows)
        artifacts["curve"] = "curve.csv"
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


# -- ablate --------------------------------------------------------------------


def run_ablate_command(resolved: dict, outdir: Path) -> int:
    _require(resolved, "seeds", resolved["seeds"] >= 1, ">= 1")
    _require(resolved, "iters", resolved["iters"] >= 1, ">= 1")
    t0 = time.perf_counter()
    cfg = replace(ABLATION_CONFIG, max_iterations=resolved["iters"])
    cells = run_ablation(resolved["fixture"], resolved["seeds"], config=cfg)
    write_csv(outdir / "ablation.csv",
              ["judge_mode", "backup", "successes", "runs", "rate"],
              [(c.judge_mode, c.backup, c.successes, c.runs, c.rate)
               for c in cells])
    tests = direction_tests(cells)
    (z1, p1), (z2, p2) = tests["max>mean"], tests["comp>indep"]
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
    write_json(outdir / "summary.json", summary)
    write_manifest(outdir, RunManifest(
        command="ablate", config=resolved,
        artifacts={"ablation": "ablation.csv", "summary": "summary.json"},
        duration_s=time.perf_counter() - t0))
    print(json.dumps({k: v for k, v in summary.items() if k != "config"},
                     indent=2, sort_keys=True))
    return 0


# -- verify / rerun --------------------------------------------------------------


def cmd_verify(args) -> int:
    """With ``--out``: ``verify.json``, plus the tables of the regret
    criteria that ran (grid.csv, slopes.csv, ratios.csv).  After the summary
    line, when a criterion ran bandit experiments, one line names the step
    loop they ran on (``compiled`` or ``numpy``); it goes to no file."""
    names = args.filter if args.filter else None
    outdir = Path(args.out) if args.out else None
    loops_before = LOOP_RUNS.copy()
    try:
        results = run_criteria(names, inject_fault=args.inject_fault,
                               out=sys.stdout, outdir=outdir)
    except ValueError as exc:
        raise UsageError(str(exc))
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    loops = LOOP_RUNS - loops_before
    if loops:
        print(f"bandit loop: {', '.join(sorted(loops))}")
    if outdir is not None:
        write_json(outdir / "verify.json",
                   [{"name": r.name, "passed": r.passed, "detail": r.detail,
                     "elapsed_s": r.elapsed_s} for r in results])
    return 0 if n_pass == len(results) else 1


_RUNNERS = {
    "search": run_search_command,
    "bandit": run_bandit_command,
    "ablate": run_ablate_command,
}


def cmd_run(args) -> int:
    """``search``, ``bandit`` and ``ablate``: the defaults, then (search only)
    the ``--config`` file, then the flags given."""
    resolved = dict(_DEFAULTS[args.command])
    if getattr(args, "config", None):
        resolved = _resolve(args.command, read_json(args.config, "config"),
                            resolved)
    flags = {k: v for k, v in vars(args).items()
             if k in resolved and v is not None}
    resolved = _resolve(args.command, flags, resolved)
    return _RUNNERS[args.command](resolved, _resolve_out(args, args.command))


def cmd_rerun(args) -> int:
    data = load_manifest(args.manifest)
    command = data["command"]
    if not isinstance(command, str) or command not in _RUNNERS:
        raise UsageError(f"manifest command {command!r} is not rerunnable")
    config = _resolve(command, data["config"], {})
    missing = set(_DEFAULTS[command]) - set(config)
    if missing:
        raise UsageError(f"manifest config lacks {sorted(missing)}")
    for key, package, running in (
            ("package_version", "alphauct", PACKAGE_VERSION),
            ("numpy_version", "numpy", np.__version__)):
        written_by = data.get(key)
        if written_by != running:
            print(f"warning: manifest written by {package} {written_by}, "
                  f"running {running}; artifacts may differ", file=sys.stderr)
    return _RUNNERS[command](config, _resolve_out(args, command))


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
    sp.add_argument("--iters", type=int, dest="max_iterations")
    sp.add_argument("--expansion", type=int, dest="expansion_factor")
    sp.add_argument("--chunk", type=int, dest="chunk_size")
    sp.add_argument("--backup", choices=MODES)
    sp.add_argument("--judge", choices=JUDGE_MODES, dest="judge_mode")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--c", type=float)
    sp.add_argument("--state", choices=STATE_STRATEGIES, dest="state_strategy")
    sp.add_argument("--max-depth", type=int)
    sp.add_argument("--parallel-actions", type=int)
    sp.add_argument("--judge-noise", type=float)
    sp.add_argument("--judge-offset", type=float)
    sp.add_argument("--judge-latency", type=float)
    add_out(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("bandit", help="regret curves / efficiency sweep")
    sp.add_argument("--arms", type=int)
    sp.add_argument("--gap", type=float)
    sp.add_argument("--sigma2", type=float)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--noise", choices=NOISE_KINDS)
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--seeds", type=int)
    sp.add_argument("--rho-grid", type=float_list,
                    help="comma-separated rho values; emits the ratio sweep "
                         "instead of one curve")
    add_out(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("ablate", help="backup x judging grid on a fixture")
    sp.add_argument("--fixture")
    sp.add_argument("--seeds", type=int)
    sp.add_argument("--iters", type=int)
    add_out(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--filter", action="append",
                    help=f"criterion name substring; repeatable "
                         f"(known: {', '.join(CRITERION_NAMES)})")
    sp.add_argument("--inject-fault", choices=FAULTS, help="break one mechanism "
                    "(pair with --filter); each kind's criteria must FAIL: "
                    + "; ".join(f"{k}: {', '.join(r[-1])}" for k, r in FAULTS.items()))
    add_out(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("rerun", help="replay a run from its manifest")
    sp.add_argument("manifest", help="path to manifest.json or its directory")
    add_out(sp)
    sp.set_defaults(fn=cmd_rerun)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # UsageError, FixtureError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
