#!/usr/bin/env python3
"""alphauct benchmark: the search and regret traffic of the acceptance suite.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_verify --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py`` and ``README.md``):

- ``search_verify``: the 644 ``run_search`` calls of one ``verify`` pass.
- ``bandit_narrow``: one ``regret_bound`` curve, 100 seeds x 100k steps.
- ``bandit_wide``: the same bandit, 1000 seeds x 20k steps.

Everything runs as a closed loop: one caller, one operation at a time, in
this process, with no thread pools.  An operation is one ``run_search`` call,
or one ``run_bandit_experiment`` call with its analysis.  The program is set
up ``SETUP_REPEATS`` times (fresh import of the package from ``src``, fixture
parsing, input building) and the last set-up is measured in whole passes for
about ``--seconds`` seconds, with one more set-up sample after every pass.
The first pass is checked in full; every later pass must reproduce its
outputs exactly.  A fixed reference loop is timed after every pass and all
reported times are scaled by it (see ``REF_NOMINAL_S``); the unscaled
figures go to the results file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, per traced
pass, plus the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A results file (and, when traced, every span) is written under
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads
from tracer import Tracer
from workloads import SEARCH_VERIFY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups before the first pass; one more follows every pass
SETUP_REPEATS = 5
# Reference loop: fixed pure-Python work that does not touch the program.
# On a shared 2-vCPU VM (Xeon at 2.1 GHz, Python 3.11) the interpreter's
# speed drifted by up to 30 % over minutes with the load of other tenants,
# which moved the median searches/s of ten 40 s runs by 22 % (IQR over
# median); scaled by the reference timed next to them, the same runs varied
# by 5 %.  Every reported time is scaled to the speed at which one reference
# loop takes REF_NOMINAL_S.
REF_LOOP = 50_000
REF_REPEATS = 5
REF_NOMINAL_S = 0.005
PROGRAM_MODULES = ("envs", "expansion", "judging", "proposer", "regret",
                   "search", "tree")


def import_program() -> SimpleNamespace:
    """Fresh import of the ``alphauct`` package and its modules."""
    for name in [m for m in sys.modules
                 if m == "alphauct" or m.startswith("alphauct.")]:
        del sys.modules[name]
    import_module("alphauct")
    return SimpleNamespace(**{m: sys.modules[f"alphauct.{m}"]
                              for m in PROGRAM_MODULES})


def _failed(out) -> bool:
    return isinstance(out, Exception)


class SearchBench:
    """One pass = the 644 searches of ``workloads.search_cases``."""

    def __init__(self, mods, seed: int, tr: Tracer | None):
        self.mods = mods
        load = mods.envs.load_fixture
        if tr is not None:
            load = tr.wrap("envs.load_fixture", load)
        specs = {f: load(f) for f in workloads.FIXTURES}
        self.items = [(case, specs[case.fixture],
                       mods.search.SearchConfig(**case.config),
                       mods.judging.SimJudgeSpec(**case.judge))
                      for case in workloads.search_cases(seed)]
        self.work_per_op = 1  # work_per_s counts searches
        self.steps_per_op = 0  # bandit steps

    def __len__(self) -> int:
        return len(self.items)

    def run_op(self, i: int):
        m = self.mods
        case, spec, cfg, judge_spec = self.items[i]
        proposer = m.proposer.proposer_from_fixture(
            spec, seed=cfg.seed, **case.proposer_overrides)
        judge = m.judging.SimJudge(judge_spec, spec.values)
        return m.search.run_search(m.envs.GuiGraphEnv(spec), proposer, judge,
                                   m.search.SimReflector(), cfg)

    def digest(self, out) -> str:
        if _failed(out):
            return f"raised {out!r}"
        h = hashlib.sha256(out.tree.dump().encode())
        h.update("\n".join(out.trace).encode())
        h.update(repr((out.outcome, out.iterations, out.success_node,
                       [c.norm_key for c in out.best_path])).encode())
        return h.hexdigest()

    def check(self, outs) -> list[str | None]:
        """Per search: incremental q_max equals the event-log oracle at every
        scored node; no two siblings share a normalized key recomputed from
        raw atoms; b* <= K.  Snapshot and replay runs of one fixture agree."""
        errors = [self._check_one(item, out) for item, out in zip(self.items, outs)]
        pairs: dict[str, list[int]] = {}
        for i, (case, *_rest) in enumerate(self.items):
            if case.slice == "determinism":
                pairs.setdefault(case.fixture, []).append(i)
        for fixture, idx in pairs.items():
            runs = [outs[i] for i in idx]
            if any(_failed(r) for r in runs):
                continue
            if len({(r.tree.dump(), r.trace, r.outcome) for r in runs}) != 1:
                for i in idx:
                    errors[i] = errors[i] or f"{fixture}: snapshot and replay diverge"
        return errors

    def _check_one(self, item, res) -> str | None:
        case, spec, cfg, _ = item
        if _failed(res):
            return f"raised {type(res).__name__}: {res}"
        tree = res.tree
        ctx = spec.alias_context()
        for nid, rec in enumerate(tree.nodes):
            if rec.q_max is not None and rec.q_max != tree.subtree_max_oracle(nid):
                return f"node {nid}: q_max {rec.q_max!r} != oracle"
            kids = rec.children
            if len(kids) > cfg.expansion_factor:
                return f"node {nid}: b*={len(kids)} > K={cfg.expansion_factor}"
            keys = [self.mods.expansion.chunk_key(tree.nodes[c].action.atoms, ctx)
                    for c in kids]
            if len(set(keys)) != len(keys):
                return f"node {nid}: siblings share a normalized key"
        return None

    def counts(self, outs) -> dict[str, float]:
        """Deterministic per-pass counts read from the search results."""
        c: dict[str, float] = {"tree.nodes": 0, "search.iterations": 0}
        for kind in ("expand", "revisit", "stalled", "judge_failed"):
            c[f"search.iter_kind.{kind}"] = 0
        for outcome in ("success", "budget_exhausted", "infeasible"):
            c[f"search.outcome.{outcome}"] = 0
        for res in outs:
            if _failed(res):
                continue
            c["tree.nodes"] += len(res.tree)
            c["search.iterations"] += res.iterations
            c[f"search.outcome.{res.outcome}"] += 1
            for line in res.trace:
                kind = line.split(" kind=", 1)[1].split(" ", 1)[0]
                if kind != "stop":
                    c[f"search.iter_kind.{kind}"] += 1
        return c


class BanditBench:
    """One pass = one ``run_bandit_experiment`` call plus its analysis
    (``bound_for_spec``, ``fit_log_regret``, ``per_seed_log_slopes``)."""

    def __init__(self, mods, workload: str, seed: int):
        self.mods = mods
        self.case = workloads.bandit_case(workload, seed)
        self.spec = mods.envs.BanditSpec(means=self.case.means,
                                         sigma_x2=self.case.sigma2, rho=1.0,
                                         noise="uniform")
        self.work_per_op = self.case.n_seeds * self.case.horizon  # seed-steps
        self.steps_per_op = self.case.horizon

    def __len__(self) -> int:
        return 1

    def run_op(self, i: int):
        r = self.mods.regret
        case = self.case
        curve = r.run_bandit_experiment(self.spec, case.algo, case.horizon,
                                        case.n_seeds, seed0=case.seed0)
        bound = r.bound_for_spec(self.spec, case.horizon)
        fit = r.fit_log_regret(curve)
        slopes = r.per_seed_log_slopes(curve)
        return curve, bound, fit, slopes

    def digest(self, out) -> str:
        if _failed(out):
            return f"raised {out!r}"
        curve, bound, fit, slopes = out
        h = hashlib.sha256(curve.per_seed.tobytes())
        h.update(repr((curve.t_grid, bound.total, fit.slope, fit.intercept,
                       fit.r_squared)).encode())
        h.update(slopes.tobytes())
        return h.hexdigest()

    def check(self, outs) -> list[str | None]:
        """Per-seed curves non-decreasing, mean final regret within the
        closed-form bound, and the first seed equal to the scalar twin at
        every grid point."""
        errors: list[str | None] = []
        case = self.case
        for out in outs:
            if _failed(out):
                errors.append(f"raised {type(out).__name__}: {out}")
                continue
            curve, bound, _, _ = out
            ps = curve.per_seed
            if ps.shape != (len(curve.t_grid), case.n_seeds):
                errors.append(f"per_seed shape {ps.shape}")
            elif np.any(ps[0] < 0) or np.any(np.diff(ps, axis=0) < 0):
                errors.append("a per-seed regret curve decreases")
            elif float(ps[-1].mean()) > bound.total:
                errors.append(f"mean final regret {float(ps[-1].mean())} > "
                              f"bound {bound.total}")
            else:
                scalar = self.mods.regret.simulate_policy_scalar(
                    self.spec, case.algo, case.horizon, case.seed0)
                at_grid = scalar[np.asarray(curve.t_grid) - 1]
                errors.append(None if np.array_equal(at_grid, ps[:, 0]) else
                              f"seed {case.seed0} differs from the scalar twin")
        return errors

    def counts(self, outs) -> dict[str, float]:
        """Suboptimal pulls per seed, exact: every suboptimal arm has the
        same gap, so a seed's pull count is its final regret over the gap."""
        curve = next((o[0] for o in outs if not _failed(o)), None)
        if curve is None:
            return {}
        gap = self.case.means[0] - self.case.means[1]
        pulls = float(np.rint(curve.final / gap).sum()) / self.case.n_seeds
        return {"regret.subopt_pulls_per_seed": pulls,
                "regret.subopt_frac": pulls / self.case.horizon}


def make_bench(workload: str, seed: int, tr: Tracer | None):
    mods = import_program()
    if workload == SEARCH_VERIFY:
        return SearchBench(mods, seed, tr)
    return BanditBench(mods, workload, seed)


def reference_s() -> float:
    """Median wall time of the reference loop, measured now."""
    samples = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        x, d = 0, {}
        for i in range(REF_LOOP):
            x += i
            d[i & 1023] = x
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_pass(bench, tr: Tracer | None, op0: int):
    times, outs = [], []
    for i in range(len(bench)):
        if tr is not None:
            tr.op = op0 + i
        t0 = time.perf_counter()
        try:
            out = bench.run_op(i)
        except Exception as exc:  # a raising operation is a failed operation
            out = exc
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return times, outs


def p98(samples: list[float]) -> float:
    """Nearest-rank 98th percentile: of 644 searches, the highest whole
    percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.98 * len(ordered)) - 1]


def end_to_end(passes, work_per_op: int) -> dict[str, float]:
    """``passes`` holds (op seconds, errors) per pass.  Each operation's time
    is its median over the passes, which filters out the machine's transient
    stalls; the percentiles are then taken over the operations.  A workload
    with a single operation reports its median as both percentiles."""
    per_op = []
    for i in range(len(passes[0][0])):
        ok = [times[i] for times, errors in passes if errors[i] is None]
        if ok:
            per_op.append(statistics.median(ok))
    if not per_op:
        return {}
    return {"work_per_s": work_per_op * len(per_op) / sum(per_op),
            "op_ms_p50": 1e3 * statistics.median(per_op),
            "op_ms_p98": 1e3 * p98(per_op)}


def per_layer(tr: Tracer, n: int, scale: float, setup_scale: float,
              counts: dict, bench, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass; times scaled by ``scale``."""

    def calls(name):
        return tr.stat(name)[0] / n

    def secs(name):
        return tr.stat(name)[1] * scale / n

    def self_s(name):
        return tr.stat(name)[2] * scale / n

    def counter(name):
        return tr.counts.get(name, 0) / n

    rng_calls, rng_s = calls("rng.derive_rng"), secs("rng.derive_rng")
    admitted, proposed = counter("expansion.admitted"), counter("expansion.proposed")
    regret_s = secs("regret.run_bandit_experiment")
    steps = bench.steps_per_op
    m = {
        "rng.derive_rng.calls": (rng_calls, "count"),
        "rng.derive_rng.s": (rng_s, "s"),
        "rng.derive_rng.us_per_call": (1e6 * rng_s / rng_calls if rng_calls else 0.0, "us"),
        "proposer.propose.calls": (calls("proposer.propose"), "count"),
        "proposer.propose.self_s": (self_s("proposer.propose"), "s"),
        "proposer.draws": (counter("proposer.draws"), "count"),
        "expansion.expand_node.self_s": (self_s("expansion.expand_node"), "s"),
        "expansion.make_chunk.calls": (calls("expansion.make_chunk"), "count"),
        "expansion.make_chunk.s": (secs("expansion.make_chunk"), "s"),
        "expansion.admitted": (admitted, "count"),
        # make_chunk runs once per non-empty candidate, admitted or not
        "expansion.dedup_rejects": (calls("expansion.make_chunk") - admitted, "count"),
        "expansion.admit_ratio": (admitted / proposed if proposed else 0.0, "ratio"),
        "judging.calls": (counter("judging.calls"), "count"),
        "judging.items": (counter("judging.items"), "count"),
        "judging.self_s": (self_s("judging.judge_comparative")
                           + self_s("judging.judge_independent_set"), "s"),
        "selection.select_leaf.calls": (calls("selection.select_leaf"), "count"),
        "selection.select_leaf.s": (secs("selection.select_leaf"), "s"),
        "backup.backpropagate.calls": (calls("backup.backpropagate"), "count"),
        "backup.backpropagate.s": (secs("backup.backpropagate"), "s"),
        "backup.path_nodes": (counter("backup.path_nodes"), "count"),
        "search.position_env.calls": (calls("search.position_env"), "count"),
        "search.position_env.s": (secs("search.position_env"), "s"),
        "tree.add_child.s": (secs("tree.add_child"), "s"),
        "envs.clone.calls": (calls("envs.clone"), "count"),
        "envs.step.calls": (calls("envs.step"), "count"),
        "envs.s": (secs("envs.clone") + secs("envs.step"), "s"),
        # once per set-up, not per pass
        "envs.load_fixture.s": (tr.stat("envs.load_fixture")[1] * setup_scale, "s"),
        "search.run_search.self_s": (self_s("search.run_search"), "s"),
        "search.reflect.s": (secs("search.reflect"), "s"),
        "regret.run_bandit_experiment.s": (regret_s, "s"),
        "regret.us_per_step": (1e6 * regret_s / steps if steps else 0.0, "us"),
        "regret.ns_per_seed_step": (1e9 * regret_s / bench.work_per_op
                                    if steps else 0.0, "ns"),
        "regret.analysis.s": (secs("regret.bound_for_spec")
                              + secs("regret.fit_log_regret")
                              + secs("regret.per_seed_log_slopes"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for name in ("tree.nodes", "search.iterations",
                 "search.iter_kind.expand", "search.iter_kind.revisit",
                 "search.iter_kind.stalled", "search.iter_kind.judge_failed",
                 "search.outcome.success", "search.outcome.budget_exhausted",
                 "search.outcome.infeasible", "regret.subopt_pulls_per_seed"):
        m[name] = (counts.get(name, 0), "count")
    m["regret.subopt_frac"] = (counts.get("regret.subopt_frac", 0.0), "ratio")
    return m


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "alphauct" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'alphauct'}; run from "
              f"the root of an alphauct checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tr = Tracer() if args.trace else None
    setup_s: list[float] = []

    def set_up(tracer=None):
        gc.collect()
        t0 = time.perf_counter()
        fresh = make_bench(args.workload, args.seed, tracer)
        setup_s.append(time.perf_counter() - t0)
        return fresh

    for _ in range(SETUP_REPEATS - 1):
        set_up()
    bench = set_up(tr)  # the set-up that is measured
    refs = [reference_s()]
    setup_scale = [REF_NOMINAL_S / refs[0]] * SETUP_REPEATS

    passes = []  # (traced, op seconds, errors, time scale)
    ref_digests = ref_errors = counts = None
    start = time.perf_counter()
    while True:
        traced = tr is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tr.install(bench.mods)
        try:
            times, outs = run_pass(bench, tr if traced else None,
                                   len(passes) * len(bench))
        finally:
            if traced:
                tr.uninstall()
                tr.keep_spans = False  # spans of the first traced pass only
        refs.append(reference_s())
        digests = [bench.digest(o) for o in outs]
        if ref_digests is None:
            ref_digests, ref_errors = digests, bench.check(outs)
            counts = bench.counts(outs)
            errors = ref_errors
        else:
            errors = [e or (None if d == r else "output differs from the first pass")
                      for e, d, r in zip(ref_errors, digests, ref_digests)]
        passes.append((traced, times, errors,
                       2 * REF_NOMINAL_S / (refs[-2] + refs[-1])))
        del outs
        elapsed = time.perf_counter() - start
        enough = tr is None or len(passes) >= 2
        # stop before a pass that would overrun the measuring time
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        # one more set-up sample per pass, so set-up is sampled across the run
        set_up()
        setup_scale.append(REF_NOMINAL_S / refs[-1])

    attempted = sum(len(p[1]) for p in passes)
    failed = sum(e is not None for p in passes for e in p[2])
    digest = hashlib.sha256("".join(ref_digests).encode()).hexdigest()
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha(ROOT), "passes": len(passes),
        "ops_per_pass": len(bench),
        "ref_ms_median": 1e3 * statistics.median(refs),
        "ref_nominal_ms": 1e3 * REF_NOMINAL_S,
    }
    units = {"work_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p98": "ms"}
    raw = end_to_end([(t, e) for _, t, e, _ in passes], bench.work_per_op)
    raw["setup_s"] = statistics.median(setup_s)
    if tr is None:
        scaled = end_to_end([([x * k for x in t], e) for _, t, e, k in passes],
                            bench.work_per_op)
        metrics = {
            "setup_s": (statistics.median(a * k for a, k in zip(setup_s, setup_scale)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics.update({k: (v, units[k]) for k, v in scaled.items()})
    else:
        def rate(want):
            sel = [(t, k) for traced, t, _, k in passes if traced == want]
            return (bench.work_per_op * sum(len(t) for t, _ in sel)
                    / sum(sum(t) * k for t, k in sel))
        overhead = 100.0 * (rate(False) / rate(True) - 1.0)
        traced_scales = [k for traced, _, _, k in passes if traced]
        n_traced = len(traced_scales)
        metrics = per_layer(tr, n_traced, statistics.mean(traced_scales),
                            setup_scale[-1], counts, bench, overhead)
        context["spans_of_first_traced_pass"] = tr.write_spans(
            OUT / f"spans-{args.workload}.csv")
        traced_op_s = sum(sum(t) for traced, t, _, _ in passes if traced)
        shares = sorted(((tr.stat(nm)[2] / traced_op_s, nm) for nm in tr.names
                         if nm != "envs.load_fixture"), reverse=True)
        for share, nm in shares:
            print(f"self_share {nm} {100 * share:.1f} %")

    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric ops_failed_frac {failed / attempted!r} ratio")
    print(f"digest {digest}")
    first_errors = [e for p in passes for e in p[2] if e][:5]
    for e in first_errors:
        print(f"error {e}")
    OUT.mkdir(parents=True, exist_ok=True)
    result = {"context": context, "digest": digest,
              "ops_failed_frac": failed / attempted,
              "attempted": attempted, "failed": failed, "errors": first_errors,
              "unscaled": raw, "setup_s_samples": setup_s, "ref_s_samples": refs,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
