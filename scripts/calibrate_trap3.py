#!/usr/bin/env python3
"""Sweep judging/search knobs on the trap3 fixture and report the 2x2 grid.

Used to pick the frozen constants in alphauct.ablation, which are also the
defaults here: for each candidate (c, offset_std, noise_std, iterations) cell
this reruns the four-way grid over the same seed block and prints every
one-sided z-test of ``ablation.DIRECTIONS`` (the pooled and the conditional
ones the ``ablation_direction`` gate requires), plus the noiseless sanity run.
"""

import argparse
import itertools
import math
import sys
import time
from dataclasses import replace

from alphauct.ablation import (ABLATION_CONFIG, ABLATION_JUDGE,
                               direction_tests, run_ablation)
from alphauct.envs import load_fixture
from alphauct.search import OUTCOME_SUCCESS, SearchConfig, search_fixture


def noiseless_rate(spec, seeds, *, expansion, iterations):
    """Goal discoveries under a truthful judge with reflection switched off."""
    return sum(
        search_fixture(spec, SearchConfig(expansion_factor=expansion,
                                          max_iterations=iterations, seed=s),
                       reflection_gain=0.0).outcome == OUTCOME_SUCCESS
        for s in seeds)


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one ``error:`` line, exit 2, without the usage
    block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def knob(text: str) -> float:
    """A search or judge knob: a finite number >= 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text!r}")
    return x


def positive_int(text: str) -> int:
    """A seed count, iteration budget or expansion width: an int >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return n


def main(argv=None):
    ap = _Parser()
    ap.add_argument("--seeds", type=positive_int, default=100)
    ap.add_argument("--c", type=knob, nargs="*", default=[ABLATION_CONFIG.c])
    ap.add_argument("--offset", type=knob, nargs="*",
                    default=[ABLATION_JUDGE.shared_offset_std])
    ap.add_argument("--noise", type=knob, nargs="*",
                    default=[ABLATION_JUDGE.noise_std])
    ap.add_argument("--iters", type=positive_int, nargs="*",
                    default=[ABLATION_CONFIG.max_iterations])
    ap.add_argument("--expansion", type=positive_int,
                    default=ABLATION_CONFIG.expansion_factor)
    ap.add_argument("--skip-noiseless", action="store_true")
    args = ap.parse_args(argv)

    if not args.skip_noiseless:
        w = noiseless_rate(load_fixture("trap3"), range(100), expansion=3,
                           iterations=20)
        print(f"noiseless K=3 iters=20: {w}/100")

    for c, off, noi, it in itertools.product(args.c, args.offset, args.noise, args.iters):
        t0 = time.time()
        cfg = replace(ABLATION_CONFIG, c=c, expansion_factor=args.expansion,
                      max_iterations=it)
        judge = replace(ABLATION_JUDGE, noise_std=noi, shared_offset_std=off)
        cells = run_ablation("trap3", args.seeds, config=cfg, judge_spec=judge)
        print(f"c={c} off={off} noise={noi} iters={it}: "
              + " ".join(f"{cell.judge_mode[:4]}/{cell.backup}={cell.successes}"
                         for cell in cells)
              + f" [{time.time() - t0:.0f}s]")
        for name, (z, p) in direction_tests(cells).items():
            print(f"  {name}: z={z:.2f} p={p:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
