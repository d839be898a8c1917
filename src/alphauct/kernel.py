"""The compiled bandit step loop: ``_ucb.c``, the C twin of ``regret.NUMPY``
(``ucb_log_table``, ``ucb_block`` and ``ucb_run``, with the same arguments),
built with the system ``cc``, checked against it, cached and loaded through
``ctypes``.

``regret._kernel()`` imports this module on the first bandit run of a
process, never at package import, and before any seed shard starts its
thread.  Each shard makes one ``ucb_run`` call, which runs its whole block
loop in C; a ``CDLL`` call releases the GIL, so the shards step in
parallel.  ``build()`` looks for the library in ``$XDG_CACHE_HOME/alphauct``
(default ``~/.cache/alphauct``) under a hash of (source, compile command,
platform); failing that it compiles the source into a temporary file,
checks it (``agrees_with_numpy``) and moves it into place.  A missing
compiler, a failed build or check and a library that does not load all
give ``None``, and a failed build leaves no file behind.

The kernel picks each step's arm by the numpy block's index and tie rule
and draws each step's pull noise from the seed's numpy PCG64 stream, with
numpy's IEEE operations wherever it computes an index or updates a cell, so
both leave the same curve, slabs and stream states bit for bit; the header
of ``_ucb.c`` says which index values it skips and why that is exact.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from . import regret
from .envs import BanditSpec

# The kernel's one compile command: no fast-math, no -march, and no
# contraction of a multiply and an add into an FMA, so that every operation
# is the IEEE operation numpy performs.
CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_ucb.c")
# (spec, horizon, seeds) of the runs a fresh build must reproduce bit for
# bit, with checkpoints at every step and blocks that end inside a run.  In
# the first, rewards are exact binary fractions, so arms of different means
# often tie exactly on the index and the tie rule shows in the regret.
CHECK_RUNS = (
    (BanditSpec(means=(0.75, 0.25, 0.5), sigma_x2=0.0625, noise="two_point"),
     300, 4),
    (BanditSpec(means=(0.6, 0.5, 0.45), sigma_x2=0.05, rho=0.5,
                noise="uniform"), 300, 3),
)
CHECK_BLOCK = 64

# One-seed blocks for ``ucb_block``, past the forced steps, where the lazy
# index meets a tie or its bound's edge: (K, c_t per step, arm means, per-arm
# (sum, count) at the start), the arms the full index picks at each step (the
# noise is 0), and how many of those steps the kernel takes on the full path.
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


def run_lazy_case(lib, case: str):
    """``LAZY_CASES[case]`` from step 1001 through ``lib.ucb_block``, each
    arm's gap its own number and the noise 0 (``s_res = 0``, still one draw
    per step): (return value, the bytes of the regret at each step and of
    the final slabs, full-step count)."""
    k, ct, means, cells, _, _ = LAZY_CASES[case]
    n, t0 = len(ct), 1000
    sums, counts = np.array(cells).T
    state = np.concatenate([sums, counts, 1.0 / counts, sums * (1.0 / counts)])
    out, full = np.empty(n), np.zeros(1, dtype=np.int64)
    pcg = np.array(regret._pcg_row(np.random.PCG64(0)), dtype=np.uint64)
    got = lib.ucb_block(1, 1, k, t0, n, np.array(ct), np.array(means),
                        np.arange(k, dtype=np.float64), pcg, 0.0, 0, state,
                        np.zeros(1), np.arange(t0 + 1, t0 + n + 1), n, 0, out,
                        full)
    return got, out.tobytes(), state.tobytes(), int(full[0])


def build():
    """The kernel library, from the cache or freshly built and checked, or
    ``None`` (see the module docstring)."""
    tmp = None
    try:
        key = hashlib.sha256(repr((SOURCE.read_bytes(), CC,
                                   platform.platform())).encode())
        xdg = os.environ.get("XDG_CACHE_HOME", "")
        cache = (Path(xdg) if os.path.isabs(xdg)
                 else Path.home() / ".cache") / "alphauct"
        path = cache / f"ucb-{key.hexdigest()[:16]}.so"
        if path.exists():
            return bind(ctypes.CDLL(str(path)))
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        subprocess.run([*CC, "-o", tmp, str(SOURCE), "-lm"],
                       stdin=subprocess.DEVNULL, capture_output=True,
                       check=True, timeout=120)
        lib = bind(ctypes.CDLL(tmp))
        if not agrees_with_numpy(lib):
            return None
        os.replace(tmp, path)
        return lib
    except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError):
        return None  # no compiler or home, a failed build, a bad library
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def agrees_with_numpy(lib) -> bool:
    """The build check: ``lib`` gives ``regret.NUMPY``'s bits on the curve,
    final slabs and final PCG64 rows of the ``regret.Simulation`` each of
    ``CHECK_RUNS`` returns, the slabs, regret writes and return value of
    each of ``LAZY_CASES``, and a ln table far out.  ``NUMPY`` draws through numpy's own generator, so this pins the
    kernel's stream to numpy's."""
    def results(x):
        for spec, horizon, n_seeds in CHECK_RUNS:
            run = regret._simulate(spec, horizon, tuple(range(1, horizon + 1)),
                                   CHECK_BLOCK, 0, n_seeds, x)
            yield from (a.tobytes() for a in (run.per_seed, run.state, run.pcg))
        for case in LAZY_CASES:
            yield run_lazy_case(x, case)[:3]
        ct = np.empty(CHECK_BLOCK)
        x.ucb_log_table(0.4, 123_456, len(ct), ct)
        yield ct.tobytes()
    return all(a == b for a, b in zip(results(lib), results(regret.NUMPY)))


def bind(lib):
    """Declare the kernel's entry points on the loaded ``lib``: ``ucb_run``,
    which ``regret._simulate`` calls, and ``ucb_block`` and
    ``ucb_log_table``, which ``run_lazy_case`` and the build check call."""
    i64, f64 = ctypes.c_int64, ctypes.c_double
    f64s, i64s, u64s = (np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
                        for dtype in (np.float64, np.int64, np.uint64))
    lib.ucb_log_table.argtypes = [f64, i64, i64, f64s]
    lib.ucb_log_table.restype = None
    lib.ucb_block.argtypes = ([i64] * 5 + [f64s] * 3 + [u64s, f64, i64]
                              + [f64s] * 2 + [i64s, i64, i64, f64s, i64s])
    lib.ucb_block.restype = i64
    lib.ucb_run.argtypes = ([i64] * 5 + [f64] + [f64s] * 3 + [u64s, f64, i64]
                            + [f64s] * 2 + [i64s, i64, f64s, i64s])
    lib.ucb_run.restype = i64
    return lib
