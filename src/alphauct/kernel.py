"""The compiled bandit step loop: ``_ucb.c`` built with the system ``cc``,
checked against the numpy loop, cached, loaded through ``ctypes`` and
called block by block.

``regret._kernel()`` imports this module on the first bandit run of a
process, never at package import.  ``build()`` looks for the library in
``$XDG_CACHE_HOME/alphauct`` (default ``~/.cache/alphauct``) under a hash
of (source, compile command, platform); failing that it compiles the
source into a temporary file, checks it (``agrees_with_numpy``) and moves
it into place.  A missing compiler, a failed build or check and a library
that does not load all give ``None``, and a failed build leaves no file
behind.

The kernel picks each step's arm by the numpy loop's index and tie rule, but
computes all K indices only after a change of leader: in between, each other
arm's index is bounded above by one value computed at the end of a short
window, and the leader's own index decides whether any of them could win
(see the header of ``_ucb.c``).  Every index it does compute, and every
slab update, is the numpy loop's IEEE operations on the same operands, so
``compiled_loop`` returns the numpy loop's curve and slabs bit for bit.
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
from .envs import BanditSpec, residual_noise
from .rng import derive_rng

# The most uniforms (and as many residuals) the compiled loop holds at once:
# it draws a block's noise and runs its steps for as many seeds at a time as
# fit (64 at block 2048), so a 500-seed shard holds 1 MB of each, not 8 MB.
NOISE_FLOATS = 1 << 17


def compiled_loop(lib, spec: BanditSpec, horizon: int,
                  t_grid: tuple[int, ...], block: int, seed_lo: int,
                  seed_hi: int, state: np.ndarray | None = None,
                  full: np.ndarray | None = None) -> np.ndarray:
    """The step loop of ``regret._numpy_loop`` in the kernel ``lib``, on the
    same four slabs (and the same optional ``state``): per ``block`` steps
    and per group of at most ``NOISE_FLOATS // block`` seeds, one call runs
    each seed's steps in turn on its own row of noise, drawn as the numpy
    loop draws it.  The kernel adds the number of steps that computed all K
    indices to ``full[0]``, a caller's int64 cell, when one is given."""
    n_seeds = seed_hi - seed_lo
    kk = spec.k
    means = np.asarray(spec.means, dtype=np.float64)
    gaps = means[spec.best_arm] - means
    s_res = math.sqrt(spec.residual_var)
    scale = 8.0 * spec.residual_var
    grid = np.asarray(t_grid, dtype=np.int64)
    if state is None:
        state = np.zeros(4 * n_seeds * kk)  # sum | count | inv | mean
    if full is None:
        full = np.zeros(1, dtype=np.int64)
    reg = np.zeros(n_seeds)
    ct = np.empty(min(block, horizon))  # scale * ln t for the block's steps
    gens = [derive_rng(0, "pull-noise", sd).generator()
            for sd in range(seed_lo, seed_hi)]
    out = np.empty((len(t_grid), n_seeds))
    flat_out = out.reshape(-1)  # seed s's checkpoint g at g * n_seeds + s
    group = max(1, NOISE_FLOATS // len(ct))
    gi = 0
    for t0 in range(0, horizon, block):
        bl = min(block, horizon - t0)
        lib.ucb_log_table(scale, t0, bl, ct)
        for lo in range(0, n_seeds, group):
            hi = min(lo + group, n_seeds)
            u = np.empty((hi - lo, bl))
            for g, row in zip(gens[lo:hi], u):
                g.random(out=row)
            noise = residual_noise(u, s_res, spec.noise)
            del u
            next_gi = lib.ucb_block(hi - lo, n_seeds, kk, t0, bl, ct, means,
                                    gaps, noise, state[kk * lo:], reg[lo:],
                                    grid, len(grid), gi, flat_out[lo:],
                                    full)
            del noise  # before the next group's uniforms are drawn
        gi = next_gi
    assert gi == len(t_grid)
    return out


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
    """The build check: on ``CHECK_RUNS`` the kernel leaves the numpy
    loop's curve and final slabs, bit for bit, and its ln table far out
    equals ``math.log``'s."""
    for spec, horizon, n_seeds in CHECK_RUNS:
        args = (spec, horizon, tuple(range(1, horizon + 1)), CHECK_BLOCK,
                0, n_seeds)
        ours, ref = np.zeros((2, 4 * n_seeds * spec.k))
        if (compiled_loop(lib, *args, ours).tobytes()
                != regret._numpy_loop(*args, ref).tobytes()
                or ours.tobytes() != ref.tobytes()):
            return False
    scale, t0 = 0.4, 123_456
    ct = np.empty(CHECK_BLOCK)
    lib.ucb_log_table(scale, t0, len(ct), ct)
    return ct.tolist() == [scale * math.log(t0 + 1 + b) for b in range(len(ct))]


def bind(lib):
    """Declare the kernel's two entry points on the loaded ``lib``."""
    i64 = ctypes.c_int64
    f64s, i64s = (np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
                  for dtype in (np.float64, np.int64))
    lib.ucb_log_table.argtypes = [ctypes.c_double, i64, i64, f64s]
    lib.ucb_log_table.restype = None
    lib.ucb_block.argtypes = [i64, i64, i64, i64, i64, f64s, f64s, f64s,
                              f64s, f64s, f64s, i64s, i64, i64, f64s,
                              i64s]
    lib.ucb_block.restype = i64
    return lib
