"""The bandit step loop, and all that knows its contract (the ``ucb_*``
arguments, the four-slab layout, the PCG64 rows, the seed shards):
``simulate``, which steps a range of seeds; ``pcg64_rows``, which sets up
their PCG64 streams in one vectorized pass; ``_ucb.c``, the loop in C,
built with the system ``cc``, checked, cached and loaded through ``ctypes``
once per process by ``compiled()``; and ``NUMPY``, the same entry points in
numpy, the fallback and the tests' reference.  ``regret`` owns the bandit
runs around the loop and reaches it only through ``simulate`` and
``compiled``.

``build()`` looks for the library in ``$XDG_CACHE_HOME/alphauct``
(default ``~/.cache/alphauct``) under a hash of (source, compile command,
platform); failing that it compiles the source into a temporary file,
checks it (``agrees_with_numpy``) and moves it into place.  A missing
compiler, a failed build or check and a library that does not load all
give ``None``, and a failed build leaves no file behind.  Both loops leave
the same curve, slabs and stream states bit for bit: the header of
``_ucb.c`` says how, and which index values the kernel skips.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .envs import NOISE_KINDS, BanditSpec, residual_noise
from .rng import _part_to_int

# The kernel's one compile command: no fast-math, no -march, and no
# contraction of a multiply and an add into an FMA, so that every operation
# is the IEEE operation numpy performs.
CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_ucb.c")
_MASK64 = (1 << 64) - 1
_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

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

# A run of fewer seed-steps runs in one thread.  Starting a pool thread,
# running a trivial job on it and joining it took 0.3 ms in the median
# (quartiles 0.16-0.53 ms over 600; 16 ms at worst) on a 2-vCPU VM with numpy
# loaded.  The kernel does 100-140M seed-steps/s per thread at K = 10, gap
# 0.1, T = 100k and 60-83M at T = 20k (50 and 1000 seeds, medians of runs
# minutes apart on a VM whose speed drifts), so a shard of this size runs
# 14-33 ms and its thread costs 1-2 % of it in the median; no
# unit-test-sized run starts a thread.
SHARD_MIN_SEED_STEPS = 2_000_000


def _worker_count(n_seeds: int, horizon: int) -> int:
    """How many seed shards one compiled run splits into: one per core this
    process may run on, at most one per seed, and 1 for a run below
    ``SHARD_MIN_SEED_STEPS``."""
    if n_seeds * horizon < SHARD_MIN_SEED_STEPS:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(cores, n_seeds)


class Simulation(NamedTuple):
    """What ``simulate`` leaves behind."""

    per_seed: np.ndarray  # regret at each checkpoint, (len(t_grid), n_seeds)
    state: np.ndarray  # the four slabs: sum, count, inv, mean per cell
    pcg: np.ndarray  # each seed's PCG64 row after its last draw
    full_steps: int  # seed-steps that computed all K indices


def simulate(spec: BanditSpec, horizon: int, t_grid: tuple[int, ...],
             block: int, seed_lo: int, seed_hi: int, lib=None) -> Simulation:
    """Step seeds [seed_lo, seed_hi) through ``horizon`` pulls with ``lib``
    (default: ``compiled()``, or ``NUMPY`` where it is ``None``) and return
    their ``Simulation``: the cumulative pseudo-regret at the grid
    checkpoints, the final slabs and PCG64 rows, and the full-step count.

    One ``lib.ucb_run`` call per shard (below) runs ``block`` steps per
    ``ucb_block`` call, drawing each step's pull noise from the seed's own
    PCG64 stream; the block size is physical only.  Each (seed, arm) cell
    keeps its reward sum, pull count, ``inv = 1/count`` and ``mean = sum *
    inv`` in four ``n_seeds * K`` slabs of one array, ``state``.  Each
    seed's stream state is a row of four uint64 words (see ``_pcg_row``) in
    ``pcg``, which ends holding the seed's state after its last draw.  One
    ``pcg64_rows`` call sets up every row, as the seed's
    ``derive_rng(0, "pull-noise", sd).generator()`` would start.  Arrays
    too large to allocate, the shards' ``ct`` tables among them, raise a
    ``ValueError`` naming the run's size and ``block`` before any shard
    starts.

    Once every stream is set up here, the seeds split into
    ``_worker_count`` contiguous shards (one for ``NUMPY``, whose numpy
    calls hold the GIL; a ``ctypes`` call releases it).  Shard ``i`` of
    seeds [lo, hi) calls ``ucb_run(hi - lo, n_seeds, ...)`` with each
    per-seed array offset to seed ``lo``: shard 0 in this thread, each
    other one in a pool thread.  A shard's exception is raised once every
    shard has stopped; so is a ``RuntimeError`` for a shard whose
    ``ucb_run`` returns any index but the grid's length (-1: a block's
    fell outside [gi, n_grid]).
    """
    lib = lib or compiled() or NUMPY
    n_seeds = seed_hi - seed_lo
    kk = spec.k
    means = np.asarray(spec.means, dtype=np.float64)
    gaps = means[spec.best_arm] - means
    s_res = math.sqrt(spec.residual_var)
    kind = NOISE_KINDS.index(spec.noise)
    # 2 * sigma_res^2 * ln(1/delta_t) with delta_t = t^-4
    scale = 8.0 * spec.residual_var
    grid = np.asarray(t_grid, dtype=np.int64)
    w = 1 if lib is NUMPY else _worker_count(n_seeds, horizon)
    try:
        state = np.zeros(4 * n_seeds * kk)
        pcg = np.empty(4 * n_seeds, dtype=np.uint64)
        reg = np.zeros(n_seeds)
        out = np.empty((len(t_grid), n_seeds))
        # each shard's scale * ln t for a block's steps
        cts = [np.empty(min(block, horizon)) for _ in range(w)]
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's limit
        raise ValueError(f"{n_seeds} seeds x {len(t_grid)} checkpoints, "
                         f"block {block}: {exc}") from None
    pcg[:] = pcg64_rows((0, "pull-noise"), seed_lo, seed_hi)
    flat_out = out.reshape(-1)  # seed s's checkpoint g at g * n_seeds + s
    cuts = [i * n_seeds // w for i in range(w + 1)]
    fulls = np.zeros(w, dtype=np.int64)

    def shard(i: int) -> None:
        lo, hi, ct = cuts[i], cuts[i + 1], cts[i]
        got = lib.ucb_run(hi - lo, n_seeds, kk, horizon, len(ct), scale, ct,
                          means, gaps, pcg[4 * lo:], s_res, kind,
                          state[kk * lo:], reg[lo:], grid, len(grid),
                          flat_out[lo:], fulls[i:i + 1])
        if got != len(grid):
            raise RuntimeError(
                f"bandit seeds [{seed_lo + lo}, {seed_lo + hi}): step loop "
                f"returned checkpoint {got} of {len(grid)}")

    if w == 1:
        shard(0)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(w - 1) as pool:
            others = [pool.submit(shard, i) for i in range(1, w)]
            shard(0)
            for future in others:
                future.result()
    return Simulation(out, state, pcg, int(fulls.sum()))


def _u32_words(value: int) -> list[int]:
    """A key part as ``SeedSequence`` splits it: 32-bit words, low first,
    and one word for 0."""
    return [value >> 32 * i & _M32
            for i in range(max(1, (value.bit_length() + 31) // 32))]


def _carry(limbs: np.ndarray) -> np.ndarray:
    """A 128-bit value from four uint64 limbs of 32-bit weight, each under
    2^63: the carries moved up, the top one dropped."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> 32
    return limbs & _M32


def pcg64_rows(prefix: tuple, seed_lo: int, seed_hi: int) -> np.ndarray:
    """The PCG64 state of ``derive_rng(*prefix, sd).generator()`` for each
    ``sd`` in ``[seed_lo, seed_hi)``: 128-bit state low word first, then the
    increment, four uint64 words per seed, ``4 * (seed_hi - seed_lo)`` in
    all.  Runs numpy's ``SeedSequence`` pool mixing, its
    ``generate_state(4, uint64)`` and PCG64's seeding (O'Neill 2014,
    ``pcg_setseq_128_srandom_r``) on uint32 and uint64 arrays, so no
    generator object is built."""
    n = seed_hi - seed_lo
    seeds = np.arange(n, dtype=np.uint64) + np.uint64(seed_lo & _MASK64)
    high = (seeds >> 32).astype(np.uint32)
    ent = [np.full(n, w, dtype=np.uint32) for part in prefix
           for w in _u32_words(_part_to_int(part))]
    ent += [(seeds & _M32).astype(np.uint32), high]
    # a seed below 2^32 is one word: inside the pool its missing high word
    # hashes as the zero padding does; past the pool the high word's mixing
    # phase is kept only where that word is non-zero
    ent += [np.zeros(n, dtype=np.uint32)] * (4 - len(ent))
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    pool = [hashmix(word) for word in ent[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(ent)):
        mixed = [mix(word, hashmix(ent[src])) for word in pool]
        pool = (mixed if src + 1 < len(ent) else
                [np.where(high != 0, new, old) for new, old in zip(mixed, pool)])
    hash_const = _INIT_B
    # generate_state(4, uint64) gives uint64 word j as uint32 words 2j and
    # 2j + 1; PCG64 seeds with initstate = word 0 << 64 | word 1 and
    # initseq = word 2 << 64 | word 3, so uint32 word i is 32-bit limb
    # i ^ 2 (low first) of initstate, or of initseq for i >= 4
    words = np.empty((8, n), dtype=np.uint64)
    for i in range(8):
        words[i ^ 2] = hashmix(pool[i % 4], _MULT_B)
    init, seq = words[:4], words[4:]
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, and then
    # state = ((inc + initstate) * MULT + inc) mod 2^128
    inc = seq << 1 & _M32
    inc[0] |= 1
    inc[1:] |= seq[:-1] >> 31
    base = _carry(inc + init)
    mult = [_PCG_MULT >> 32 * j & _M32 for j in range(4)]
    prod = np.zeros((4, n), dtype=np.uint64)
    for i in range(4):
        for j in range(4 - i):
            part = base[i] * mult[j]
            prod[i + j] += part & _M32
            if i + j < 3:
                prod[i + j + 1] += part >> 32
    limbs = np.concatenate([_carry(_carry(prod) + inc), inc])
    # each seed's row: state low and high word, then inc's, two limbs each
    return (limbs[0::2] | limbs[1::2] << 32).T.reshape(-1)


def _pcg_row(bit_generator) -> list[int]:
    """A PCG64's state as the step loop's four uint64 words: the 128-bit
    LCG state, low word first, then its increment."""
    words = bit_generator.state["state"]
    return [words["state"] & _MASK64, words["state"] >> 64,
            words["inc"] & _MASK64, words["inc"] >> 64]


def _numpy_log_table(scale: float, t0: int, n: int, ct: np.ndarray) -> None:
    """``ucb_log_table`` in numpy: ct[b] = scale * ln(t0 + 1 + b), b < n."""
    ct[:n] = [scale * math.log(t) for t in range(t0 + 1, t0 + n + 1)]


def _numpy_block(n_seeds, stride, k, t0, n, ct, means, gaps, pcg, s_res,
                 kind, st, reg, grid, n_grid, gi, out, full) -> int:
    """``ucb_block`` of ``_ucb.c`` in numpy, all seeds a step at a time.
    First each seed's ``n`` uniforms come from numpy's own PCG64 restored
    from its row of ``pcg`` (``Generator.random``), which then holds the
    advanced state, and ``residual_noise`` maps them.  The first K steps
    play arm ``t - 1`` (an untried arm's index is infinite), each later step
    computes every arm's index ``mean + sqrt(inv * c_t)`` and its first
    maximum.  A step rewrites only the cells each seed pulled, with the
    operations a full recompute would do."""
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    rows = pcg[:4 * n_seeds].reshape(n_seeds, 4)
    noise = np.empty((n_seeds, n))
    for row, u in zip(rows, noise):
        lo, hi, inc_lo, inc_hi = (int(word) for word in row)
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": hi << 64 | lo,
                                   "inc": inc_hi << 64 | inc_lo},
                         "has_uint32": 0, "uinteger": 0}
        gen.random(out=u)
        row[:] = _pcg_row(bit_gen)
    noise = residual_noise(noise, s_res, NOISE_KINDS[kind])
    cells, size = n_seeds * k, stride * k
    inv = st[2 * size:2 * size + cells]
    mean = st[3 * size:3 * size + cells]
    index = np.empty((n_seeds, k))
    flat_index = index.reshape(cells)
    # cell[j, s]: slab j's entry for the arm seed s pulled this step
    slab_base = np.arange(0, 4 * size, size)[:, None] + np.arange(0, cells, k)
    cell = np.empty((4, n_seeds), dtype=np.intp)
    upd = np.empty((4, n_seeds))
    new_sum, new_count, new_inv, new_mean = upd
    inc = np.ones((2, n_seeds))  # row 0: this step's rewards; row 1: one pull
    reg = reg[:n_seeds]
    step_noise = noise.T  # row b: step b's noise
    for b in range(n):
        t = t0 + 1 + b
        if t <= k:
            chosen = np.full(n_seeds, t - 1)
        else:
            np.multiply(inv, ct[b], out=flat_index)
            np.sqrt(flat_index, out=flat_index)
            np.add(flat_index, mean, out=flat_index)
            chosen = index.argmax(axis=1)
        np.add(slab_base, chosen, out=cell)
        np.add(means[chosen], step_noise[b], out=inc[0])
        np.add(st[cell[:2]], inc, out=upd[:2])
        np.divide(1.0, new_count, out=new_inv)
        np.multiply(new_sum, new_inv, out=new_mean)
        st[cell] = upd
        reg += gaps[chosen]
        if gi < n_grid and t == grid[gi]:
            out[gi * stride:gi * stride + n_seeds] = reg
            gi += 1
    full[0] += n_seeds * max(0, t0 + n - max(t0, k))
    return gi


def _numpy_run(n_seeds, stride, k, horizon, block, scale, ct, means, gaps,
               pcg, s_res, kind, st, reg, grid, n_grid, out, full) -> int:
    """``ucb_run`` in numpy: -1 once a block's index leaves [gi, n_grid]."""
    gi = 0
    for t0 in range(0, horizon, block):
        n = min(block, horizon - t0)
        _numpy_log_table(scale, t0, n, ct)
        got = _numpy_block(n_seeds, stride, k, t0, n, ct, means, gaps, pcg,
                           s_res, kind, st, reg, grid, n_grid, gi, out, full)
        if not gi <= got <= n_grid:
            return -1
        gi = got
    return gi


# The kernel's entry points in numpy, the step loop wherever no kernel
# builds: ``simulate(..., lib=NUMPY)`` runs it.
NUMPY = SimpleNamespace(ucb_log_table=_numpy_log_table,
                        ucb_block=_numpy_block, ucb_run=_numpy_run)


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
    pcg = np.array(_pcg_row(np.random.PCG64(0)), dtype=np.uint64)
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


# build() once per process, on first use, never at import; None: NUMPY steps
compiled = functools.cache(build)


def agrees_with_numpy(lib) -> bool:
    """The build check: ``lib`` gives ``NUMPY``'s bits on the curve, final
    slabs and final PCG64 rows of the ``Simulation`` each of ``CHECK_RUNS``
    returns, the slabs, regret writes and return value of each of
    ``LAZY_CASES``, and a ln table far out.  ``NUMPY`` draws through numpy's
    own generator, so this pins the kernel's stream to numpy's."""
    def results(x):
        for spec, horizon, n_seeds in CHECK_RUNS:
            run = simulate(spec, horizon, tuple(range(1, horizon + 1)),
                           CHECK_BLOCK, 0, n_seeds, x)
            yield from (a.tobytes() for a in (run.per_seed, run.state, run.pcg))
        for case in LAZY_CASES:
            yield run_lazy_case(x, case)[:3]
        ct = np.empty(CHECK_BLOCK)
        x.ucb_log_table(0.4, 123_456, len(ct), ct)
        yield ct.tobytes()
    return all(a == b for a, b in zip(results(lib), results(NUMPY)))


def bind(lib):
    """Declare the kernel's entry points on the loaded ``lib``: ``ucb_run``,
    which ``simulate`` calls, and ``ucb_block`` and ``ucb_log_table``, which
    ``run_lazy_case`` and the build check call."""
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
