"""Deterministic per-call random draws.

Every stochastic component draws from a logical call key (ints and short
strings) instead of sharing mutable stream state.  Call keys are assigned when
work is scheduled, not when it runs, so serial and thread-parallel execution
produce bit-identical draws.

``derive_rng(*parts)`` returns a ``KeyedDraws``: a counter-based source in the
style of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC
2011).  Draw ``i`` of a key is word ``i % 8`` of the blake2b hash of the key
and the block counter ``i // 8``, so a draw costs one hash per eight draws and
no generator state is built.  The hash state is kept after the key has been
absorbed and copied for each block, and ``child(part)`` extends a key by one
part from a copy of that state: a caller with many sibling keys, such as the
proposer's slots, absorbs their shared prefix once.  ``child_words(part)``
returns the first hash block of ``child(part)`` as eight raw 64-bit words,
from one state copy and one update, for a caller that needs at most eight
draws of each sibling key and does the ``random``/``integers`` arithmetic
itself.  The search core (proposer, judge) takes its scalar draws this way.
Code that draws in bulk blocks calls ``.generator()``, which builds the PCG64
``Generator`` seeded from the same key.  ``pcg64_rows(prefix, lo, hi)`` gives
the state of each such generator for the keys ``(*prefix, sd)``, ``sd`` in
``[lo, hi)``, as four uint64 words per seed, computed for all seeds at once
with numpy's ``SeedSequence`` mixing and PCG64 seeding written as array
arithmetic; the bandit step loop steps those rows itself.
"""
from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_WORDS = struct.Struct("<8Q")  # one 64-byte blake2b digest
_PART = struct.Struct("<Q")  # one key part or block counter
_PART_BLOCK0 = struct.Struct("<2Q")  # one key part, then block counter 0
_UNIT = 2.0 ** -53
_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _inv_cdf(p: float) -> float:
    """The standard normal's inverse CDF.  The first call rebinds this name
    to ``statistics.NormalDist().inv_cdf``, so that importing this module
    does not load ``statistics`` and later draws call it directly."""
    global _inv_cdf
    from statistics import NormalDist
    _inv_cdf = NormalDist().inv_cdf
    return _inv_cdf(p)


@lru_cache(maxsize=None)
def _key_struct(n: int) -> struct.Struct:
    """The packing of an ``n``-part key."""
    return struct.Struct(f"<{n}Q")


@lru_cache(maxsize=1024)
def _str_to_int(part: str) -> int:
    digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _part_to_int(part) -> int:
    if type(part) is int:  # the common case; bool is a subclass, not int
        return part & _MASK64
    if type(part) is str:  # the next most common: a short tag
        return _str_to_int(part)
    if isinstance(part, (bool,)):
        raise TypeError("bool is not a valid rng key part")
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        return _str_to_int(part)
    raise TypeError(f"rng key parts must be int or str, got {type(part).__name__}")


class KeyedDraws:
    """Scalar draws for one call key; the n-th call returns the key's n-th
    draw whatever the kind, so equal keys and equal call sequences give
    equal values."""

    __slots__ = ("entropy", "_state", "_words", "_drawn")

    def __init__(self, entropy: tuple[int, ...], state=None):
        self.entropy = entropy
        # every hashed message is 8 bytes per key part plus an 8-byte block
        # counter, so distinct (key, block) pairs never hash the same bytes;
        # ``state`` is the hash with the key already absorbed
        if state is None:
            state = hashlib.blake2b(
                _key_struct(len(entropy)).pack(*entropy), digest_size=64)
        self._state = state
        self._words: tuple[int, ...] = ()
        self._drawn = 0

    def child(self, part) -> "KeyedDraws":
        """The draws of this key extended by ``part``: equal to
        ``derive_rng(*key, part)``, without hashing the key again."""
        value = _part_to_int(part)
        state = self._state.copy()
        state.update(_PART.pack(value))
        return KeyedDraws(self.entropy + (value,), state)

    def child_words(self, part) -> tuple[int, ...]:
        """The first eight 64-bit words of ``child(part)``: draw ``i < 8`` of
        that child has the 53 bits ``child_words(part)[i] >> 11``.  One state
        copy absorbs ``part`` and block counter 0 together, and no child
        object is built."""
        value = part & _MASK64 if type(part) is int else _part_to_int(part)
        block = self._state.copy()
        block.update(_PART_BLOCK0.pack(value, 0))
        return _WORDS.unpack(block.digest())

    def _next_bits(self) -> int:
        """The next 53-bit draw."""
        i = self._drawn
        self._drawn = i + 1
        if i % 8 == 0:
            block = self._state.copy()
            block.update(_PART.pack(i // 8))
            self._words = _WORDS.unpack(block.digest())
        return self._words[i % 8] >> 11

    def random(self) -> float:
        """Uniform on [0, 1)."""
        return self._next_bits() * _UNIT

    def integers(self, lo: int, hi: int) -> int:
        """Uniform integer on [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty integer range [{lo}, {hi})")
        return lo + ((self._next_bits() * (hi - lo)) >> 53)

    def standard_normal(self) -> float:
        """Standard normal, by inverting its CDF at a uniform on (0, 1)."""
        return _inv_cdf((self._next_bits() + 0.5) * _UNIT)

    def generator(self) -> np.random.Generator:
        """The PCG64 generator this key seeds, for bulk draws."""
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(list(self.entropy))))


def derive_rng(*parts) -> KeyedDraws:
    """Keyed draws for a logical call key; same key, same draws."""
    if not parts:
        raise ValueError("empty rng key")
    return KeyedDraws(tuple([part & _MASK64 if type(part) is int
                             else _part_to_int(part) for part in parts]))


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
