"""Deterministic per-call random draws.

Every stochastic component draws from a logical call key (ints and short
strings) instead of sharing mutable stream state.  Call keys are assigned when
work is scheduled, not when it runs, so serial and thread-parallel execution
produce bit-identical draws.

``derive_rng(*parts)`` returns a ``KeyedDraws``: a counter-based source in the
style of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC
2011).  Draw ``i`` of a key is word ``i % 8`` of the blake2b hash of the key
and the block counter ``i // 8``, so a draw costs one hash per eight draws and
no generator state is built.  The search core (proposer, judge) takes its
scalar draws this way.  Code that draws in bulk blocks (the bandit and regret
laboratory) calls ``.generator()``, which builds the PCG64 ``Generator``
seeded from the same key.
"""
from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from statistics import NormalDist

import numpy as np

_MASK64 = (1 << 64) - 1
_WORDS = struct.Struct("<8Q")  # one 64-byte blake2b digest
_COUNTER = struct.Struct("<Q")
_UNIT = 2.0 ** -53
_inv_cdf = NormalDist().inv_cdf


@lru_cache(maxsize=1024)
def _str_to_int(part: str) -> int:
    digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _part_to_int(part) -> int:
    if type(part) is int:  # the common case; bool is a subclass, not int
        return part & _MASK64
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

    __slots__ = ("entropy", "_key", "_words", "_drawn")

    def __init__(self, entropy: tuple[int, ...]):
        self.entropy = entropy
        # every hashed message is 8 bytes per key part plus an 8-byte block
        # counter, so distinct (key, block) pairs never hash the same bytes
        self._key = struct.pack(f"<{len(entropy)}Q", *entropy)
        self._words: tuple[int, ...] = ()
        self._drawn = 0

    def _next_bits(self) -> int:
        """The next 53-bit draw."""
        i = self._drawn
        self._drawn = i + 1
        if i % 8 == 0:
            block = hashlib.blake2b(self._key + _COUNTER.pack(i // 8),
                                    digest_size=64).digest()
            self._words = _WORDS.unpack(block)
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
    return KeyedDraws(tuple(map(_part_to_int, parts)))
