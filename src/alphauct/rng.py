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
``Generator`` seeded from the same key; ``kernel.pcg64_rows`` gives the
states of many such generators at once, for the bandit step loop.
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
    if isinstance(part, str):  # the next most common: a short tag
        return _str_to_int(part)
    if isinstance(part, (bool,)):
        raise TypeError("bool is not a valid rng key part")
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
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
