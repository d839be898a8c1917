"""Keyed draws: same key same draws, distinct keys distinct draws, the
ranges and moments of the scalar draws, string hashing stability, key-type
policing, and ``.generator()`` as the PCG64 stream the key always seeded."""
import hashlib
import statistics

import numpy as np
import pytest

from alphauct.rng import derive_rng


def draws(*key, n=12):
    """``n`` scalar draws of every kind, interleaved, under one key."""
    rng = derive_rng(*key)
    out = []
    for i in range(n):
        out += [rng.random(), rng.integers(0, 1000 + i), rng.standard_normal()]
    return out


def test_same_key_same_stream():
    assert draws(3, "judge", 7) == draws(3, "judge", 7)
    assert np.array_equal(derive_rng(3, "judge", 7).generator().random(16),
                          derive_rng(3, "judge", 7).generator().random(16))


def test_different_keys_differ():
    base = draws(3, "judge", 7)
    gen = derive_rng(3, "judge", 7).generator().random(8)
    for key in ((3, "judge", 8), (4, "judge", 7), (3, "jury", 7),
                (3, "judge"), (3, "judge", 7, 0), (7, "judge", 3)):
        assert draws(*key) != base, key
        assert not np.array_equal(gen, derive_rng(*key).generator().random(8)), key


def test_draws_past_one_hash_block_stay_distinct():
    """Draw i and draw i + 8 come from different counter blocks."""
    rng = derive_rng(5, "blocks")
    us = [rng.random() for _ in range(64)]
    assert len(set(us)) == 64


def test_uniforms_and_integers_in_range():
    for seed in range(2000):
        rng = derive_rng(seed, "range")
        u = rng.random()
        assert 0.0 <= u < 1.0 and isinstance(u, float)
        k = rng.integers(-2, 3)
        assert -2 <= k < 3 and isinstance(k, int)
        assert rng.integers(4, 5) == 4
    with pytest.raises(ValueError):
        derive_rng(0).integers(3, 3)


def test_scalar_draw_moments_over_many_keys():
    n = 10_000
    us = [derive_rng(s, "unif").random() for s in range(n)]
    assert statistics.mean(us) == pytest.approx(0.5, abs=0.01)
    assert statistics.variance(us) == pytest.approx(1 / 12, rel=0.03)
    zs = [derive_rng(s, "norm").standard_normal() for s in range(n)]
    assert statistics.mean(zs) == pytest.approx(0.0, abs=0.04)
    assert statistics.variance(zs) == pytest.approx(1.0, rel=0.04)
    ks = [derive_rng(s, "int").integers(0, 4) for s in range(n)]
    assert all(c == pytest.approx(n / 4, rel=0.08)
               for c in np.bincount(ks, minlength=4))


def test_generator_is_the_pcg64_of_the_key():
    """``.generator()`` is bit for bit the generator every key seeded before
    the keyed draws existed: PCG64 over SeedSequence(64-bit key parts),
    strings entering as the little-endian 8-byte blake2b digest."""
    word = int.from_bytes(hashlib.blake2b(b"pull-noise", digest_size=8).digest(),
                          "little")
    for key, entropy in (((0, "pull-noise", 17), [0, word, 17]),
                         ((-1, 2**70 + 3), [2**64 - 1, 3])):
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        gen = derive_rng(*key).generator()
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.random(32), ref.random(32))


def test_string_parts_hash_not_intern():
    """Equal strings key equal draws regardless of object identity."""
    s1 = "pull-" + "noise"
    s2 = "".join(["pull", "-", "noise"])
    assert s1 is not s2
    assert draws(s1, 1) == draws(s2, 1)


def test_numpy_integers_accepted():
    assert draws(np.int64(5), "x") == draws(5, "x")
    assert np.array_equal(derive_rng(np.int64(5), "x").generator().random(4),
                          derive_rng(5, "x").generator().random(4))


def test_invalid_key_parts_rejected():
    with pytest.raises(ValueError):
        derive_rng()
    with pytest.raises(TypeError):
        derive_rng(True)  # bool would silently collide with 1
    with pytest.raises(TypeError):
        derive_rng(np.bool_(True))
    with pytest.raises(TypeError):
        derive_rng(1.5)
    with pytest.raises(TypeError):
        derive_rng(("a", "b"))


def test_negative_ints_wrap_into_64_bits():
    assert draws(-1, "x") == draws((1 << 64) - 1, "x")
