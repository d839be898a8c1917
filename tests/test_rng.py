"""Keyed draws: same key same draws, distinct keys distinct draws, the
ranges and moments of the scalar draws, string hashing stability, key-type
policing, ``.generator()`` as the PCG64 stream the key always seeded,
``child`` as the key extended by one part, and ``child_words`` as that
child's first hash block."""
import hashlib
import statistics

import numpy as np
import pytest

from alphauct.rng import derive_rng


def take(rng, n=12):
    """``n`` scalar draws of every kind, interleaved, from ``rng``."""
    out = []
    for i in range(n):
        out += [rng.random(), rng.integers(0, 1000 + i), rng.standard_normal()]
    return out


def draws(*key, n=12):
    """``take`` under one key."""
    return take(derive_rng(*key), n)


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


@pytest.mark.parametrize("key", [(0,), (3, "prop", 7, 2, 0, 0, 0),
                                 (-5, "judge", 2**70 + 1), ("x", -1)])
def test_child_equals_the_extended_key(key):
    """24 interleaved draws cross two hash blocks; the parent's own draws,
    before or after, do not disturb its children."""
    parent = derive_rng(*key)
    before = take(parent, 3)
    for part in (0, 1, 7, -1, 2**64 + 5, "slot"):
        child, direct = parent.child(part), derive_rng(*key, part)
        assert child.entropy == direct.entropy
        assert take(child, 8) == take(direct, 8)
        assert child.generator().bit_generator.state == \
            direct.generator().bit_generator.state
    fresh = derive_rng(*key)
    assert before + take(parent, 3) == take(fresh, 3) + take(fresh, 3)
    assert take(parent.child(1).child("x"), 8) == draws(*key, 1, "x", n=8)


def test_child_rejects_invalid_parts():
    parent = derive_rng(0, "prop")
    for part in (True, np.bool_(False), 1.5, ("a",)):
        with pytest.raises(TypeError):
            parent.child(part)


@pytest.mark.parametrize("key", [(0,), (3, "prop", 7, 2, 1, 4, 1), ("x", -1)])
def test_child_words_are_the_childs_first_draws(key):
    """Word ``i`` of ``child_words(part)``, shifted to 53 bits, is draw ``i``
    of ``child(part)``, as a uniform and as an integer, for int, str and
    negative parts; the parent's own draws do not move them."""
    parent = derive_rng(*key)
    for part in (0, 5, -1, -(2**63), 2**64 + 5, "slot", np.int64(3)):
        words = parent.child_words(part)
        assert len(words) == 8 and all(0 <= w < 2**64 for w in words)
        child = parent.child(part)
        uniforms = [child.random() for _ in range(8)]
        assert uniforms == [(w >> 11) * 2.0 ** -53 for w in words]
        child = parent.child(part)
        for i, n in enumerate((1, 2, 3, 7, 10, 1000, 2**40, 5)):
            assert child.integers(0, n) == ((words[i] >> 11) * n) >> 53
        take(parent, 2)
        assert parent.child_words(part) == words
    with pytest.raises(TypeError):
        parent.child_words(True)
