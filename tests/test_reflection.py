"""Reflection distillation: a previous best path of (chunk, q) steps becomes a
map from normalized atom keys to their best non-negative q."""
import pytest

from alphauct.search import SimReflector
from alphauct.tree import ActionChunk


def step(key: str, q: float) -> tuple[ActionChunk, float]:
    return ActionChunk((key,), key), q


def test_first_iteration_reflection_is_empty():
    assert SimReflector().reflect([]) == {}


def test_boost_keeps_only_high_value_steps():
    prev = [step("good", 0.9), step("bad", -0.3), step("zero", 0.0),
            step("fine", 0.6)]
    r = SimReflector().reflect(prev)
    assert set(r) == {"good", "zero", "fine"}  # q >= 0 only
    assert r["good"] == pytest.approx(0.9)


def test_chunked_steps_boost_each_atom_key():
    chunked = (ActionChunk(("open a", "open b"), "open_a;open_b"), 0.7)
    r = SimReflector().reflect([chunked])
    assert r == {"open_a": pytest.approx(0.7), "open_b": pytest.approx(0.7)}


def test_repeated_key_takes_best_emphasis():
    r = SimReflector().reflect([step("a", 0.2), step("a", 0.8)])
    assert r["a"] == pytest.approx(0.8)
