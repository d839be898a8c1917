"""Sibling-set evaluation.

Judge calls carry two noise components: per-call *shared offset* (the judge
being generous or harsh on that call as a whole) and per-item noise.
Comparative judging scores the whole sibling set in one call, so the shared
offset shifts every sibling identically and cancels out of within-set
rankings; independent judging makes one call per sibling and the offsets do
not cancel.  Both return a plain tuple of scores, in sibling order.
``SimJudge`` scores against fixture ground truth with both components
controllable, plus an optional per-item preparation latency for parallelism
experiments.  Its noise is scalar counter-based normals from
``rng.derive_rng`` keyed by the judge call, one for the offset and then one
per item, so scores do not depend on scheduling.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .rng import derive_rng
from .tree import ActionChunk

if TYPE_CHECKING:
    from concurrent.futures import Executor

COMPARATIVE = "comparative"
INDEPENDENT = "independent"
JUDGE_MODES = (COMPARATIVE, INDEPENDENT)


class JudgeFailure(RuntimeError):
    """A judge call failed; the iteration that issued it should be aborted.

    The failure is retryable: a later iteration re-proposes and re-judges
    under fresh call keys, so a transient fault costs one iteration only.
    """


@dataclass(frozen=True)
class SimJudgeSpec:
    """``SimJudge``'s knobs, checked on construction and on every
    ``dataclasses.replace``: the standard deviations of the per-item noise
    and of the per-call shared offset, the sleep of each item's
    preparation (seconds), and the seed its draws are keyed by."""

    noise_std: float = 0.0
    shared_offset_std: float = 0.0
    latency_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(x) and x >= 0 for x in
                   (self.noise_std, self.shared_offset_std, self.latency_s)):
            raise ValueError("judge noise/offset/latency must be finite "
                             "and >= 0")


def _clamp(x: float) -> float:
    """``max(-1.0, min(1.0, x))``, NaN included, without the two calls."""
    return x if -1.0 <= x <= 1.0 else (-1.0 if x < -1.0 else 1.0)


class SimJudge:
    """Ground-truth judge: score = true value + shared call offset + noise,
    clamped to [-1, 1].  All draws are keyed by logical call keys, so results
    are independent of scheduling."""

    def __init__(self, spec: SimJudgeSpec, true_values: Mapping[str, float]):
        self.spec = spec
        self.true_values = dict(true_values)

    def prepare(self, parent_obs, chunk: ActionChunk, obs, key) -> str:
        """Per-item summarization step; carries the configured latency."""
        if self.spec.latency_s > 0:
            time.sleep(self.spec.latency_s)
        return obs.screen

    def _true(self, screen: str) -> float:
        return float(self.true_values.get(screen, 0.0))

    def score_set(self, prepared: Sequence[str], instruction: str,
                  key) -> tuple[float, ...]:
        """One joint call: a single shared offset perturbs all items."""
        rng = derive_rng(self.spec.seed, "judge-set", *key)
        offset = self.spec.shared_offset_std * rng.standard_normal()
        noise_std = self.spec.noise_std
        return tuple([_clamp(self._true(p) + offset
                             + noise_std * rng.standard_normal())
                      for p in prepared])

    def score_one(self, prepared: str, instruction: str, key) -> float:
        rng = derive_rng(self.spec.seed, "judge-one", *key)
        offset = self.spec.shared_offset_std * rng.standard_normal()
        eps = self.spec.noise_std * rng.standard_normal()
        return _clamp(self._true(prepared) + offset + eps)


def _prepare_all(parent_obs, siblings, judge, call_key,
                 pool: Executor | None):
    prepare = judge.prepare
    if pool is not None:
        futs = [pool.submit(prepare, parent_obs, chunk, obs, (*call_key, i))
                for i, (chunk, obs) in enumerate(siblings)]
        return [f.result() for f in futs]
    return [prepare(parent_obs, chunk, obs, (*call_key, i))
            for i, (chunk, obs) in enumerate(siblings)]


def judge_comparative(parent_obs, siblings: Sequence[tuple[ActionChunk, object]],
                      instruction: str, judge, *, call_key: tuple = (0,),
                      pool: Executor | None = None) -> tuple[float, ...]:
    """Score a sibling set in one joint call (shared offset cancels within
    the set).  ``siblings`` is a sequence of (chunk, observation) pairs."""
    if not siblings:
        raise ValueError("empty sibling set")
    prepared = _prepare_all(parent_obs, siblings, judge, call_key, pool)
    scores = judge.score_set(prepared, instruction, tuple(call_key))
    return tuple([float(s) for s in scores])


def judge_independent_set(parent_obs,
                          siblings: Sequence[tuple[ActionChunk, object]],
                          instruction: str, judge, *, call_key: tuple = (0,),
                          pool: Executor | None = None) -> tuple[float, ...]:
    """Score each sibling in its own isolated call (ablation path).

    Sibling ``i`` is prepared and scored under key ``(*call_key, i)``; each
    call draws its own offset, so nothing is shared with the sibling's
    set-mates, which is exactly what the comparative mode's joint call buys.
    The pool only parallelizes the per-item preparation step.
    """
    if not siblings:
        raise ValueError("empty sibling set")
    prepared = _prepare_all(parent_obs, siblings, judge, call_key, pool)
    return tuple([float(judge.score_one(p, instruction, (*call_key, i)))
                  for i, p in enumerate(prepared)])

