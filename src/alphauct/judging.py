"""Sibling-set evaluation and the reflection value predictor.

Judge calls carry two noise components: per-call *shared offset* (the judge
being generous or harsh on that call as a whole) and per-item noise.
Comparative judging scores the whole sibling set in one call, so the shared
offset shifts every sibling identically and cancels out of within-set
rankings; independent judging makes one call per sibling and the offsets do
not cancel.  ``SimJudge`` scores against fixture ground truth with both
components controllable, plus an optional per-item preparation latency for
parallelism experiments.

The value predictor models iteration-over-iteration reflection quality with a
single knob ``rho``: the point prediction is the conditional mean, and the
realized outcome adds bounded zero-mean noise with variance ``rho * sigma_x2``
(``sigma_x2`` being the blind, rho=1 outcome variance).  rho=0 is perfect
value memory, rho=1 is no usable memory.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .rng import derive_rng
from .tree import ActionChunk

COMPARATIVE = "comparative"
INDEPENDENT = "independent"
JUDGE_MODES = (COMPARATIVE, INDEPENDENT)


class JudgeFailure(RuntimeError):
    """A judge call failed; the iteration that issued it should be aborted.

    The failure is retryable: a later iteration re-proposes and re-judges
    under fresh call keys, so a transient fault costs one iteration only.
    """

TWO_POINT = "two_point"
UNIFORM = "uniform"
NOISE_KINDS = (TWO_POINT, UNIFORM)


@dataclass(frozen=True)
class JudgeResult:
    scores: tuple[float, ...]
    mode: str


@dataclass(frozen=True)
class SimJudgeSpec:
    noise_std: float = 0.0
    shared_offset_std: float = 0.0
    latency_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_std < 0 or self.shared_offset_std < 0 or self.latency_s < 0:
            raise ValueError("judge noise/offset/latency must be >= 0")


def _clamp(x: float) -> float:
    return max(-1.0, min(1.0, x))


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
        noise = self.spec.noise_std * rng.standard_normal(len(prepared))
        return tuple(_clamp(self._true(p) + offset + eps)
                     for p, eps in zip(prepared, noise))

    def score_one(self, prepared: str, instruction: str, key) -> float:
        rng = derive_rng(self.spec.seed, "judge-one", *key)
        offset = self.spec.shared_offset_std * rng.standard_normal()
        eps = self.spec.noise_std * rng.standard_normal()
        return _clamp(self._true(prepared) + offset + eps)


def _prepare_all(parent_obs, siblings, judge, call_key,
                 pool: Executor | None):
    items = list(siblings)
    if pool is not None:
        futs = [pool.submit(judge.prepare, parent_obs, chunk, obs,
                            (*call_key, i))
                for i, (chunk, obs) in enumerate(items)]
        return [f.result() for f in futs]
    return [judge.prepare(parent_obs, chunk, obs, (*call_key, i))
            for i, (chunk, obs) in enumerate(items)]


def judge_comparative(parent_obs, siblings: Sequence[tuple[ActionChunk, object]],
                      instruction: str, judge, *, call_key: tuple = (0,),
                      pool: Executor | None = None) -> JudgeResult:
    """Score a sibling set in one joint call (shared offset cancels within
    the set).  ``siblings`` is a sequence of (chunk, observation) pairs."""
    if not siblings:
        raise ValueError("empty sibling set")
    prepared = _prepare_all(parent_obs, siblings, judge, call_key, pool)
    scores = judge.score_set(prepared, instruction, tuple(call_key))
    return JudgeResult(tuple(float(s) for s in scores), COMPARATIVE)


def judge_independent_set(parent_obs,
                          siblings: Sequence[tuple[ActionChunk, object]],
                          instruction: str, judge, *, call_key: tuple = (0,),
                          pool: Executor | None = None) -> JudgeResult:
    """Score each sibling in its own isolated call (ablation path).

    Sibling ``i`` is prepared and scored under key ``(*call_key, i)``; each
    call draws its own offset, so nothing is shared with the sibling's
    set-mates, which is exactly what the comparative mode's joint call buys.
    The pool only parallelizes the per-item preparation step.
    """
    if not siblings:
        raise ValueError("empty sibling set")
    prepared = _prepare_all(parent_obs, siblings, judge, call_key, pool)
    scores = tuple(float(judge.score_one(p, instruction, (*call_key, i)))
                   for i, p in enumerate(prepared))
    return JudgeResult(scores, INDEPENDENT)


# -- reflection value predictor ---------------------------------------------


@dataclass(frozen=True)
class PredictorSpec:
    """Reflection-informed predictor family.

    rho:       residual fraction in [0, 1]; 0 = perfect memory, 1 = blind.
    sigma_x2:  blind outcome variance (the rho = 1 residual variance).
    noise:     bounded noise shape; `two_point` (+-s) realizes the residual
               variance exactly, `uniform` spreads it over [-s*sqrt(3), s*sqrt(3)].
    """

    rho: float
    sigma_x2: float
    noise: str = TWO_POINT

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if self.sigma_x2 < 0:
            raise ValueError("sigma_x2 must be >= 0")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")

    @property
    def residual_var(self) -> float:
        return self.rho * self.sigma_x2

    @property
    def noise_halfwidth(self) -> float:
        """Support half-width of the residual noise."""
        s = math.sqrt(self.residual_var)
        return s if self.noise == TWO_POINT else s * math.sqrt(3.0)


def residual_noise(u, s: float, kind: str):
    """Map uniform(0,1) variates ``u`` (a scalar or an array) to bounded
    zero-mean residuals with standard deviation ``s``: ``two_point`` gives
    +-s, ``uniform`` spreads over [-s*sqrt(3), s*sqrt(3)]."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if s == 0.0:
        return np.zeros_like(u)
    if kind == TWO_POINT:
        return np.where(u >= 0.5, s, -s)
    return s * math.sqrt(3.0) * (2.0 * u - 1.0)


def sample_outcome(spec: PredictorSpec, mean: float, rng) -> tuple[float, float]:
    """(prediction, outcome): the prediction is the conditional mean, and the
    outcome adds a bounded residual with variance ``spec.residual_var``.

    Consumes exactly one uniform draw from ``rng`` regardless of parameters,
    so scalar and vectorized simulations share noise streams.
    """
    theta = float(mean)
    u = float(rng.random())
    s = math.sqrt(spec.residual_var)
    return theta, theta + float(residual_noise(u, s, spec.noise))
