"""Scripted action proposer over fixture policies.

Proposals are drawn per screen from fixture-declared weights over canonical
actions, then rendered as one of the canonical's surface spellings — so the
stream looks like raw GUI strings and exercises normalization.  Two quirks
are modeled deliberately: *mode collapse* (with probability ``duplicate_rate``
a draw repeats an earlier draw's canonical, possibly under a different
spelling) and *reflection following* (an action whose normalized key maps to
boost ``b`` in the reflection has its weight multiplied by
``1 + reflection_gain * b``).

Every draw is keyed by (iteration, leaf, slot, draw): each proposal takes two
or three scalar counter-based draws from ``rng.derive_rng`` under its own key,
so proposal streams are reproducible and independent of scheduling, and no
numpy generator is built.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

from .envs import GuiGraphSpec
from .expansion import NormalizationContext
from .rng import derive_rng


class TaskInfeasible(RuntimeError):
    """Raised when the proposer declares the task unreachable."""


@dataclass(frozen=True)
class ProposerSpec:
    weights: Mapping[str, tuple[tuple[str, float], ...]]  # screen -> (canonical, w)
    surfaces: Mapping[str, tuple[str, ...]]  # canonical -> spellings
    duplicate_rate: float = 0.0
    reflection_gain: float = 1.0
    infeasible_after: int = 0  # declare infeasible past this iteration; 0 = never
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if self.reflection_gain < 0:
            raise ValueError("reflection_gain must be >= 0")
        if self.infeasible_after < 0:
            raise ValueError("infeasible_after must be >= 0")


def proposer_from_fixture(spec: GuiGraphSpec, seed: int = 0,
                          **overrides) -> "SimProposer":
    """Build the proposer a fixture describes; ``overrides`` replace the
    fixture's proposer parameters (duplicate_rate etc.)."""
    params = dict(spec.proposer_params)
    params.update(overrides)
    pspec = ProposerSpec(
        weights=spec.policy,
        surfaces={c: spec.surfaces_of(c) for s in spec.policy for c, _ in spec.policy[s]},
        duplicate_rate=float(params.get("duplicate_rate", 0.0)),
        reflection_gain=float(params.get("reflection_gain", 1.0)),
        infeasible_after=int(params.get("infeasible_after", 0)),
        seed=seed)
    return SimProposer(pspec, spec.alias_context())


class SimProposer:
    def __init__(self, spec: ProposerSpec, ctx: NormalizationContext):
        self.spec = spec
        self.ctx = ctx

    def propose(self, screen: str, reflection, k: int, *, iteration: int,
                leaf: int, slot: tuple[int, int] | None = None) -> list[str]:
        """``k`` surface action strings for ``screen``.

        ``reflection`` maps normalized keys to boosts (None: no boost).
        ``slot`` is None for a node's first-atom batch and (candidate, step)
        for chunk-continuation draws; it only namespaces the rng keys.
        Screens with no policy entries yield no proposals (dead ends).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.spec.infeasible_after and iteration > self.spec.infeasible_after:
            raise TaskInfeasible(
                f"proposer gave up after iteration {self.spec.infeasible_after}")
        entries = self.spec.weights.get(screen, ())
        if not entries:
            return []
        weights = []
        for canon, w in entries:
            boost = 0.0
            if reflection is not None and self.spec.reflection_gain > 0:
                boost = reflection.get(canon, 0.0)
            weights.append(w * (1.0 + self.spec.reflection_gain * boost))
        cum = list(accumulate(weights))
        total = cum[-1]
        phase = (0, 0, 0) if slot is None else (1, slot[0], slot[1])
        draws: list[str] = []  # canonical per draw, for duplicate sourcing
        out: list[str] = []
        for j in range(k):
            rng = derive_rng(self.spec.seed, "prop", iteration, leaf,
                             phase[0], phase[1], phase[2], j)
            if j > 0 and self.spec.duplicate_rate > 0 and \
                    rng.random() < self.spec.duplicate_rate:
                canon = draws[rng.integers(0, j)]
            else:
                canon = entries[bisect_right(cum, rng.random() * total)][0]
            surfaces = self.spec.surfaces.get(canon) or (canon,)
            surface = surfaces[rng.integers(0, len(surfaces))]
            draws.append(canon)
            out.append(surface)
        return out
