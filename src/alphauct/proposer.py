"""Scripted action proposer over fixture policies.

Proposals are drawn per screen from the fixture's ``[policy]`` weights over
canonical actions, then rendered as one of the canonical's surface spellings
(``GuiGraphSpec.surfaces_of``) — so the stream looks like raw GUI strings and
exercises normalization.  Two quirks are modeled deliberately, with knobs
from ``envs.ProposerParams``: *mode collapse* (with probability
``duplicate_rate`` a draw repeats an earlier draw's canonical, possibly under
a different spelling) and *reflection following* (an action whose normalized
key maps to boost ``b`` in the reflection has its weight multiplied by
``1 + reflection_gain * b``).  Past iteration ``infeasible_after`` (if
non-zero) the proposer declares the task infeasible.

Every draw is keyed by (iteration, leaf, slot, draw): each proposal takes two
or three scalar counter-based draws under its own key, so proposal streams are
reproducible and independent of scheduling, and no numpy generator is built.
A ``propose`` call derives its key prefix once with ``rng.derive_rng`` and
extends it per proposal with ``KeyedDraws.child``.  Duplicates are left in
the returned list: expansion drops a repeated one-atom proposal by its
normalized key before the action is ever played.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate

from .envs import GuiGraphSpec, ProposerParams
from .rng import derive_rng


class TaskInfeasible(RuntimeError):
    """Raised when the proposer declares the task unreachable."""


def proposer_from_fixture(spec: GuiGraphSpec, seed: int = 0,
                          **overrides) -> "SimProposer":
    """Build the proposer a fixture describes; ``overrides`` replace fields
    of its ``ProposerParams`` (an unknown name raises ``TypeError``)."""
    return SimProposer(spec, replace(spec.proposer, **overrides), seed)


class SimProposer:
    """Draws from ``spec``'s policy under ``params``; ``ctx`` is the
    fixture's alias map, which the search normalizes proposals with."""

    def __init__(self, spec: GuiGraphSpec, params: ProposerParams,
                 seed: int = 0):
        self.spec = spec
        self.params = params
        self.seed = seed
        self.ctx = spec.alias_context()

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
        p = self.params
        if p.infeasible_after and iteration > p.infeasible_after:
            raise TaskInfeasible(
                f"proposer gave up after iteration {p.infeasible_after}")
        entries = self.spec.policy.get(screen, ())
        if not entries:
            return []
        weights = []
        for canon, w in entries:
            boost = 0.0
            if reflection is not None and p.reflection_gain > 0:
                boost = reflection.get(canon, 0.0)
            weights.append(w * (1.0 + p.reflection_gain * boost))
        cum = list(accumulate(weights))
        total = cum[-1]
        phase = (0, 0, 0) if slot is None else (1, slot[0], slot[1])
        call = derive_rng(self.seed, "prop", iteration, leaf, *phase)
        draws: list[str] = []  # canonical per draw, for duplicate sourcing
        out: list[str] = []
        for j in range(k):
            rng = call.child(j)
            if j > 0 and p.duplicate_rate > 0 and \
                    rng.random() < p.duplicate_rate:
                canon = draws[rng.integers(0, j)]
            else:
                canon = entries[bisect_right(cum, rng.random() * total)][0]
            surfaces = self.spec.surfaces_of(canon)
            surface = surfaces[rng.integers(0, len(surfaces))]
            draws.append(canon)
            out.append(surface)
        return out
