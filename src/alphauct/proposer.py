"""Scripted action proposer over fixture policies.

Proposals are drawn per screen from the fixture's ``[policy]`` weights over
canonical actions, then rendered as one of the canonical's surface spellings
(``GuiGraphSpec.surfaces_of``) — so the stream looks like raw GUI strings and
exercises normalization.  One quirk is modeled deliberately, with a knob
from ``envs.ProposerParams``: *mode collapse* (with probability
``duplicate_rate`` a draw repeats an earlier draw's canonical, possibly under
a different spelling).  Past iteration ``infeasible_after`` (if non-zero) the
proposer declares the task infeasible.

Every draw is keyed by (iteration, leaf, slot, draw): each proposal takes two
or three scalar counter-based draws under its own key, so proposal streams are
reproducible and independent of scheduling, and no numpy generator is built.
A ``propose`` call derives its key prefix once with ``rng.derive_rng``; each
proposal slot ``j`` then hashes once, with ``KeyedDraws.child_words(j)``, and
takes its draws from those words with the arithmetic of
``KeyedDraws.random`` and ``integers``, so the draws equal those of
``call.child(j)``.  The weighted draw reads the screen's running weight
sums from ``GuiGraphSpec.proposal_table``, built with the spec.  Duplicates
are left in the returned list: expansion drops a repeated one-atom proposal
by its normalized key before the action is ever played.
"""
from __future__ import annotations

from bisect import bisect_right

from .envs import GuiGraphSpec, ProposerParams
from .rng import _UNIT, derive_rng


class TaskInfeasible(RuntimeError):
    """Raised when the proposer declares the task unreachable."""


def proposer_from_fixture(spec: GuiGraphSpec, seed: int = 0,
                          **overrides) -> "SimProposer":
    """Build the proposer a fixture describes; ``overrides`` replace fields
    of its ``ProposerParams`` through ``_replace``, which checks them like
    the constructor: an unknown name raises ``TypeError``, a value out of
    range ``ValueError``."""
    params = spec.proposer._replace(**overrides) if overrides else spec.proposer
    return SimProposer(spec, params, seed)


class SimProposer:
    """Draws from ``spec``'s policy under ``params``; ``ctx`` is the
    fixture's alias map, which the search normalizes proposals with."""

    def __init__(self, spec: GuiGraphSpec, params: ProposerParams,
                 seed: int = 0):
        self.spec = spec
        self.params = params
        self.seed = seed
        self.ctx = spec.alias_context()

    def propose(self, screen: str, k: int, *, iteration: int, leaf: int,
                slot: tuple[int, int] | None = None) -> list[str]:
        """``k`` surface action strings for ``screen``.

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
        table = self.spec.proposal_table(screen)
        if table is None:
            return []
        cum, total, surfaces = table
        dup_rate = p.duplicate_rate
        phase = (0, 0, 0) if slot is None else (1, slot[0], slot[1])
        call = derive_rng(self.seed, "prop", iteration, leaf, *phase)
        picks: list[int] = []  # entry index per draw, for duplicate sourcing
        out: list[str] = []
        for j in range(k):
            # draw d of slot j is the 53 bits words[d] >> 11 of call.child(j)
            words = call.child_words(j)
            d = 0
            copy = False
            if j > 0 and dup_rate > 0:
                copy = (words[0] >> 11) * _UNIT < dup_rate
                d = 1
            if copy:
                pick = picks[((words[d] >> 11) * j) >> 53]
            else:
                pick = bisect_right(cum, (words[d] >> 11) * _UNIT * total)
            spellings = surfaces[pick]
            picks.append(pick)
            out.append(spellings[((words[d + 1] >> 11) * len(spellings)) >> 53])
        return out
