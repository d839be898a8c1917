"""Synthetic environments: deterministic GUI screen graphs and bandits.

Screen graphs model app navigation: screens connected by canonical actions,
each canonical action carrying several surface spellings (aliases).  Stepping
looks an edge up under the dedup key, ``expansion.normalize_action`` over
``alias_context()``, so actions that expansion treats as one lead to the
same screen; unknown, blank or inapplicable actions are self-loops.  Goal
and trap screens are absorbing: an observation is the screen and its
``terminal`` (``success`` or ``failure``); the judge scores screens.
Environments clone cheaply and exactly, which is what the snapshot
positioning strategy relies on.  Each screen's proposal table (the policy's
running weight sums and surface spellings) is built once, with the spec.

No spec here is a dataclass.  ``GuiGraphSpec`` is a frozen ``__slots__``
class; ``ProposerParams`` and ``BanditSpec`` are checked named tuples
(``tree.CheckedTuple``), whose constructor, ``_make`` and ``_replace`` all
run the check, and which iterate, index and compare equal like plain
tuples.

Fixture files are plain text, parsed and checked by ``parse_fixture``,
which loads the parser, ``fixture`` (the file format is in its
docstring), on its first call.
"""
from __future__ import annotations

import math
from itertools import accumulate
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .expansion import normalize_action
from .tree import CheckedTuple

TERMINAL_NONE = "none"
TERMINAL_SUCCESS = "success"
TERMINAL_FAILURE = "failure"

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


class FixtureError(ValueError):
    pass


class Observation(NamedTuple):
    screen: str
    terminal: str = TERMINAL_NONE


class ProposalTable(NamedTuple):
    """One screen's ``[policy]`` entries, ready for weighted draws."""

    cum: tuple[float, ...]  # running sums of the weights
    total: float  # ``cum[-1]``
    surfaces: tuple[tuple[str, ...], ...]  # ``surfaces_of`` per canonical


class _ProposerFields(NamedTuple):
    duplicate_rate: float = 0.0  # chance a draw repeats an earlier draw
    infeasible_after: int = 0  # declare infeasible past this iteration; 0 = never


class ProposerParams(CheckedTuple, _ProposerFields):
    """The scripted proposer's knobs (see ``proposer``): a fixture's
    ``[proposer]`` section sets them and a search may override them.  A
    checked named tuple: the constructor, ``_make`` and ``_replace`` all
    reject a value out of range."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if type(self.infeasible_after) is not int:
            raise ValueError(f"infeasible_after must be a whole number, "
                             f"got {self.infeasible_after!r}")
        if not self.infeasible_after >= 0:
            raise ValueError("infeasible_after must be >= 0")
        return self


class GuiGraphSpec:
    """A checked screen graph and its derived tables.  ``parse_fixture``
    builds and checks every spec; the constructor only stores the fields
    and builds the tables that stepping and proposing read.  Immutable:
    assigning or deleting an attribute raises ``AttributeError``.  Two
    specs compare equal only if they are the same object."""

    _FIELDS = ("screens", "start", "goals", "traps", "edges", "aliases",
               "resolver", "values", "instruction", "policy", "proposer")
    __slots__ = _FIELDS + ("_obs_cache", "_proposals")

    screens: tuple[str, ...]
    start: str
    goals: frozenset[str]
    traps: frozenset[str]
    edges: Mapping[tuple[str, str], str]  # (screen, canonical) -> screen
    aliases: Mapping[str, tuple[str, ...]]  # canonical -> surface spellings
    resolver: Mapping[str, str]  # spelling or its lexical key -> canonical
    values: Mapping[str, float]
    instruction: str
    policy: Mapping[str, tuple[tuple[str, float], ...]]
    proposer: ProposerParams

    def __init__(self, screens, start, goals, traps, edges, aliases, resolver,
                 values, instruction, policy, proposer):
        fields = (screens, start, goals, traps, edges, aliases, resolver,
                  values, instruction, policy, proposer)
        for name, value in zip(self._FIELDS, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_obs_cache", self._build_obs())
        object.__setattr__(self, "_proposals", self._build_proposals())

    def __setattr__(self, name, value):
        raise AttributeError(f"GuiGraphSpec is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GuiGraphSpec is immutable: cannot delete "
                             f"{name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._FIELDS)
        return f"GuiGraphSpec({fields})"

    # derived tables -------------------------------------------------------

    def _build_obs(self):
        return {s: Observation(s, self.terminal_of(s)) for s in self.screens}

    def _build_proposals(self):
        tables = {}
        # ``parse_fixture`` stores no empty entry list
        for screen, entries in self.policy.items():
            cum = tuple(accumulate(float(w) for _, w in entries))
            tables[screen] = ProposalTable(
                cum, cum[-1],
                tuple(self.surfaces_of(canon) for canon, _ in entries))
        return tables

    # public helpers ---------------------------------------------------------

    def terminal_of(self, screen: str) -> str:
        if screen in self.goals:
            return TERMINAL_SUCCESS
        if screen in self.traps:
            return TERMINAL_FAILURE
        return TERMINAL_NONE

    def alias_context(self) -> dict[str, str]:
        """Alias map for ``expansion.normalize_action``: every surface
        spelling, and its lexical key, mapped to its canonical id."""
        return dict(self.resolver)

    def surfaces_of(self, canon: str) -> tuple[str, ...]:
        return self.aliases.get(canon) or (canon,)

    def proposal_table(self, screen: str) -> ProposalTable | None:
        """The screen's proposal table; None if its policy is empty."""
        return self._proposals.get(screen)


class GuiGraphEnv:
    """Mutable cursor over a GuiGraphSpec.  Cloning copies the cursor; the
    spec itself is immutable and shared."""

    def __init__(self, spec: GuiGraphSpec):
        self.spec = spec
        self._screen = spec.start

    @property
    def instruction(self) -> str:
        return self.spec.instruction

    @property
    def screen(self) -> str:
        return self._screen

    def observe(self) -> Observation:
        return self.spec._obs_cache[self._screen]

    def step(self, action: str) -> None:
        """Apply one surface action; ``observe`` shows where it led.  An
        unrecognized action's key names no edge: each canonical id is its
        own key."""
        if self.observe().terminal != TERMINAL_NONE or not action.strip():
            return  # absorbing, or a blank action: self-loop
        key = normalize_action(action, self.spec.resolver)
        self._screen = self.spec.edges.get((self._screen, key), self._screen)

    def clone(self) -> "GuiGraphEnv":
        dup = GuiGraphEnv(self.spec)
        dup._screen = self._screen
        return dup


# -- fixture files ------------------------------------------------------------


def parse_fixture(text: str, name: str = "<string>") -> GuiGraphSpec:
    """``fixture.parse_fixture``: parse and check fixture text."""
    from .fixture import parse_fixture
    return parse_fixture(text, name)


def builtin_fixtures() -> tuple[str, ...]:
    return tuple(sorted(p.stem for p in _FIXTURE_DIR.glob("*.env")))


def load_fixture(name: str) -> GuiGraphSpec:
    """Load a built-in fixture by name, or any fixture file by path; a file
    that is not UTF-8 text is an error at its first undecodable line."""
    path = Path(name)
    if not path.suffix:
        path = _FIXTURE_DIR / f"{name}.env"
    if not path.exists():
        raise FixtureError(f"no fixture {name!r} (builtins: "
                           f"{', '.join(builtin_fixtures())})")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise FixtureError(f"{path.stem}:{lineno}: not UTF-8 text") from None
    return parse_fixture(text, name=path.stem)


# -- bandit family ------------------------------------------------------------

TWO_POINT = "two_point"
UNIFORM = "uniform"
NOISE_KINDS = (TWO_POINT, UNIFORM)


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


class _BanditFields(NamedTuple):
    means: tuple[float, ...]
    sigma_x2: float = 0.0
    rho: float = 1.0
    noise: str = TWO_POINT


class BanditSpec(CheckedTuple, _BanditFields):
    """K-armed bandit whose pull is the arm mean plus a bounded residual.

    rho:       residual fraction in [0, 1]; the share of the blind outcome
               variance that value prediction leaves unexplained.
               0 = perfect memory, 1 = blind.
    sigma_x2:  blind outcome variance (the rho = 1 residual variance).
    noise:     residual shape; ``two_point`` (+-s) realizes the residual
               variance exactly, ``uniform`` spreads it over
               [-s*sqrt(3), s*sqrt(3)].

    Rewards live in [0, 1] by construction (checked against the noise support
    at the blind rho = 1 width, so tightening rho never violates the bound).
    A checked named tuple: the constructor, ``_make`` and ``_replace`` all
    run these checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.means:
            raise ValueError("bandit needs at least one arm")
        if not all(math.isfinite(m) for m in self.means):
            raise ValueError(f"arm means must be finite, got {self.means!r}")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not 0.0 <= self.sigma_x2 < math.inf:
            raise ValueError("sigma_x2 must be finite and >= 0")
        best = max(self.means)
        if sum(1 for m in self.means if m == best) != 1:
            raise ValueError("bandit needs a unique best arm")
        half = math.sqrt(self.sigma_x2)
        if self.noise == UNIFORM:
            half *= math.sqrt(3.0)
        for m in self.means:
            if m - half < 0.0 or m + half > 1.0:
                raise ValueError(
                    f"arm mean {m} with noise half-width {half:.4f} leaves [0, 1]")
        return self

    @property
    def k(self) -> int:
        return len(self.means)

    @property
    def best_arm(self) -> int:
        return max(range(self.k), key=lambda i: self.means[i])

    @property
    def residual_var(self) -> float:
        return self.rho * self.sigma_x2

    @property
    def gaps(self) -> tuple[float, ...]:
        """Positive gaps of the suboptimal arms, in arm order."""
        best = self.means[self.best_arm]
        return tuple(best - m for m in self.means if best - m > 0)


def bandit_pull(spec: BanditSpec, arm: int, rng) -> float:
    """Reward of one pull.  Consumes exactly one uniform draw from ``rng``
    whatever the arm, so pull streams depend only on pull order."""
    if not 0 <= arm < spec.k:
        raise ValueError(f"arm {arm} out of range")
    u = float(rng.random())
    s = math.sqrt(spec.residual_var)
    return spec.means[arm] + float(residual_noise(u, s, spec.noise))
