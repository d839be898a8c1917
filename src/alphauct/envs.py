"""Synthetic environments: deterministic GUI screen graphs and bandits.

Screen graphs model app navigation: screens connected by canonical actions,
each canonical action carrying several surface spellings (aliases).  Stepping
resolves a surface string to its canonical action; unknown or inapplicable
actions are harmless self-loops.  Goal and trap screens are absorbing: an
observation reports which one was entered (``terminal`` is ``success`` or
``failure``), and the judge, not the environment, scores screens.
Environments clone cheaply and exactly, which is what the snapshot
positioning strategy relies on.  Each screen's proposal table (the policy's
canonical ids, weights, running weight sums and surface spellings) is built
once, with the spec.

Fixture files are plain text, one section per bracketed header::

    [meta]        instruction <free text>
    [screens]     whitespace-separated screen ids
    [start]       single screen id
    [goals]       screen ids            [traps]  screen ids
    [edges]       <screen> <canonical> -> <screen>
    [aliases]     <canonical> = <surface> | <surface> | ...
    [values]      <screen> <float in [-1,1]>
    [policy]      <screen> <canonical> <weight>
    [proposer]    <key> <float>   (a ``ProposerParams`` field; infeasible_after
                                   takes a whole number)

'#' starts a comment.  Canonical ids must be lexical fixed points (lowercase,
no spaces); goal reachability from the start screen is checked at load.  An
unknown section or proposer key, a number that is malformed or not finite, or
a proposer value out of its ``ProposerParams`` range is an error naming the
fixture and the line.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .expansion import lexical_key

TERMINAL_NONE = "none"
TERMINAL_SUCCESS = "success"
TERMINAL_FAILURE = "failure"

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


class FixtureError(ValueError):
    pass


@dataclass(frozen=True)
class Observation:
    screen: str
    actions: tuple[str, ...]  # sorted surface strings available here
    terminal: str = TERMINAL_NONE


class ProposalTable(NamedTuple):
    """One screen's ``[policy]`` entries, ready for weighted draws."""

    canons: tuple[str, ...]
    weights: tuple[float, ...]
    cum: tuple[float, ...]  # running sums of ``weights``
    total: float  # ``cum[-1]``
    surfaces: tuple[tuple[str, ...], ...]  # ``surfaces_of`` per canonical


@dataclass(frozen=True)
class ProposerParams:
    """The scripted proposer's knobs (see ``proposer``): a fixture's
    ``[proposer]`` section sets them and a search may override them."""

    duplicate_rate: float = 0.0  # chance a draw repeats an earlier draw
    reflection_gain: float = 1.0  # weight multiplier per unit of boost
    infeasible_after: int = 0  # declare infeasible past this iteration; 0 = never

    def __post_init__(self):
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        gain = self.reflection_gain
        if not (gain >= 0 and math.isfinite(gain)):  # inf x 0 boost is NaN
            raise ValueError("reflection_gain must be >= 0 and finite")
        if type(self.infeasible_after) is not int:
            raise ValueError(f"infeasible_after must be a whole number, "
                             f"got {self.infeasible_after!r}")
        if not self.infeasible_after >= 0:
            raise ValueError("infeasible_after must be >= 0")


@dataclass(frozen=True)
class GuiGraphSpec:
    name: str
    screens: tuple[str, ...]
    start: str
    goals: frozenset[str]
    traps: frozenset[str]
    edges: Mapping[tuple[str, str], str]  # (screen, canonical) -> screen
    aliases: Mapping[str, tuple[str, ...]]  # canonical -> surface spellings
    values: Mapping[str, float]
    instruction: str = "reach the goal screen"
    policy: Mapping[str, tuple[tuple[str, float], ...]] = field(default_factory=dict)
    proposer: ProposerParams = ProposerParams()

    def __post_init__(self):
        known = set(self.screens)
        if len(known) != len(self.screens):
            raise FixtureError("duplicate screen ids")
        if self.start not in known:
            raise FixtureError(f"unknown start screen {self.start!r}")
        for s in self.goals | self.traps:
            if s not in known:
                raise FixtureError(f"terminal screen {s!r} not declared")
        if self.goals & self.traps:
            raise FixtureError("goal and trap sets overlap")
        if not self.goals:
            raise FixtureError("fixture declares no goal screen")
        terminal = self.goals | self.traps
        for (src, canon), dst in self.edges.items():
            if src not in known or dst not in known:
                raise FixtureError(f"edge {src!r}-[{canon}]->{dst!r} off the map")
            if src in terminal:
                raise FixtureError(f"terminal screen {src!r} has outgoing edges")
            if lexical_key(canon) != canon:
                raise FixtureError(f"canonical id {canon!r} is not normal form")
        edge_canons = {c for (_, c) in self.edges}
        for canon, surfaces in self.aliases.items():
            if canon not in edge_canons:
                raise FixtureError(f"alias for unused canonical {canon!r}")
            if not surfaces:
                raise FixtureError(f"empty alias list for {canon!r}")
        for screen, v in self.values.items():
            if screen not in known:
                raise FixtureError(f"value for unknown screen {screen!r}")
            if not -1.0 <= float(v) <= 1.0:
                raise FixtureError(f"screen value {v!r} outside [-1, 1]")
        for screen, entries in self.policy.items():
            if screen not in known:
                raise FixtureError(f"policy for unknown screen {screen!r}")
            for canon, w in entries:
                if (screen, canon) not in self.edges:
                    raise FixtureError(
                        f"policy action {canon!r} has no edge at {screen!r}")
                if not (w > 0 and math.isfinite(w)):
                    raise FixtureError(
                        "policy weights must be positive and finite")
        object.__setattr__(self, "_out", self._build_out())
        object.__setattr__(self, "_resolver", self._build_resolver())
        object.__setattr__(self, "_obs_cache", self._build_obs())
        object.__setattr__(self, "_proposals", self._build_proposals())
        self._check_reachable()

    # derived tables -------------------------------------------------------

    def _build_out(self):
        out: dict[str, list[tuple[str, str]]] = {s: [] for s in self.screens}
        for (src, canon), dst in sorted(self.edges.items()):
            out[src].append((canon, dst))
        return {s: tuple(v) for s, v in out.items()}

    def _build_resolver(self):
        res: dict[str, str] = {}

        def put(surface: str, canon: str):
            for form in (surface, lexical_key(surface)):
                prev = res.get(form)
                if prev is not None and prev != canon:
                    raise FixtureError(
                        f"surface {form!r} maps to both {prev!r} and {canon!r}")
                res[form] = canon

        for (_, canon) in self.edges:
            put(canon, canon)
        for canon, surfaces in self.aliases.items():
            for s in surfaces:
                put(s, canon)
        return res

    def _build_obs(self):
        cache = {}
        for screen in self.screens:
            surfaces: list[str] = []
            for canon, _ in self._out[screen]:
                forms = self.aliases.get(canon) or (canon,)
                surfaces.extend(forms)
            cache[screen] = Observation(screen, tuple(sorted(surfaces)),
                                        self.terminal_of(screen))
        return cache

    def _build_proposals(self):
        tables = {}
        for screen, entries in self.policy.items():
            if not entries:
                continue
            canons = tuple(canon for canon, _ in entries)
            weights = tuple(float(w) for _, w in entries)
            cum = tuple(accumulate(weights))
            tables[screen] = ProposalTable(
                canons, weights, cum, cum[-1],
                tuple(self.surfaces_of(canon) for canon in canons))
        return tables

    def _check_reachable(self):
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            cur = queue.popleft()
            for _, dst in self._out[cur]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        if not self.goals & seen:
            raise FixtureError(f"no goal reachable from {self.start!r}")

    # public helpers ---------------------------------------------------------

    def terminal_of(self, screen: str) -> str:
        if screen in self.goals:
            return TERMINAL_SUCCESS
        if screen in self.traps:
            return TERMINAL_FAILURE
        return TERMINAL_NONE

    def resolve(self, action: str) -> str | None:
        """Surface string -> canonical action id, or None if unrecognized."""
        trimmed = action.strip()
        hit = self._resolver.get(trimmed)
        if hit is None:
            hit = self._resolver.get(lexical_key(trimmed))
        return hit

    def alias_context(self) -> dict[str, str]:
        """Alias map for ``expansion.normalize_action``: every surface
        spelling, and its lexical key, mapped to its canonical id."""
        return dict(self._resolver)

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
        """Apply one surface action; ``observe`` shows where it led."""
        if self.observe().terminal != TERMINAL_NONE:
            return  # absorbing
        canon = self.spec.resolve(action)
        if canon is None:
            return  # unrecognized action: self-loop
        dst = self.spec.edges.get((self._screen, canon))
        if dst is not None:  # else recognized but inapplicable: self-loop
            self._screen = dst

    def clone(self) -> "GuiGraphEnv":
        dup = GuiGraphEnv(self.spec)
        dup._screen = self._screen
        return dup


# -- fixture file parsing -----------------------------------------------------


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


_SECTIONS = ("meta", "screens", "start", "goals", "traps", "edges", "aliases",
            "values", "policy", "proposer")
_PROPOSER_TYPES = {f.name: type(f.default) for f in fields(ProposerParams)}


def parse_fixture(text: str, name: str = "<string>") -> GuiGraphSpec:
    """Parse fixture text; a malformed line raises ``FixtureError`` naming
    ``name`` and the line number."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current = "meta"

    def err(lineno: int, msg: str) -> FixtureError:
        return FixtureError(f"{name}:{lineno}: {msg}")

    def number(lineno: int, tok: str) -> float:
        try:
            if math.isfinite(x := float(tok)):
                return x
        except ValueError:
            pass
        raise err(lineno, f"expected a finite number, got {tok!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise err(lineno, f"unknown section [{current}] "
                                  f"(known: {', '.join(_SECTIONS)})")
            continue
        sections.setdefault(current, []).append((lineno, line))

    def single(section: str) -> str:
        lines = sections.get(section, [])
        if len(lines) != 1 or len(lines[0][1].split()) != 1:
            raise FixtureError(f"{name}: [{section}] needs exactly one id")
        return lines[0][1]

    def tokens(section: str) -> list[str]:
        return [t for _, line in sections.get(section, []) for t in line.split()]

    edges: dict[tuple[str, str], str] = {}
    for lineno, line in sections.get("edges", []):
        parts = line.split()
        if len(parts) != 4 or parts[2] != "->":
            raise err(lineno, f"bad edge line {line!r}")
        src, canon, _, dst = parts
        if (src, canon) in edges:
            raise err(lineno, f"duplicate edge {src} {canon}")
        edges[(src, canon)] = dst

    aliases: dict[str, tuple[str, ...]] = {}
    for lineno, line in sections.get("aliases", []):
        if "=" not in line:
            raise err(lineno, f"bad alias line {line!r}")
        canon, rest = line.split("=", 1)
        canon = canon.strip()
        surfaces = tuple(s.strip() for s in rest.split("|") if s.strip())
        if canon in aliases:
            raise err(lineno, f"duplicate alias block for {canon!r}")
        aliases[canon] = surfaces

    values: dict[str, float] = {}
    for lineno, line in sections.get("values", []):
        parts = line.split()
        if len(parts) != 2:
            raise err(lineno, f"bad value line {line!r}")
        values[parts[0]] = number(lineno, parts[1])

    policy: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in sections.get("policy", []):
        parts = line.split()
        if len(parts) != 3:
            raise err(lineno, f"bad policy line {line!r}")
        policy.setdefault(parts[0], []).append(
            (parts[1], number(lineno, parts[2])))

    proposer = ProposerParams()
    for lineno, line in sections.get("proposer", []):
        parts = line.split()
        if len(parts) != 2:
            raise err(lineno, f"bad proposer line {line!r}")
        key, x = parts[0], number(lineno, parts[1])
        if key not in _PROPOSER_TYPES:
            raise err(lineno, f"unknown proposer key {key!r} "
                              f"(known: {', '.join(_PROPOSER_TYPES)})")
        if _PROPOSER_TYPES[key] is int:
            if x != int(x):
                raise err(lineno, f"{key} must be a whole number, "
                                  f"got {parts[1]!r}")
            x = int(x)
        try:
            proposer = replace(proposer, **{key: x})
        except ValueError as exc:
            raise err(lineno, str(exc))

    instruction = "reach the goal screen"
    for _, line in sections.get("meta", []):
        key, _, rest = line.partition(" ")
        if key == "instruction" and rest.strip():
            instruction = rest.strip()

    return GuiGraphSpec(
        name=name, screens=tuple(tokens("screens")), start=single("start"),
        goals=frozenset(tokens("goals")), traps=frozenset(tokens("traps")),
        edges=edges, aliases=aliases,
        values=values, instruction=instruction,
        policy={s: tuple(v) for s, v in policy.items()},
        proposer=proposer)


def builtin_fixtures() -> tuple[str, ...]:
    return tuple(sorted(p.stem for p in _FIXTURE_DIR.glob("*.env")))


def load_fixture(name: str) -> GuiGraphSpec:
    """Load a built-in fixture by name, or any fixture file by path."""
    path = Path(name)
    if not path.suffix:
        path = _FIXTURE_DIR / f"{name}.env"
    if not path.exists():
        raise FixtureError(f"no fixture {name!r} (builtins: "
                           f"{', '.join(builtin_fixtures())})")
    return parse_fixture(path.read_text(), name=path.stem)


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


@dataclass(frozen=True)
class BanditSpec:
    """K-armed bandit whose pull is the arm mean plus a bounded residual.

    rho:       residual fraction in [0, 1]; the share of the blind outcome
               variance that value prediction (reflection) leaves unexplained.
               0 = perfect memory, 1 = blind.
    sigma_x2:  blind outcome variance (the rho = 1 residual variance).
    noise:     residual shape; ``two_point`` (+-s) realizes the residual
               variance exactly, ``uniform`` spreads it over
               [-s*sqrt(3), s*sqrt(3)].

    Rewards live in [0, 1] by construction (checked against the noise support
    at the blind rho = 1 width, so tightening rho never violates the bound).
    """

    means: tuple[float, ...]
    sigma_x2: float = 0.0
    rho: float = 1.0
    noise: str = TWO_POINT

    def __post_init__(self):
        if not self.means:
            raise ValueError("bandit needs at least one arm")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if self.sigma_x2 < 0:
            raise ValueError("sigma_x2 must be >= 0")
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

    @property
    def all_gaps(self) -> tuple[float, ...]:
        best = self.means[self.best_arm]
        return tuple(best - m for m in self.means)


def bandit_pull(spec: BanditSpec, arm: int, rng) -> float:
    """Reward of one pull.  Consumes exactly one uniform draw from ``rng``
    whatever the arm, so pull streams depend only on pull order."""
    if not 0 <= arm < spec.k:
        raise ValueError(f"arm {arm} out of range")
    u = float(rng.random())
    s = math.sqrt(spec.residual_var)
    return spec.means[arm] + float(residual_noise(u, s, spec.noise))
