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
no spaces), and a goal must be reachable from the start screen.
``parse_fixture`` makes every check, and each error names the fixture and
the line at fault: the later line where a check spans two (a repeated
screen, a goal that is also a trap, a spelling of two canonicals).  Only an
error about something absent names the fixture alone: no ``[start]`` line,
no goal screen, or no goal reachable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .expansion import lexical_key, normalize_action

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
    """A checked screen graph and its derived tables.  ``parse_fixture``
    builds and checks every spec; ``__post_init__`` only builds the tables
    that stepping and proposing read."""

    screens: tuple[str, ...]
    start: str
    goals: frozenset[str]
    traps: frozenset[str]
    edges: Mapping[tuple[str, str], str]  # (screen, canonical) -> screen
    aliases: Mapping[str, tuple[str, ...]]  # canonical -> surface spellings
    resolver: Mapping[str, str]  # spelling or its lexical key -> canonical
    values: Mapping[str, float]
    instruction: str = "reach the goal screen"
    policy: Mapping[str, tuple[tuple[str, float], ...]] = field(default_factory=dict)
    proposer: ProposerParams = ProposerParams()

    def __post_init__(self):
        object.__setattr__(self, "_obs_cache", self._build_obs())
        object.__setattr__(self, "_proposals", self._build_proposals())

    # derived tables -------------------------------------------------------

    def _build_obs(self):
        return {s: Observation(s, self.terminal_of(s)) for s in self.screens}

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


# -- fixture file parsing -----------------------------------------------------


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


_SECTIONS = ("meta", "screens", "start", "goals", "traps", "edges", "aliases",
            "values", "policy", "proposer")
_PROPOSER_TYPES = {f.name: type(f.default) for f in fields(ProposerParams)}


def parse_fixture(text: str, name: str = "<string>") -> GuiGraphSpec:
    """Parse and check fixture text; the one place a ``GuiGraphSpec`` is
    built.  A fault raises ``FixtureError`` naming ``name`` and its line
    (the later line where a check spans two); a missing ``[start]`` line or
    goal, and an unreachable goal, name ``name`` alone."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None

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
        if current is None:
            raise err(lineno, f"line {line!r} before the first section header")
        sections.setdefault(current, []).append((lineno, line))

    proposer = ProposerParams()
    proposer_keys: set[str] = set()
    for lineno, line in sections.get("proposer", []):
        parts = line.split()
        if len(parts) != 2:
            raise err(lineno, f"bad proposer line {line!r}")
        key, x = parts[0], number(lineno, parts[1])
        if key not in _PROPOSER_TYPES:
            raise err(lineno, f"unknown proposer key {key!r} "
                              f"(known: {', '.join(_PROPOSER_TYPES)})")
        if key in proposer_keys:
            raise err(lineno, f"duplicate proposer key {key!r}")
        proposer_keys.add(key)
        if _PROPOSER_TYPES[key] is int:
            if x != int(x):
                raise err(lineno, f"{key} must be a whole number, "
                                  f"got {parts[1]!r}")
            x = int(x)
        try:
            proposer = replace(proposer, **{key: x})
        except ValueError as exc:
            raise err(lineno, str(exc))

    instruction = None
    for lineno, line in sections.get("meta", []):
        key, _, rest = line.partition(" ")
        if key != "instruction":
            raise err(lineno, f"unknown meta key {key!r} (known: instruction)")
        if not rest.strip():
            raise err(lineno, "instruction needs text")
        if instruction is not None:
            raise err(lineno, "duplicate meta key 'instruction'")
        instruction = rest.strip()

    start_line = start = None
    for lineno, line in sections.get("start", []):
        if start is not None or len(line.split()) != 1:
            raise err(lineno, "[start] needs exactly one id")
        start_line, start = lineno, line
    if start is None:
        raise FixtureError(f"{name}: [start] needs exactly one id")

    def screen_lines(section: str) -> dict[str, int]:
        found: dict[str, int] = {}  # screen -> its line
        for lineno, line in sections.get(section, []):
            for tok in line.split():
                if tok in found:
                    raise err(lineno, f"screen {tok!r} listed twice in "
                                      f"[{section}]")
                found[tok] = lineno
        return found

    goals, traps = screen_lines("goals"), screen_lines("traps")
    screens: dict[str, int] = {}
    for lineno, line in sections.get("screens", []):
        for tok in line.split():
            if tok in screens:
                raise err(lineno, "duplicate screen ids")
            screens[tok] = lineno
    if start not in screens:
        raise err(start_line, f"unknown start screen {start!r}")
    terminal = {**goals, **traps}  # goal or trap screen -> its line
    for tok, lineno in terminal.items():
        if tok not in screens:
            raise err(lineno, f"terminal screen {tok!r} not declared")
    for tok, lineno in traps.items():
        if tok in goals:
            raise err(max(lineno, goals[tok]), "goal and trap sets overlap")
    if not goals:
        raise FixtureError(f"{name}: fixture declares no goal screen")

    edges: dict[tuple[str, str], str] = {}
    resolver: dict[str, str] = {}
    resolver_line: dict[str, int] = {}  # form -> the line that mapped it

    def resolve(lineno: int, surface: str, canon: str):
        for form in (surface, lexical_key(surface)):
            prev = resolver.setdefault(form, canon)
            if prev != canon:
                raise err(max(lineno, resolver_line[form]),
                          f"surface {form!r} maps to both {prev!r} and "
                          f"{canon!r}")
            resolver_line.setdefault(form, lineno)

    for lineno, line in sections.get("edges", []):
        parts = line.split()
        if len(parts) != 4 or parts[2] != "->":
            raise err(lineno, f"bad edge line {line!r}")
        src, canon, _, dst = parts
        if (src, canon) in edges:
            raise err(lineno, f"duplicate edge {src} {canon}")
        if src not in screens or dst not in screens:
            raise err(lineno, f"edge {src!r}-[{canon}]->{dst!r} off the map")
        if src in terminal:
            raise err(max(lineno, terminal[src]),
                      f"terminal screen {src!r} has outgoing edges")
        if lexical_key(canon) != canon:
            raise err(lineno, f"canonical id {canon!r} is not normal form")
        edges[(src, canon)] = dst
        resolve(lineno, canon, canon)

    aliases: dict[str, tuple[str, ...]] = {}
    edge_canons = {canon for _, canon in edges}
    for lineno, line in sections.get("aliases", []):
        if "=" not in line:
            raise err(lineno, f"bad alias line {line!r}")
        canon, rest = line.split("=", 1)
        canon = canon.strip()
        surfaces = tuple(s.strip() for s in rest.split("|") if s.strip())
        if canon in aliases:
            raise err(lineno, f"duplicate alias block for {canon!r}")
        for i, surface in enumerate(surfaces):
            if surface in surfaces[:i]:
                raise err(lineno, f"spelling {surface!r} repeated for "
                                  f"{canon!r}")
        if canon not in edge_canons:
            raise err(lineno, f"alias for unused canonical {canon!r}")
        if not surfaces:
            raise err(lineno, f"empty alias list for {canon!r}")
        for surface in surfaces:
            resolve(lineno, surface, canon)
        aliases[canon] = surfaces

    values: dict[str, float] = {}
    for lineno, line in sections.get("values", []):
        parts = line.split()
        if len(parts) != 2:
            raise err(lineno, f"bad value line {line!r}")
        x = number(lineno, parts[1])
        if parts[0] in values:
            raise err(lineno, f"duplicate value for screen {parts[0]!r}")
        if parts[0] not in screens:
            raise err(lineno, f"value for unknown screen {parts[0]!r}")
        if not -1.0 <= x <= 1.0:
            raise err(lineno, f"screen value {x!r} outside [-1, 1]")
        values[parts[0]] = x

    policy: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in sections.get("policy", []):
        parts = line.split()
        if len(parts) != 3:
            raise err(lineno, f"bad policy line {line!r}")
        x = number(lineno, parts[2])
        entries = policy.setdefault(parts[0], [])
        if any(canon == parts[1] for canon, _ in entries):
            raise err(lineno, f"duplicate policy entry {parts[0]} {parts[1]}")
        if parts[0] not in screens:
            raise err(lineno, f"policy for unknown screen {parts[0]!r}")
        if (parts[0], parts[1]) not in edges:
            raise err(lineno, f"policy action {parts[1]!r} has no edge at "
                              f"{parts[0]!r}")
        if not x > 0:  # ``number`` has checked that x is finite
            raise err(lineno, "policy weights must be positive and finite")
        entries.append((parts[1], x))

    spec = GuiGraphSpec(
        screens=tuple(screens), start=start, goals=frozenset(goals),
        traps=frozenset(traps),
        edges=edges, aliases=aliases, resolver=resolver, values=values,
        instruction=instruction or GuiGraphSpec.instruction,
        policy={s: tuple(v) for s, v in policy.items()}, proposer=proposer)
    out: dict[str, list[str]] = {}
    for (src, _), dst in edges.items():
        out.setdefault(src, []).append(dst)
    seen, todo = {start}, [start]
    while todo:
        for dst in out.get(todo.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    if not goals.keys() & seen:
        raise FixtureError(f"{name}: no goal reachable from {start!r}")
    return spec


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
