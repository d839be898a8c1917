"""The fixture parser: fixture text to a checked ``envs.GuiGraphSpec``.
``envs.parse_fixture`` and ``envs.load_fixture`` import this module on
their first call, so that a search or bandit caller that builds no spec
from text does not compile it.

Fixture files are plain text, one section per bracketed header::

    [meta]        instruction <free text>   (default: reach the goal screen)
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
from .envs import FixtureError, GuiGraphSpec, ProposerParams
from .expansion import lexical_key


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


_SECTIONS = ("meta", "screens", "start", "goals", "traps", "edges", "aliases",
            "values", "policy", "proposer")
_DEFAULT_INSTRUCTION = "reach the goal screen"
_PROPOSER_TYPES = {name: type(default) for name, default
                   in ProposerParams._field_defaults.items()}


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
            proposer = proposer._replace(**{key: x})
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
        instruction=instruction or _DEFAULT_INSTRUCTION,
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
