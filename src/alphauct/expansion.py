"""Candidate expansion with normalized-key deduplication.

Surface action strings are noisy: the same underlying operation shows up with
different casing, spacing, jittered coordinates, or as a free-text alias.  A
normalization key collapses these so sibling slots are spent on genuinely
distinct operations; the effective branching factor of a node is however many
distinct keys survive among the proposals, never more than the proposal
budget.  Aliases come as a plain map from surface strings (or their lexical
keys) to canonical ids, such as ``GuiGraphSpec.alias_context()``; ``{}`` means
lexical keys only.

A one-atom candidate's key is known before it is played, so a duplicate
one-atom proposal is rejected without ever being played: only admitted heads
are cloned and stepped.  A multi-atom chunk's key depends on the tail its
play-out proposes, so chunked candidates are played out first and admitted
after.  ``expand_node`` returns the admitted chunks, each with the environment
it reached, and leaves the tree alone.
"""
from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .tree import ActionChunk, TreeError

CHUNK_SEP = ";"
COORD_BUCKET = 10  # numeric call args snap to the nearest multiple

_CALL_RE = re.compile(r"^([A-Za-z_][\w.-]*)\s*\((.*)\)$", re.S)
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)$")


def _bucket(x: float) -> str:
    v = int(math.floor(x / COORD_BUCKET + 0.5)) * COORD_BUCKET
    return str(v)


def _split_args(argstr: str) -> list[str]:
    """Split on top-level commas, respecting single/double quotes."""
    args, buf, quote = [], [], None
    for ch in argstr:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            buf.append(ch)
            quote = ch
        elif ch == ",":
            args.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf or args:
        args.append("".join(buf))
    return args


@lru_cache(maxsize=4096)
def lexical_key(action: str) -> str:
    """Case/spacing/coordinate-insensitive form of one action string.

    ``name(args)`` calls get a lowercased name, numeric args snapped to the
    nearest ``COORD_BUCKET`` multiple, and quote style unified; anything that
    does not parse as a call is lowercased with whitespace collapsed (never an
    error).  Memoized: a pure function of the string, and proposers repeat a
    few dozen spellings thousands of times.
    """
    s = " ".join(action.split())
    m = _CALL_RE.match(s)
    if not m:
        return s.lower()
    name = m.group(1).lower()
    out = []
    for arg in _split_args(m.group(2)):
        a = arg.strip()
        if _NUM_RE.match(a):
            out.append(_bucket(float(a)))
        elif len(a) >= 2 and a[0] == a[-1] and a[0] in "'\"":
            out.append("'" + a[1:-1] + "'")
        else:
            out.append(a)
    return f"{name}({','.join(out)})"


def normalize_action(action: str, aliases: Mapping[str, str]) -> str:
    """Normalized key for a surface action string.

    The alias map wins over lexical rules: an exact surface match is checked
    first, then the lexical key is looked up (catching spacing/jitter variants
    of a listed alias), then the lexical key itself is the answer.  Canonical
    ids are lexical fixed points, so the map is idempotent by construction.
    """
    trimmed = action.strip()
    if not trimmed:
        raise ValueError("empty action string")
    hit = aliases.get(trimmed)
    if hit is not None:
        return hit
    key = lexical_key(trimmed)
    return aliases.get(key, key)


def chunk_key(atoms: Sequence[str], aliases: Mapping[str, str]) -> str:
    if not atoms:
        raise ValueError("empty atom sequence")
    return CHUNK_SEP.join(normalize_action(a, aliases) for a in atoms)


def make_chunk(atoms: Sequence[str], aliases: Mapping[str, str]) -> ActionChunk:
    atoms = tuple(atoms)
    if len(atoms) == 1:  # the common case: its key is the atom's key
        return ActionChunk(atoms, normalize_action(atoms[0], aliases))
    return ActionChunk(atoms, chunk_key(atoms, aliases))


def admit_candidates(candidates: Iterable[ActionChunk | Sequence[str]],
                     aliases: Mapping[str, str]) -> list[ActionChunk]:
    """First-come admission: a candidate enters iff its normalized key is new
    among the already-admitted set.  Order-preserving and prefix-stable."""
    admitted: list[ActionChunk] = []
    seen: set[str] = set()
    for cand in candidates:
        chunk = (cand if isinstance(cand, ActionChunk)
                 else make_chunk(tuple(cand), aliases))
        if chunk.norm_key not in seen:
            seen.add(chunk.norm_key)
            admitted.append(chunk)
    return admitted


def _roll_candidate(env, proposer, head: str, slot: int, *, reflection,
                    iteration: int, leaf: int, chunk_size: int):
    """Play out one candidate: step the head action, then keep proposing and
    stepping on the clone until the chunk is full or the episode ends."""
    clone = env.clone()
    atoms: list[str] = []
    action = head
    for step in range(chunk_size):
        obs = clone.observe()
        if obs.terminal != "none":
            break
        if step > 0:
            tail = proposer.propose(obs.screen, reflection, 1,
                                    iteration=iteration, leaf=leaf,
                                    slot=(slot, step))
            if not tail:
                break
            action = tail[0]
        clone.step(action)
        atoms.append(action)
    return atoms, clone


def expand_node(leaf: int, proposer, env, aliases: Mapping[str, str], *,
                k: int, chunk_size: int, reflection=None,
                iteration: int = 0) -> list[tuple[ActionChunk, object]]:
    """Propose ``k`` candidate chunks at ``env`` (positioned at ``leaf``) and
    admit whole chunks through ``admit_candidates``.  Returns
    ``[(chunk, env_after_chunk), ...]`` in admission order; the tree is the
    caller's, which judges the set before any of it becomes a child.
    """
    if k < 1:
        raise ValueError("proposal budget must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk size must be >= 1")
    obs0 = env.observe()
    if obs0.terminal != "none":
        raise TreeError(f"cannot expand terminal node {leaf}")
    heads = proposer.propose(obs0.screen, reflection, k,
                             iteration=iteration, leaf=leaf)
    if chunk_size == 1:
        # a one-atom chunk is its head: admit first, play only the admitted
        played = []
        for chunk in admit_candidates([make_chunk((head,), aliases)
                                       for head in heads], aliases):
            clone = env.clone()
            clone.step(chunk.atoms[0])
            played.append((chunk, clone))
    else:
        rolled = [_roll_candidate(env, proposer, head, j, reflection=reflection,
                                  iteration=iteration, leaf=leaf,
                                  chunk_size=chunk_size)
                  for j, head in enumerate(heads)]
        # a roll always plays its head: the leaf is not terminal
        built = [(make_chunk(atoms, aliases), clone) for atoms, clone in rolled]
        clone_of = {id(chunk): clone for chunk, clone in built}
        played = [(chunk, clone_of[id(chunk)]) for chunk in
                  admit_candidates([chunk for chunk, _ in built], aliases)]
    return played
