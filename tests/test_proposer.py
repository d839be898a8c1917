"""Proposal-stream contracts: length, keyed determinism, mode collapse under
duplicate_rate, reflection steering, the infeasibility declaration, and the
draws equal to a reference copy of the per-slot ``child(j)`` loop."""
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from alphauct.envs import ProposerParams, builtin_fixtures, load_fixture
from alphauct.expansion import normalize_action
from alphauct.proposer import TaskInfeasible, proposer_from_fixture
from alphauct.rng import derive_rng


def make_proposer(**overrides) -> tuple:
    spec = load_fixture("trap3")
    return spec, proposer_from_fixture(spec, seed=overrides.pop("seed", 0),
                                       **overrides)


def test_returns_k_surface_strings():
    spec, prop = make_proposer()
    for k in (1, 3, 8):
        out = prop.propose("start", None, k, iteration=1, leaf=0)
        assert len(out) == k
        # every proposal normalizes to a real canonical action at this screen
        ctx = spec.alias_context()
        for s in out:
            assert ("start", normalize_action(s, ctx)) in spec.edges
    with pytest.raises(ValueError):
        prop.propose("start", None, 0, iteration=1, leaf=0)


def test_unknown_screen_yields_no_proposals():
    _, prop = make_proposer()
    assert prop.propose("the-moon", None, 4, iteration=1, leaf=0) == []


def test_streams_keyed_not_stateful():
    _, prop = make_proposer(duplicate_rate=0.3)
    a = prop.propose("start", None, 5, iteration=2, leaf=7)
    # interleave unrelated draws; the keyed stream must not shift
    prop.propose("start", None, 5, iteration=3, leaf=7)
    b = prop.propose("start", None, 5, iteration=2, leaf=7)
    assert a == b
    c = prop.propose("start", None, 5, iteration=2, leaf=8)
    assert a != c or True  # different key may coincide; just prove no error
    d = prop.propose("start", None, 5, iteration=2, leaf=7, slot=(0, 1))
    assert d != a  # slot namespaces the chunk-continuation stream


def test_duplicate_rate_one_collapses_to_single_canonical():
    spec, prop = make_proposer(duplicate_rate=1.0)
    ctx = spec.alias_context()
    out = prop.propose("start", None, 8, iteration=1, leaf=0)
    keys = {normalize_action(s, ctx) for s in out}
    assert len(keys) == 1  # every draw after the first repeats draw 0


def test_duplicate_rate_zero_draws_independently():
    spec, prop = make_proposer(duplicate_rate=0.0)
    ctx = spec.alias_context()
    seen = set()
    for it in range(1, 30):
        for s in prop.propose("start", None, 4, iteration=it, leaf=0):
            seen.add(normalize_action(s, ctx))
    assert len(seen) == 3  # all trap3 root actions eventually appear


def test_reflection_boost_shifts_draw_frequency():
    spec, _ = make_proposer()

    def freq(reflection, canon: str) -> float:
        prop = proposer_from_fixture(spec, seed=0, reflection_gain=8.0)
        ctx = spec.alias_context()
        hits = total = 0
        for it in range(1, 120):
            for s in prop.propose("start", reflection, 3, iteration=it, leaf=0):
                hits += normalize_action(s, ctx) == canon
                total += 1
        return hits / total

    plain = freq(None, "open_gallery")
    boosted = freq({"open_gallery": 1.0}, "open_gallery")
    assert boosted > plain + 0.15


def test_infeasible_after_fires_only_past_threshold():
    _, prop = make_proposer(infeasible_after=3)
    prop.propose("start", None, 2, iteration=3, leaf=0)  # at threshold: fine
    with pytest.raises(TaskInfeasible):
        prop.propose("start", None, 2, iteration=4, leaf=0)


def test_spec_validation(routes):
    base = ProposerParams()
    for build in routes:
        with pytest.raises(ValueError):
            build(base, duplicate_rate=1.0001)
        with pytest.raises(ValueError):
            build(base, reflection_gain=-1.0)
        with pytest.raises(ValueError):
            build(base, infeasible_after=-1)
        with pytest.raises(ValueError):  # inf x a zero boost is a NaN weight
            build(base, reflection_gain=float("inf"))
        with pytest.raises(ValueError):
            build(base, infeasible_after=2.5)
        with pytest.raises(ValueError):
            build(base, infeasible_after=True)


def test_an_unknown_override_name_is_a_type_error():
    spec = load_fixture("trap3")
    with pytest.raises(TypeError, match="bogus"):
        proposer_from_fixture(spec, bogus=1)
    with pytest.raises(ValueError, match="duplicate_rate"):
        proposer_from_fixture(spec, duplicate_rate=2.0)
    prop = proposer_from_fixture(spec, infeasible_after=3)
    assert prop.params == spec.proposer._replace(infeasible_after=3)
    assert type(prop.params) is ProposerParams


def test_surface_spellings_exercise_normalization():
    """Across many draws the same canonical appears under several spellings."""
    spec, prop = make_proposer(seed=5)
    ctx = spec.alias_context()
    spellings: dict[str, set] = {}
    for it in range(1, 60):
        for s in prop.propose("start", None, 3, iteration=it, leaf=0):
            spellings.setdefault(normalize_action(s, ctx), set()).add(s)
    assert any(len(v) > 1 for v in spellings.values())


def reference_propose(prop, screen, reflection, k, *, iteration, leaf,
                      slot=None):
    """``SimProposer.propose`` as it drew before the slot words: weights
    rebuilt on every call, one ``call.child(j)`` object per slot and its
    ``random``/``integers`` draws."""
    p = prop.params
    if p.infeasible_after and iteration > p.infeasible_after:
        raise TaskInfeasible("gave up")
    entries = prop.spec.policy.get(screen, ())
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
    call = derive_rng(prop.seed, "prop", iteration, leaf, *phase)
    draws, out = [], []
    for j in range(k):
        rng = call.child(j)
        if j > 0 and p.duplicate_rate > 0 and rng.random() < p.duplicate_rate:
            canon = draws[rng.integers(0, j)]
        else:
            canon = entries[bisect_right(cum, rng.random() * total)][0]
        surfaces = prop.spec.surfaces_of(canon)
        draws.append(canon)
        out.append(surfaces[rng.integers(0, len(surfaces))])
    return out


SPECS = {name: load_fixture(name) for name in builtin_fixtures()}


@st.composite
def propose_calls(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    screen = draw(st.sampled_from(spec.screens + ("the-moon",)))
    canons = sorted({c for entries in spec.policy.values() for c, _ in entries})
    here = [c for c, _ in spec.policy.get(screen, ())]
    boost = st.floats(0.0, 1.0)
    reflection = draw(st.one_of(
        st.none(), st.just({}),
        # keys of this screen's canonicals, of other screens', or made up
        st.dictionaries(st.sampled_from(canons + ["no_such_action"]), boost,
                        max_size=4),
        st.dictionaries(st.sampled_from(here or ["no_such_action"]), boost,
                        min_size=1, max_size=3)))
    params = dict(duplicate_rate=draw(st.one_of(st.just(0.0), st.just(1.0),
                                                st.floats(0.0, 1.0))),
                  reflection_gain=draw(st.one_of(st.just(0.0),
                                                 st.floats(0.0, 50.0))))
    slot = draw(st.one_of(st.none(), st.tuples(st.integers(0, 7),
                                               st.integers(1, 3))))
    call = dict(k=draw(st.integers(1, 12)), iteration=draw(st.integers(1, 60)),
                leaf=draw(st.integers(0, 500)), slot=slot)
    return spec, draw(st.integers(0, 10**6)), params, screen, reflection, call


@settings(max_examples=300, deadline=None)
@given(propose_calls())
def test_propose_equals_the_per_slot_child_loop(case):
    """The slot words and the per-fixture tables draw exactly what one
    ``child(j)`` per slot over freshly built weights drew."""
    spec, seed, params, screen, reflection, call = case
    prop = proposer_from_fixture(spec, seed=seed, **params)
    k = call.pop("k")
    assert prop.propose(screen, reflection, k, **call) == \
        reference_propose(prop, screen, reflection, k, **call)
