"""Normalization and admission: jitter/case/alias collapse, idempotence,
first-come dedup, and expansion against a live fixture env, which plays a
duplicate one-atom proposal never and a chunked candidate always."""
import pytest
from hypothesis import given, strategies as st

from alphauct.envs import GuiGraphEnv, load_fixture
from alphauct.expansion import (admit_candidates, chunk_key, expand_node,
                                lexical_key, make_chunk, normalize_action)
from alphauct.proposer import proposer_from_fixture
from alphauct.tree import ROOT, TreeError

PLAIN = {}  # no aliases: lexical keys only


def test_lexical_key_examples():
    assert lexical_key("Click (450, 320)") == "click(450,320)"
    assert lexical_key("click(452, 318)") == "click(450,320)"
    assert lexical_key("click(463, 320)") == "click(460,320)"
    assert lexical_key("HOTKEY('Ctrl', 'l')") == "hotkey('Ctrl','l')"
    assert lexical_key('hotkey("Ctrl", "l")') == "hotkey('Ctrl','l')"
    assert lexical_key("  Open   the  Vault ") == "open the vault"
    assert lexical_key("write('a, b')") == "write('a, b')"  # quoted comma kept


def test_coordinate_bucket_boundaries():
    # nearest-multiple snap: 444->440, 445->450 at width 10
    assert lexical_key("click(444, 0)") == "click(440,0)"
    assert lexical_key("click(445, 0)") == "click(450,0)"


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_action("   ", PLAIN)
    with pytest.raises(ValueError):
        chunk_key((), PLAIN)


def test_alias_map_wins_over_lexical():
    aliases = {"open the vault": "go_vault", "click(450,320)": "go_vault"}
    assert normalize_action("Open the VAULT", aliases) == "go_vault"
    # jittered coordinate variant reaches the alias through its lexical key
    assert normalize_action("Click (452, 318)", aliases) == "go_vault"
    assert normalize_action("scroll(30)", aliases) == "scroll(30)"  # no alias hit


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_normalization_is_idempotent(action):
    key = normalize_action(action, PLAIN)
    assert normalize_action(key, PLAIN) == key


def test_chunk_key_joins_atoms():
    assert chunk_key(("Click (450, 320)", "Type('hi')"), PLAIN) == \
        "click(450,320);type('hi')"
    ch = make_chunk(("Click (450, 320)",), PLAIN)
    assert ch.atoms == ("Click (450, 320)",)  # surface form preserved
    assert ch.norm_key == "click(450,320)"


def test_admission_collapses_jittered_pair():
    pair = admit_candidates([("Click (450, 320)",), ("click(452, 318)",)], PLAIN)
    assert len(pair) == 1
    trio = admit_candidates([("click(450, 320)",), ("click(463, 320)",)], PLAIN)
    assert len(trio) == 2


def test_admission_is_first_come_and_prefix_stable():
    cands = [("a",), ("b",), ("A",), ("c",), ("b ",)]
    admitted = admit_candidates(cands, PLAIN)
    assert [c.atoms for c in admitted] == [("a",), ("b",), ("c",)]
    # prefix stability: admitting a prefix of the candidate list yields a
    # prefix of the admitted list
    for cut in range(len(cands)):
        sub = admit_candidates(cands[:cut], PLAIN)
        assert [c.norm_key for c in sub] == \
            [c.norm_key for c in admitted][:len(sub)]


@given(st.lists(st.sampled_from(["a", "A", " a", "b", "c", "click(1,2)",
                                 "Click (3, 2)"]), max_size=12))
def test_admitted_keys_always_unique(cands):
    admitted = admit_candidates([(c,) for c in cands], PLAIN)
    keys = [c.norm_key for c in admitted]
    assert len(set(keys)) == len(keys)
    assert len(admitted) <= len(cands)


def test_expand_node_on_fixture():
    spec = load_fixture("trap3")
    env = GuiGraphEnv(spec)
    prop = proposer_from_fixture(spec, seed=0)
    out = expand_node(ROOT, prop, env, spec.alias_context(), k=5, chunk_size=1)
    assert 1 <= len(out) <= 5
    keys = [chunk.norm_key for chunk, _ in out]
    assert len(set(keys)) == len(keys)
    assert env.screen == spec.start  # candidates play on clones
    for chunk, after in out:
        ref = env.clone()
        ref.step(chunk.atoms[0])
        assert after is not env and after.observe() == ref.observe()


def test_expand_node_validates_budget_and_terminals():
    spec = load_fixture("trap3")
    env = GuiGraphEnv(spec)
    prop = proposer_from_fixture(spec, seed=0)
    aliases = spec.alias_context()
    with pytest.raises(ValueError):
        expand_node(ROOT, prop, env, aliases, k=0, chunk_size=1)
    with pytest.raises(ValueError):
        expand_node(ROOT, prop, env, aliases, k=3, chunk_size=0)
    with pytest.raises(TypeError):  # the budget is keyword-only
        expand_node(ROOT, prop, env, aliases, 3, 1)
    env.step("open the lobby door")
    env.step("open the closet")  # trap screen is absorbing
    with pytest.raises(TreeError):
        expand_node(ROOT, prop, env, aliases, k=3, chunk_size=1)


def test_chunked_expansion_produces_multi_atom_edges():
    spec = load_fixture("deep7")
    env = GuiGraphEnv(spec)
    prop = proposer_from_fixture(spec, seed=1)
    out = expand_node(ROOT, prop, env, spec.alias_context(), k=4, chunk_size=3)
    assert out
    assert any(len(chunk.atoms) > 1 for chunk, _ in out)
    for chunk, _ in out:
        assert 1 <= len(chunk.atoms) <= 3
        assert chunk.norm_key == chunk_key(chunk.atoms, spec.alias_context())


def test_a_chunk_ends_at_a_dead_end():
    """From trap3's mezzanine every head leads to a screen with no
    proposals, so at chunk size 2 each chunk is its head alone."""
    spec = load_fixture("trap3")
    env = GuiGraphEnv(spec)
    env.step("take the mezzanine stairs")
    prop = proposer_from_fixture(spec, seed=0)
    out = expand_node(ROOT, prop, env, spec.alias_context(), k=3, chunk_size=2)
    assert out and all(len(chunk.atoms) == 1 for chunk, _ in out)
    assert {after.observe().screen for _, after in out} == {"mezz2"}


class CountingEnv:
    """A fixture env whose clones share one count of clone and step calls."""

    def __init__(self, env, counts):
        self.env, self.counts = env, counts

    def observe(self):
        return self.env.observe()

    def step(self, action):
        self.counts["step"] += 1
        return self.env.step(action)

    def clone(self):
        self.counts["clone"] += 1
        return CountingEnv(self.env.clone(), self.counts)


def _expand_counted(chunk_size, k=6):
    """Expand trap3's root under several iterations with a proposer that
    repeats itself; yields (children, proposals, clones, steps) each time."""
    spec = load_fixture("trap3")
    prop = proposer_from_fixture(spec, seed=3, duplicate_rate=0.6)
    for it in range(1, 9):
        counts = {"clone": 0, "step": 0}
        env = CountingEnv(GuiGraphEnv(spec), counts)
        out = expand_node(ROOT, prop, env, spec.alias_context(), k=k,
                          chunk_size=chunk_size, iteration=it)
        yield len(out), k, counts["clone"], counts["step"]


def test_one_atom_duplicates_are_never_played():
    runs = list(_expand_counted(chunk_size=1))
    assert any(children < k for children, k, _, _ in runs)  # dedup fired
    for children, _, clones, steps in runs:
        assert clones == steps == children


def test_chunked_candidates_are_all_played():
    runs = list(_expand_counted(chunk_size=2))
    assert any(children < k for children, k, _, _ in runs)
    for children, k, clones, steps in runs:
        assert clones == k and steps >= k
