"""Fixture parsing, screen-graph semantics (alias resolution, absorbing
terminals, clone isolation), and the bandit reward family with its residual
noise contract."""
import math
import re
import statistics

import pytest
from hypothesis import given, strategies as st

from alphauct.envs import (_FIXTURE_DIR, BanditSpec, FixtureError,
                           GuiGraphEnv, bandit_pull, builtin_fixtures,
                           load_fixture, parse_fixture, residual_noise)
from alphauct.expansion import normalize_action
from alphauct.rng import derive_rng

MINI = """
[meta]
instruction find the prize
[screens]
home menu prize pit
[start]
home
[goals]
prize
[traps]
pit
[edges]
home open_menu -> menu
menu claim -> prize
menu fall -> pit
[aliases]
open_menu = Open the Menu | click(100, 40)
[values]
home 0.0
menu 0.4
prize 1.0
pit -1.0
"""


def test_builtin_fixture_catalog():
    assert builtin_fixtures() == ("bottleneck2", "deep7", "trap3", "wide16")
    for name in builtin_fixtures():
        spec = load_fixture(name)
        assert spec.goals
        assert spec.start in spec.screens


def test_parse_fixture_round_trip_of_sections():
    spec = parse_fixture(MINI, name="mini")
    assert spec.instruction == "find the prize"
    assert spec.start == "home"
    assert spec.goals == {"prize"} and spec.traps == {"pit"}
    assert spec.edges[("home", "open_menu")] == "menu"
    assert spec.values["menu"] == 0.4
    assert spec.surfaces_of("open_menu") == ("Open the Menu", "click(100, 40)")
    assert spec.surfaces_of("claim") == ("claim",)  # no alias block


def test_alias_law_every_surface_reaches_same_screen():
    """All spellings of a canonical action, plus jittered/cased variants,
    land on the same destination."""
    spec = parse_fixture(MINI)
    for surface in ("open_menu", "Open the Menu", "open the menu",
                    "click(100, 40)", "Click (98, 42)"):
        env = GuiGraphEnv(spec)
        assert env.step(surface) is None  # observe() shows where it led
        obs = env.observe()
        assert obs.screen == "menu", surface
        assert obs.terminal == "none"


def test_unknown_and_inapplicable_actions_self_loop():
    spec = parse_fixture(MINI)
    env = GuiGraphEnv(spec)
    env.step("dance wildly")
    obs = env.observe()
    assert (obs.screen, obs.terminal) == ("home", "none")
    env.step("claim")  # real action, wrong screen
    obs = env.observe()
    assert (obs.screen, obs.terminal) == ("home", "none")


def test_terminal_rewards_and_absorption():
    """Entering the goal or the trap ends the episode for good; the
    environment reports which terminal it is and the judge scores it."""
    spec = parse_fixture(MINI)
    env = GuiGraphEnv(spec)
    env.step("open_menu")
    env.step("claim")
    assert env.observe().terminal == "success"
    env.step("open_menu")  # absorbing: no way out
    obs = env.observe()
    assert obs.screen == "prize" and obs.terminal == "success"

    env2 = GuiGraphEnv(spec)
    env2.step("open_menu")
    env2.step("fall")
    assert env2.observe().terminal == "failure"


def test_closet_trap_pays_minus_one():
    """The closet is trap3's failure terminal."""
    spec = load_fixture("trap3")
    env = GuiGraphEnv(spec)
    env.step("open_lobby")
    env.step("go_closet")
    assert env.observe().terminal == "failure"


def test_clone_isolation():
    spec = parse_fixture(MINI)
    env = GuiGraphEnv(spec)
    dup = env.clone()
    dup.step("open_menu")
    assert env.screen == "home"
    assert dup.screen == "menu"


def _variants(surface: str) -> list[str]:
    """A surface, cased and padded, and a ``name(x, y)`` call with each
    coordinate jittered inside its bucket."""
    out = [surface, surface.upper(), surface.lower(), f"  {surface} \t",
           surface.replace(" ", "  ")]
    head, _, args = surface.partition("(")
    nums = args.rstrip(")").split(",")
    if args and all(n.strip().lstrip("-").isdigit() for n in nums):
        for d in (-4, 3):
            out.append(f"{head}({', '.join(str(int(n) + d) for n in nums)})")
    return out


@pytest.mark.parametrize("name", builtin_fixtures())
def test_stepping_agrees_with_dedup(name):
    """Every spelling expansion would treat as one operation leads where the
    edge under its normalized key leads; anything else self-loops."""
    spec = load_fixture(name)
    ctx = spec.alias_context()
    actions = [v for surface in ctx for v in _variants(surface)]
    actions += ["dance wildly", "click(-999, 12345)", "open_lobby;go_closet"]
    for screen in spec.screens:
        if spec.terminal_of(screen) != "none":
            continue
        for action in actions:
            env = GuiGraphEnv(spec)
            env._screen = screen
            env.step(action)
            want = spec.edges.get(
                (screen, normalize_action(action, ctx)), screen)
            assert env.screen == want, (screen, action)
        for blank in ("", "   "):
            env = GuiGraphEnv(spec)
            env._screen = screen
            env.step(blank)
            assert env.screen == screen


@pytest.mark.parametrize("mangle,fragment", [
    (lambda t: t.replace("[start]\nhome", "[start]\nelsewhere"), "start"),
    (lambda t: t.replace("[goals]\nprize\n", "[goals]\n"), "goal"),
    (lambda t: t.replace("menu claim -> prize", "menu claim -> nowhere"), "map"),
    (lambda t: t.replace("home 0.0", "home 7.0"), "[-1, 1]"),
    (lambda t: t.replace("menu claim -> prize", "menu Claim -> prize"),
     "normal form"),
    (lambda t: t + "\n[edges]\nprize reopen -> home\n", "outgoing"),
])
def test_fixture_validation_errors(mangle, fragment):
    with pytest.raises(FixtureError) as err:
        parse_fixture(mangle(MINI))
    assert fragment in str(err.value)


@pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
def test_policy_weights_must_be_positive_and_finite(weight):
    """A zero or negative weight is an error at its line, and so is an
    infinite or NaN one, which would make every proposal draw fail."""
    text = MINI + f"[policy]\nhome open_menu {weight}"
    with pytest.raises(FixtureError) as err:
        parse_fixture(text, name="mini")
    want = ("policy weights must be positive and finite"
            if math.isfinite(weight)
            else f"expected a finite number, got {str(weight)!r}")
    assert str(err.value) == f"mini:{len(text.splitlines())}: {want}"


@pytest.mark.parametrize("tail, fragment", [
    ("[polcy]", "unknown section [polcy]"),
    ("[proposer]\nduplicate_rte 0.6", "unknown proposer key 'duplicate_rte'"),
    ("[proposer]\ninfeasible_after inf", "finite number, got 'inf'"),
    ("[proposer]\ninfeasible_after 2.5", "whole number, got '2.5'"),
    ("[proposer]\nreflection_gain nan", "finite number, got 'nan'"),
    ("[proposer]\nduplicate_rate 1.5", "duplicate_rate must be in [0, 1]"),
    ("[proposer]\nreflection_gain -1", "reflection_gain must be >= 0"),
    ("[proposer]\ninfeasible_after -1", "infeasible_after must be >= 0"),
    ("[values]\nmenu 0.4x", "finite number, got '0.4x'"),
    ("[values]\nmenu 0.5", "duplicate value for screen 'menu'"),
    ("[policy]\nhome open_menu 1\nhome open_menu 2",
     "duplicate policy entry home open_menu"),
    ("[proposer]\nduplicate_rate 0.1\nduplicate_rate 0.2",
     "duplicate proposer key 'duplicate_rate'"),
    ("[meta]\nbudget 5", "unknown meta key 'budget'"),
    ("[meta]\ninstruction again", "duplicate meta key 'instruction'"),
    ("[meta]\ninstruction", "instruction needs text"),
    ("[edges]\nhome open_menu -> pit", "duplicate edge home open_menu"),
    ("[aliases]\nopen_menu = open it", "duplicate alias block for 'open_menu'"),
    ("[aliases]\nclaim = take it | grab it | take it",
     "spelling 'take it' repeated for 'claim'"),
    ("[goals]\nprize", "screen 'prize' listed twice in [goals]"),
    ("[traps]\npit", "screen 'pit' listed twice in [traps]"),
])
def test_fixture_line_errors_name_the_line(tail, fragment):
    """Typos and bad numbers are errors at their line (the last one here),
    not silent defaults, truncations or bare conversion tracebacks."""
    text = MINI + tail
    with pytest.raises(FixtureError) as err:
        parse_fixture(text, name="mini")
    assert str(err.value).startswith(f"mini:{len(text.splitlines())}: ")
    assert fragment in str(err.value)


def test_proposer_line_needs_a_key_and_one_value():
    text = MINI + "[proposer]\nduplicate_rate 0.1 0.2"
    with pytest.raises(FixtureError) as err:
        parse_fixture(text, name="mini")
    assert str(err.value) == (f"mini:{len(text.splitlines())}: bad proposer "
                              f"line 'duplicate_rate 0.1 0.2'")


def _edit(old: str, new: str) -> str:
    assert old in MINI
    return MINI.replace(old, new)


# Each check on what the entries mean, with its whole message: ``{last}`` is
# the text's last line.  A check that spans two lines names the later one;
# only a missing start line or goal and an unreachable goal name no line.
MEANING_ERRORS = {
    "duplicate_screen_ids": (MINI + "[screens]\nmenu",
                             "mini:{last}: duplicate screen ids"),
    "unknown_start": (_edit("[start]\nhome", "[start]\nelsewhere"),
                      "mini:7: unknown start screen 'elsewhere'"),
    "no_start": (_edit("[start]\nhome\n", ""),
                 "mini: [start] needs exactly one id"),
    "two_starts": (MINI + "[start]\nmenu",
                   "mini:{last}: [start] needs exactly one id"),
    "undeclared_terminal": (MINI + "[goals]\nnowhere",
                            "mini:{last}: terminal screen 'nowhere' not "
                            "declared"),
    "trap_also_goal": (MINI + "[traps]\nprize",
                       "mini:{last}: goal and trap sets overlap"),
    "goal_also_trap": (MINI + "[goals]\npit",
                       "mini:{last}: goal and trap sets overlap"),
    "no_goal": (_edit("[goals]\nprize\n", "[goals]\n"),
                "mini: fixture declares no goal screen"),
    "edge_off_the_map": (_edit("menu claim -> prize", "menu claim -> nowhere"),
                         "mini:14: edge 'menu'-[claim]->'nowhere' off the "
                         "map"),
    "edge_from_terminal": (MINI + "[edges]\nprize reopen -> home",
                           "mini:{last}: terminal screen 'prize' has "
                           "outgoing edges"),
    "terminal_with_edges": (MINI + "[goals]\nmenu",
                            "mini:{last}: terminal screen 'menu' has "
                            "outgoing edges"),
    "canonical_not_normal": (_edit("menu claim -> prize",
                                   "menu Claim -> prize"),
                             "mini:14: canonical id 'Claim' is not normal "
                             "form"),
    "alias_unused": (MINI + "[aliases]\nfly = take off",
                     "mini:{last}: alias for unused canonical 'fly'"),
    "alias_empty": (MINI + "[aliases]\nclaim =",
                    "mini:{last}: empty alias list for 'claim'"),
    "alias_clash": (MINI + "[aliases]\nclaim = OPEN the menu",
                    "mini:{last}: surface 'open the menu' maps to both "
                    "'open_menu' and 'claim'"),
    "canonical_clash": (MINI + "[edges]\nmenu click(100,40) -> home",
                        "mini:{last}: surface 'click(100,40)' maps to both "
                        "'click(100,40)' and 'open_menu'"),
    "value_unknown_screen": (MINI + "nowhere 0.5",
                             "mini:{last}: value for unknown screen "
                             "'nowhere'"),
    "value_out_of_range": (_edit("home 0.0", "home 7.0"),
                           "mini:19: screen value 7.0 outside [-1, 1]"),
    "policy_unknown_screen": (MINI + "[policy]\nnowhere claim 1",
                              "mini:{last}: policy for unknown screen "
                              "'nowhere'"),
    "policy_without_edge": (MINI + "[policy]\nhome claim 1",
                            "mini:{last}: policy action 'claim' has no edge "
                            "at 'home'"),
    "policy_weight": (MINI + "[policy]\nhome open_menu 0",
                      "mini:{last}: policy weights must be positive and "
                      "finite"),
    "goal_unreachable": (_edit("menu claim -> prize", "menu claim -> home"),
                         "mini: no goal reachable from 'home'"),
}


@pytest.mark.parametrize("case", sorted(MEANING_ERRORS))
def test_meaning_errors_name_the_line(case):
    text, message = MEANING_ERRORS[case]
    with pytest.raises(FixtureError) as err:
        parse_fixture(text, name="mini")
    assert str(err.value) == message.format(last=len(text.splitlines()))


def test_fixture_file_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "latin.env"
    path.write_bytes(MINI.replace("prize\n", "caf\xe9\n", 1)
                     .encode("latin-1"))
    with pytest.raises(FixtureError) as err:
        load_fixture(str(path))
    assert str(err.value) == "latin:3: not UTF-8 text"


def test_line_before_the_first_header_is_an_error():
    with pytest.raises(FixtureError) as err:
        parse_fixture("\n# comment\ninstruction find it\n" + MINI,
                      name="mini")
    assert str(err.value).startswith(
        "mini:3: line 'instruction find it' before the first section header")


_SOUP_HEADERS = st.sampled_from(
    ["[meta]", "[screens]", "[start]", "[goals]", "[traps]", "[edges]",
     "[aliases]", "[values]", "[policy]", "[proposer]", "[Policy]", "[polcy]",
     "[]", "["])
_SOUP_TOKENS = st.sampled_from(
    ["home", "menu", "prize", "pit", "open_menu", "claim", "Claim", "->", "=",
     "|", "#", "0", "1", "-1", "0.5", "2.5", "1e9", "inf", "nan", "x1",
     "duplicate_rate", "reflection_gain", "infeasible_after", "click(1, 2)"])


@given(st.lists(st.one_of(_SOUP_HEADERS,
                          st.lists(_SOUP_TOKENS, max_size=5).map(" ".join)),
                max_size=30),
       st.booleans())
def test_parse_fixture_soup_loads_or_raises_fixture_error(lines, on_mini):
    text = "\n".join(lines)
    try:
        parse_fixture(MINI + text if on_mini else text)
    except FixtureError:
        pass


_ABSENT = re.compile(r"(\[start\] needs exactly one id|fixture declares no "
                     r"goal screen|no goal reachable from '[^']*')")


@pytest.mark.parametrize("name", builtin_fixtures())
def test_mangled_builtin_loads_or_names_the_line(name):
    """Each line of a built-in fixture deleted, repeated, or with one of its
    tokens swapped for an unknown screen: the text loads, or its error
    names the fixture and a line (a repeated line's error names the copy);
    only the absent-thing errors name no line."""
    lines = (_FIXTURE_DIR / f"{name}.env").read_text(
        encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        swaps = [" ".join(tokens[:j] + ["nowhere"] + tokens[j + 1:])
                 for j in range(len(tokens))]
        for kind, new in [("delete", []), ("repeat", [line, line]),
                          *(("swap", [swap]) for swap in swaps)]:
            try:
                parse_fixture("\n".join(lines[:i] + new + lines[i + 1:]),
                              name=name)
            except FixtureError as exc:
                msg = str(exc)
                if kind == "repeat":
                    assert msg.startswith(f"{name}:{i + 2}: "), msg
                else:
                    assert (re.match(rf"{name}:\d+: ", msg)
                            or _ABSENT.fullmatch(msg[len(name) + 2:])), msg


def test_unreachable_goal_rejected():
    text = MINI.replace("menu claim -> prize", "menu claim -> menu2")
    text = text.replace("[screens]\nhome menu prize pit",
                        "[screens]\nhome menu menu2 prize pit")
    with pytest.raises(FixtureError) as err:
        parse_fixture(text)
    assert "reachable" in str(err.value)


def test_load_fixture_unknown_name():
    with pytest.raises(FixtureError):
        load_fixture("atlantis")


# -- bandits -------------------------------------------------------------------


BANDIT = BanditSpec(means=(0.6, 0.4))  # every other field at its default


def test_bandit_spec_validation(routes):
    for build in routes:
        with pytest.raises(ValueError):
            build(BANDIT, means=())
        with pytest.raises(ValueError):
            build(BANDIT, means=(0.5, 0.5))  # no unique best arm
        with pytest.raises(ValueError):
            build(BANDIT, rho=1.5)
        with pytest.raises(ValueError):
            # 0.9 +- sqrt(0.04) = [0.7, 1.1] leaves the unit interval
            build(BANDIT, means=(0.9, 0.4), sigma_x2=0.04)
        # uniform support is sqrt(3) wider than two-point at equal variance
        spec = build(BANDIT, means=(0.8, 0.4), sigma_x2=0.04)
        assert type(spec) is BanditSpec and spec.noise == "two_point"
        with pytest.raises(ValueError):
            build(BANDIT, means=(0.8, 0.4), sigma_x2=0.04, noise="uniform")


@pytest.mark.parametrize("kwargs", [
    dict(means=(0.6, 0.4), sigma_x2=math.nan),
    dict(means=(0.6, 0.4), sigma_x2=math.inf),
    dict(means=(0.5, math.nan)),
    dict(means=(math.nan, 0.5)),
    dict(means=(0.5, math.inf)),
    dict(means=(0.6, -math.inf)),
])
def test_bandit_spec_rejects_non_finite_values(kwargs, routes):
    """A NaN arm would drop out of ``gaps`` (so the bound ignores it) while
    the regret curve turns NaN; a NaN variance passes every range check."""
    for build in routes:
        with pytest.raises(ValueError, match="finite"):
            build(BANDIT, **kwargs)


def test_bandit_spec_noise_validation(routes):
    for build in routes:
        with pytest.raises(ValueError):
            build(BANDIT, rho=1.5, sigma_x2=0.04)
        with pytest.raises(ValueError):
            build(BANDIT, rho=0.5, sigma_x2=-1.0)
        with pytest.raises(ValueError):
            build(BANDIT, rho=0.5, sigma_x2=0.04, noise="gaussian")


def test_bandit_derived_quantities():
    spec = BanditSpec(means=(0.45, 0.55, 0.35), sigma_x2=0.08, rho=0.25)
    assert spec.k == 3
    assert spec.best_arm == 1
    assert spec.gaps == pytest.approx((0.1, 0.2))
    assert spec.residual_var == pytest.approx(0.02)


def test_noiseless_bandit_reward_is_the_mean():
    spec = BanditSpec(means=(0.6, 0.4))
    rng = derive_rng(0, "pull").generator()
    for arm in (0, 1):
        assert bandit_pull(spec, arm, rng) == spec.means[arm]
    with pytest.raises(ValueError):
        bandit_pull(spec, 2, rng)


def test_two_point_pull_support():
    spec = BanditSpec(means=(0.6, 0.4), sigma_x2=0.04, rho=1.0)
    rng = derive_rng(1, "pull").generator()
    seen = set()
    for _ in range(64):
        seen.add(round(bandit_pull(spec, 0, rng), 12))
    assert seen == {round(0.6 - 0.2, 12), round(0.6 + 0.2, 12)}


def test_rho_scales_residual_not_the_mean():
    full = BanditSpec(means=(0.6, 0.4), sigma_x2=0.04, rho=1.0)
    quarter = BanditSpec(means=(0.6, 0.4), sigma_x2=0.04, rho=0.25)
    r_full = [bandit_pull(full, 0, derive_rng(s, "p").generator())
              for s in range(200)]
    r_quarter = [bandit_pull(quarter, 0, derive_rng(s, "p").generator())
                 for s in range(200)]
    dev_full = max(abs(r - 0.6) for r in r_full)
    dev_quarter = max(abs(r - 0.6) for r in r_quarter)
    assert dev_full == pytest.approx(0.2)
    assert dev_quarter == pytest.approx(0.1)  # sqrt(rho) shrinkage
    assert dev_quarter == pytest.approx(dev_full * math.sqrt(0.25))


def test_bandit_pull_rho_zero_is_the_mean():
    perfect = BanditSpec(means=(0.6, 0.4), sigma_x2=0.04, rho=0.0)
    assert perfect.residual_var == 0.0
    rng = derive_rng(0, "pred").generator()
    assert bandit_pull(perfect, 0, rng) == 0.6  # rho=0: no residual at all
    blind = BanditSpec(means=(0.6, 0.4), sigma_x2=0.04, rho=1.0)
    assert blind.residual_var == pytest.approx(0.04)


@pytest.mark.parametrize("noise", ["two_point", "uniform"])
def test_pull_variance_matches_contract(noise):
    spec = BanditSpec(means=(0.5, 0.4), sigma_x2=0.04, rho=0.25, noise=noise)
    assert spec.residual_var == pytest.approx(0.01)
    rng = derive_rng(1, "pred-var").generator()
    draws = [bandit_pull(spec, 0, rng) - 0.5 for _ in range(40_000)]
    assert statistics.mean(draws) == pytest.approx(0.0, abs=0.005)
    assert statistics.variance(draws) == pytest.approx(0.01, rel=0.10)
    hw = 0.1 if noise == "two_point" else 0.1 * math.sqrt(3.0)
    assert all(abs(d) <= hw + 1e-12 for d in draws)
    if noise == "two_point":
        assert max(abs(d) for d in draws) == pytest.approx(hw)


def test_bandit_pull_uses_one_draw_always():
    """Draw-count parity keeps scalar and vectorized paths on shared streams."""
    for spec in (BanditSpec(means=(0.5, 0.4), sigma_x2=0.04, rho=0.0),
                 BanditSpec(means=(0.5, 0.4), sigma_x2=0.0),
                 BanditSpec(means=(0.5, 0.45), sigma_x2=0.06, rho=0.5,
                            noise="uniform")):
        a = derive_rng(3, "parity").generator()
        b = derive_rng(3, "parity").generator()
        bandit_pull(spec, 1, a)
        b.random()
        assert a.random() == b.random()


@given(st.floats(0, 1))
def test_residual_noise_is_bounded_and_symmetric(u):
    s = 0.2
    x = residual_noise(u, s, "uniform")
    assert abs(x) <= s * math.sqrt(3.0) + 1e-12
    assert residual_noise(1.0 - u, s, "uniform") == pytest.approx(-x, abs=1e-12)


def test_residual_noise_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown noise kind 'bogus'"):
        residual_noise(0.5, 0.1, "bogus")
