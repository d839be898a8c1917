"""Fixture parsing, screen-graph semantics (alias resolution, absorbing
terminals, clone isolation), and the bandit reward family with its residual
noise contract."""
import math
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from alphauct.envs import (BanditSpec, FixtureError, GuiGraphEnv,
                           bandit_pull, builtin_fixtures, load_fixture,
                           parse_fixture, residual_noise)
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


def test_observation_lists_sorted_surfaces():
    spec = parse_fixture(MINI)
    obs = GuiGraphEnv(spec).observe()
    assert obs.screen == "home"
    assert obs.actions == ("Open the Menu", "click(100, 40)")
    assert obs.actions == tuple(sorted(obs.actions))


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
    """A spec built in code, not parsed, checks its policy weights too: an
    infinite weight would make every proposal draw fail."""
    spec = parse_fixture(MINI)
    with pytest.raises(FixtureError, match="positive and finite"):
        replace(spec, policy={"home": (("open_menu", weight),)})


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
])
def test_fixture_line_errors_name_the_line(tail, fragment):
    """Typos and bad numbers are errors at their line (the last one here),
    not silent defaults, truncations or bare conversion tracebacks."""
    text = MINI + tail
    with pytest.raises(FixtureError) as err:
        parse_fixture(text, name="mini")
    assert str(err.value).startswith(f"mini:{len(text.splitlines())}: ")
    assert fragment in str(err.value)


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


def test_bandit_spec_validation():
    with pytest.raises(ValueError):
        BanditSpec(means=())
    with pytest.raises(ValueError):
        BanditSpec(means=(0.5, 0.5))  # no unique best arm
    with pytest.raises(ValueError):
        BanditSpec(means=(0.6, 0.4), rho=1.5)
    with pytest.raises(ValueError):
        # 0.9 +- sqrt(0.04) = [0.7, 1.1] leaves the unit interval
        BanditSpec(means=(0.9, 0.4), sigma_x2=0.04)
    # uniform support is sqrt(3) wider than two-point at equal variance
    BanditSpec(means=(0.8, 0.4), sigma_x2=0.04, noise="two_point")
    with pytest.raises(ValueError):
        BanditSpec(means=(0.8, 0.4), sigma_x2=0.04, noise="uniform")


def test_bandit_spec_noise_validation():
    with pytest.raises(ValueError):
        BanditSpec(means=(0.6, 0.4), rho=1.5, sigma_x2=0.04)
    with pytest.raises(ValueError):
        BanditSpec(means=(0.6, 0.4), rho=0.5, sigma_x2=-1.0)
    with pytest.raises(ValueError):
        BanditSpec(means=(0.6, 0.4), rho=0.5, sigma_x2=0.04, noise="gaussian")


def test_bandit_derived_quantities():
    spec = BanditSpec(means=(0.45, 0.55, 0.35), sigma_x2=0.08, rho=0.25)
    assert spec.k == 3
    assert spec.best_arm == 1
    assert spec.gaps == pytest.approx((0.1, 0.2))
    assert spec.all_gaps == pytest.approx((0.1, 0.0, 0.2))
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
