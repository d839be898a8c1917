"""Command-line behavior: artifact layout, exit codes, config-file layering,
the rho sweep, manifest reruns, and the output-directory env var."""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from alphauct import kernel, verify
from alphauct.cli import (_DEFAULTS, _TYPES, OUT_ENV_VAR, UsageError, _resolve,
                          build_parser, main)
from alphauct.envs import _FIXTURE_DIR


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


SEARCH_ARGS = ["search", "--env", "trap3", "--iters", "20", "--expansion", "5",
               "--chunk", "1", "--backup", "max", "--judge", "comparative",
               "--seed", "7"]


def test_search_writes_artifacts_and_succeeds(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(*SEARCH_ARGS, "--out", str(out)) == 0
    for name in ("tree.txt", "trace.txt", "result.json", "manifest.json"):
        assert (out / name).exists(), name
    result = read_json(out / "result.json")
    assert result["outcome"] == "success"
    assert result["best_path_normalized"] == ["open_lobby", "go_vault",
                                              "open_goal"]
    assert result == json.loads(capsys.readouterr().out)
    assert (out / "tree.txt").read_text().startswith("# tree v1\n")
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "search"
    assert manifest["config"]["max_iterations"] == 20
    assert manifest["artifacts"]["result"] == "result.json"


def test_search_usage_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert run_cli("search", "--env", "trap3", "--expansion", "0",
                   "--out", out) == 2
    assert run_cli("search", "--out", out) == 2  # no env anywhere
    assert run_cli("search", "--env", "atlantis", "--out", out) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("[policy]", "[polcy]"),
    ("duplicate_rate 0.0", "duplicate_rte 0.6"),
    ("infeasible_after 0", "infeasible_after inf"),
    ("infeasible_after 0", "infeasible_after 2.5"),
    ("duplicate_rate 0.0", "duplicate_rate 1.5"),
    ("lobby 0.3", "lobby zero"),
])
def test_search_malformed_fixture_exits_2(tmp_path, capsys, old, new):
    text = (_FIXTURE_DIR / "trap3.env").read_text()
    assert text.count(old) == 1
    env = tmp_path / "typo.env"
    text = text.replace(old, new)
    env.write_text(text)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1)
                  if line.startswith(new))
    out = tmp_path / "run"
    assert run_cli("search", "--env", str(env), "--out", str(out)) == 2
    _one_error_line(capsys, f"error: typo:{lineno}: ")
    assert _no_artifacts(out)


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("conquer") == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, names", [
    (["bandit", "--arms", "abc"], ["--arms", "'abc'"]),
    (["bandit", "--rho-grid", "abc"], ["--rho-grid", "'abc'"]),
    ([], ["command"]),  # no subcommand
    # a number key takes only a finite number, checked before anything runs
    (["search", "--env", "trap3", "--judge-latency", "inf"],
     ["'judge_latency'"]),
    (["search", "--env", "trap3", "--judge-noise", "nan"], ["'judge_noise'"]),
    (["search", "--env", "trap3", "--judge-offset", "inf"],
     ["'judge_offset'"]),
    (["search", "--env", "trap3", "--c", "inf"], ["'c'"]),
    (["bandit", "--rho-grid", "0.25,inf"], ["'rho_grid'"]),
    # retired flags, even at their old defaults: search has one selection
    # rule, bandit one policy, and verify alone runs the speedup probe
    (["ablate", "--parallel-actions", "8", "--judge-latency", "0.05"],
     ["--parallel-actions", "--judge-latency"]),
    (["search", "--env", "trap3", "--selection", "alpha_uct"],
     ["--selection"]),
    (["bandit", "--algo", "alpha"], ["--algo"]),
    (["bandit", "--algo", "uct"], ["--algo"]),
    # an empty element is refused, not dropped
    (["bandit", "--rho-grid", "0.5,,1"], ["--rho-grid", "'0.5,,1'"]),
    (["bandit", "--rho-grid", "0.5,"], ["--rho-grid", "'0.5,'"]),
])
def test_flag_errors_print_one_line(tmp_path, monkeypatch, capsys, argv,
                                    names):
    monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "runs"))
    assert run_cli(*argv) == 2
    _one_error_line(capsys, *names)
    assert not (tmp_path / "runs").exists()


def test_help_still_exits_0(capsys):
    assert run_cli("--help") == 0
    assert run_cli("bandit", "--help") == 0
    assert "usage: alphauct bandit" in capsys.readouterr().out


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"env": "trap3", "max_iterations": 5,
                               "judge_noise": 0.05}))
    out = tmp_path / "run"
    # flag beats file, file beats default
    assert run_cli("search", "--config", str(cfg), "--iters", "9",
                   "--out", str(out)) == 0
    conf = read_json(out / "manifest.json")["config"]
    assert conf["max_iterations"] == 9
    assert conf["judge_noise"] == 0.05
    assert conf["expansion_factor"] == 5  # untouched default


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"env": "trap3", "budget": 10}))
    assert run_cli("search", "--config", str(cfg),
                   "--out", str(tmp_path / "r")) == 2
    assert "budget" in capsys.readouterr().err
    cfg.write_text(json.dumps({"env": "trap3", "seed": "7"}))
    assert run_cli("search", "--config", str(cfg),
                   "--out", str(tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'seed'" in err
    cfg.write_text(json.dumps(["env", "trap3"]))
    assert run_cli("search", "--config", str(cfg),
                   "--out", str(tmp_path / "r")) == 2
    capsys.readouterr()


def test_config_bool_is_not_a_count(tmp_path, capsys):
    """JSON ``true`` is an int to Python; a manifest's count key refuses it
    in one line."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "command": "bandit", "config": {**_DEFAULTS["bandit"], "seeds": True}}))
    assert run_cli("rerun", str(manifest), "--out", str(tmp_path / "r")) == 2
    assert capsys.readouterr().err == ("error: config key 'seeds' must be a "
                                       "int, got True\n")


def test_bandit_curve_artifacts(tmp_path, capsys):
    out = tmp_path / "bandit"
    assert run_cli("bandit", "--arms", "3", "--gap", "0.1", "--sigma2", "0.04",
                   "--horizon", "500", "--seeds", "5", "--out", str(out)) == 0
    header, rows = csv_rows(out / "curve.csv")
    assert header == ["t", "mean_regret", "std_regret", "bound"]
    assert rows[-1][0] == "500"
    assert float(rows[-1][3]) >= float(rows[0][3])  # bound grows with t
    summary = read_json(out / "summary.json")
    assert {"final_mean_regret", "bound_total", "fit"} <= set(summary)
    assert summary["final_mean_regret"] <= summary["bound_total"]
    capsys.readouterr()


def test_one_seed_curve_has_zero_spread(tmp_path, capsys):
    out = tmp_path / "bandit"
    assert run_cli("bandit", "--arms", "3", "--gap", "0.1", "--sigma2", "0.04",
                   "--horizon", "500", "--seeds", "1", "--out", str(out)) == 0
    header, rows = csv_rows(out / "curve.csv")
    assert header[2] == "std_regret"
    assert {float(row[2]) for row in rows} == {0.0}
    capsys.readouterr()


def test_bandit_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "b")
    assert run_cli("bandit", "--rho", "1.5", "--out", out) == 2
    assert run_cli("bandit", "--arms", "1", "--out", out) == 2
    assert run_cli("bandit", "--seeds", "0", "--out", out) == 2
    assert run_cli("bandit", "--rho-grid", "abc", "--out", out) == 2
    # support violation surfaces as a config error, not a crash
    assert run_cli("bandit", "--gap", "0.9", "--sigma2", "0.04",
                   "--out", out) == 2
    capsys.readouterr()


def test_bandit_rho_grid_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("bandit", "--arms", "3", "--gap", "0.1", "--sigma2", "0.1",
                   "--horizon", "800", "--seeds", "6",
                   "--rho-grid", "0.25,1.0", "--out", str(out)) == 0
    header, rows = csv_rows(out / "ratios.csv")
    assert header == ["rho", "ratio", "ci_lo", "ci_hi", "mean_regret",
                      "base_mean_regret", "n_seeds"]
    assert [r[0] for r in rows] == ["0.25", "1.0"]
    assert float(rows[-1][1]) == 1.0  # blind baseline against itself
    assert not (out / "curve.csv").exists()
    capsys.readouterr()


def test_ablate_artifacts(tmp_path, capsys):
    out = tmp_path / "ablate"
    assert run_cli("ablate", "--fixture", "trap3", "--seeds", "4",
                   "--out", str(out)) == 0
    header, rows = csv_rows(out / "ablation.csv")
    assert header == ["judge_mode", "backup", "successes", "runs", "rate"]
    assert len(rows) == 4  # 2x2 grid
    assert {(r[0], r[1]) for r in rows} == \
        {("comparative", "max"), ("comparative", "mean"),
         ("independent", "max"), ("independent", "mean")}
    summary = read_json(out / "summary.json")
    assert set(summary["tests"]) == {"max_vs_mean",
                                     "comparative_vs_independent"}
    assert sorted(p.name for p in out.iterdir()) == \
        ["ablation.csv", "manifest.json", "summary.json"]
    capsys.readouterr()


def test_rerun_reproduces_bytes(tmp_path, capsys):
    first, again = tmp_path / "a", tmp_path / "b"
    assert run_cli(*SEARCH_ARGS, "--out", str(first)) == 0
    # accepts the manifest path or its directory
    assert run_cli("rerun", str(first / "manifest.json"),
                   "--out", str(again)) == 0
    for name in ("tree.txt", "trace.txt", "result.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    third = tmp_path / "c"
    assert run_cli("rerun", str(first), "--out", str(third)) == 0
    assert (first / "tree.txt").read_bytes() == (third / "tree.txt").read_bytes()
    capsys.readouterr()


def test_search_and_rerun_in_an_ascii_locale(tmp_path):
    """Fixtures and artifacts are UTF-8 whatever the locale (trap3's header
    holds an em dash), and no file is opened without an encoding."""
    path = [str(_FIXTURE_DIR.parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONWARNDEFAULTENCODING": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    first, again = tmp_path / "a", tmp_path / "b"
    for argv in (["search", "--env", "trap3", "--iters", "2", "--out",
                  str(first)], ["rerun", str(first), "--out", str(again)]):
        res = subprocess.run([sys.executable, "-W", "error::EncodingWarning",
                              "-m", "alphauct.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
    assert (first / "tree.txt").read_bytes() == (again / "tree.txt").read_bytes()


def test_rerun_warns_on_another_package_version(tmp_path, capsys):
    first = tmp_path / "a"
    assert run_cli(*SEARCH_ARGS, "--out", str(first)) == 0
    capsys.readouterr()
    assert run_cli("rerun", str(first), "--out", str(tmp_path / "b")) == 0
    assert capsys.readouterr().err == ""  # same version: silent
    data = read_json(first / "manifest.json")
    data["package_version"] = "0.1.0"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    assert run_cli("rerun", str(old), "--out", str(tmp_path / "c")) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1, err
    assert "0.1.0" in err
    assert (first / "tree.txt").read_bytes() == \
        (tmp_path / "c" / "tree.txt").read_bytes()


def test_rerun_warns_on_another_numpy_version(tmp_path, capsys):
    first = tmp_path / "a"
    assert run_cli(*SEARCH_ARGS, "--out", str(first)) == 0
    capsys.readouterr()
    data = read_json(first / "manifest.json")
    data["numpy_version"] = "0.0.1"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    assert run_cli("rerun", str(old), "--out", str(tmp_path / "b")) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1, err
    assert "numpy 0.0.1" in err
    assert (first / "tree.txt").read_bytes() == \
        (tmp_path / "b" / "tree.txt").read_bytes()


def test_rerun_rejects_foreign_manifests(tmp_path, capsys):
    bogus = tmp_path / "manifest.json"
    bogus.write_text(json.dumps({"command": "teleport", "config": {}}))
    assert run_cli("rerun", str(bogus), "--out", str(tmp_path / "o")) == 2
    missing = tmp_path / "incomplete.json"
    missing.write_text(json.dumps({"command": "search"}))
    assert run_cli("rerun", str(missing), "--out", str(tmp_path / "o2")) == 2
    assert run_cli("rerun", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o3")) == 2
    capsys.readouterr()
    config = {"env": "trap3", "judge_offset": 0.0, "judge_latency": 0.0}
    no_noise = tmp_path / "no_noise.json"
    no_noise.write_text(json.dumps({"command": "search", "config": config}))
    assert run_cli("rerun", str(no_noise), "--out", str(tmp_path / "o4")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'judge_noise'" in err
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({"command": "search", "config": [1, 2]}))
    assert run_cli("rerun", str(listed), "--out", str(tmp_path / "o5")) == 2
    capsys.readouterr()
    for text in ("42", '{"command": ["search"], "config": {}}'):
        listed.write_text(text)
        assert run_cli("rerun", str(listed), "--out", str(tmp_path / "o6")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _rerun_with(tmp_path, manifest_dir, key, value):
    """Rerun ``manifest_dir``'s manifest with one config value replaced."""
    data = read_json(manifest_dir / "manifest.json")
    data["config"][key] = value
    edited = tmp_path / f"edited_{key}.json"
    edited.write_text(json.dumps(data))
    return run_cli("rerun", str(edited), "--out", str(tmp_path / "again"))


def test_rerun_rejects_mistyped_bandit_value(tmp_path, capsys):
    first = tmp_path / "bandit"
    assert run_cli("bandit", "--arms", "3", "--horizon", "200", "--seeds", "2",
                   "--out", str(first)) == 0
    capsys.readouterr()
    assert _rerun_with(tmp_path, first, "horizon", "200") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'horizon'" in err


def test_rerun_rejects_mistyped_search_value(tmp_path, capsys):
    first = tmp_path / "search"
    assert run_cli(*SEARCH_ARGS, "--out", str(first)) == 0
    capsys.readouterr()
    assert _rerun_with(tmp_path, first, "seed", "7") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'seed'" in err


def _one_error_line(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for name in names:
        assert name in err, err
    return err


def _no_artifacts(out):
    return not out.exists()


def test_a_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    """A latin-1 ``--config`` file exits 2 with one error line that names
    the file, not a codec message."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes('{"env": "trap3", "note": "café"}'.encode("latin-1"))
    out = tmp_path / "run"
    assert run_cli("search", "--config", str(cfg), "--out", str(out)) == 2
    _one_error_line(capsys, f"cannot read config file {cfg}: not UTF-8 text")
    assert _no_artifacts(out)


def test_a_manifest_that_is_not_utf8_is_named(tmp_path, capsys):
    """``rerun`` of a latin-1 ``manifest.json`` exits 2 with one error line
    that names the file, not a codec message."""
    first = tmp_path / "search"
    assert run_cli(*SEARCH_ARGS, "--out", str(first)) == 0
    data = read_json(first / "manifest.json")
    data["note"] = "café"
    manifest = tmp_path / "latin1" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_bytes(json.dumps(data, ensure_ascii=False)
                         .encode("latin-1"))
    capsys.readouterr()
    again = tmp_path / "again"
    assert run_cli("rerun", str(manifest.parent), "--out", str(again)) == 2
    _one_error_line(capsys,
                    f"cannot read manifest file {manifest}: not UTF-8 text")
    assert _no_artifacts(again)


def test_a_truncated_config_file_is_named(tmp_path, capsys):
    """A ``--config`` file that is not valid JSON, or is missing, exits 2
    with one error line that names the file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"env": ', encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("search", "--config", str(cfg), "--out", str(out)) == 2
    assert _one_error_line(capsys) == (
        f"error: cannot read config file {cfg}: Expecting value: line 1 "
        "column 9 (char 8)\n")
    cfg.unlink()
    assert run_cli("search", "--config", str(cfg), "--out", str(out)) == 2
    assert _one_error_line(capsys) == (
        f"error: cannot read config file {cfg}: No such file or directory\n")
    assert _no_artifacts(out)


def test_a_truncated_manifest_is_named(tmp_path, capsys):
    """``rerun`` of a ``manifest.json`` that is not valid JSON, or of a
    directory without one, exits 2 with one error line that names the
    file."""
    manifest = tmp_path / "cut" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_text('{"command": ', encoding="utf-8")
    again = tmp_path / "again"
    assert run_cli("rerun", str(manifest.parent), "--out", str(again)) == 2
    assert _one_error_line(capsys) == (
        f"error: cannot read manifest file {manifest}: Expecting value: "
        "line 1 column 13 (char 12)\n")
    manifest.unlink()
    assert run_cli("rerun", str(manifest.parent), "--out", str(again)) == 2
    assert _one_error_line(capsys) == (
        f"error: cannot read manifest file {manifest}: No such file or "
        "directory\n")
    assert _no_artifacts(again)


@pytest.mark.parametrize("flag, value, key", [
    ("--horizon", 10**20, "horizon"),  # past int64
    ("--seeds", 10**15, "seeds"),  # 284 PiB of cells, past any address space
    ("--seeds", 10**20, "seeds"),  # past numpy's largest dimension
])
def test_bandit_sizes_past_the_machine_exit_2(tmp_path, capsys, flag, value,
                                               key):
    """A horizon past 2^53, or a seed count whose arrays cannot be
    allocated, exits 2 with one error line that names its key: no warning,
    no traceback and no output directory."""
    out = tmp_path / "run"  # a warning fails the test (pyproject.toml)
    assert run_cli("bandit", flag, str(value), "--out", str(out)) == 2
    _one_error_line(capsys, key)
    assert _no_artifacts(out)


def test_rerun_rejects_unknown_key(tmp_path, capsys):
    first = tmp_path / "bandit"
    assert run_cli("bandit", "--arms", "3", "--horizon", "200", "--seeds", "2",
                   "--out", str(first)) == 0
    capsys.readouterr()
    assert _rerun_with(tmp_path, first, "horizn", 50) == 2
    _one_error_line(capsys, "'horizn'")
    assert _no_artifacts(tmp_path / "again")


@pytest.mark.parametrize("argv, key, value", [
    (SEARCH_ARGS, "selection", "alpha_uct"),
    (["bandit", "--arms", "3", "--horizon", "200", "--seeds", "2"],
     "algo", "alpha"),
    (["ablate", "--seeds", "1", "--iters", "2"], "parallel_actions", 0),
    (["ablate", "--seeds", "1", "--iters", "2"], "judge_latency", 0.05),
])
def test_rerun_rejects_retired_config_keys(tmp_path, capsys, argv, key, value):
    """Manifests written while search took a selection rule, bandit an
    algorithm and ablate the speedup probe's options carry a key the tables
    no longer hold."""
    first = tmp_path / "first"
    assert run_cli(*argv, "--out", str(first)) == 0
    capsys.readouterr()
    assert _rerun_with(tmp_path, first, key, value) == 2
    _one_error_line(capsys, "unknown config keys", f"'{key}'")
    assert _no_artifacts(tmp_path / "again")


@pytest.mark.parametrize("key, value, flag", [
    ("arms", 1, ["--arms", "1"]),
    ("horizon", 2, ["--horizon", "2"]),
])
def test_rerun_applies_bandit_range_checks(tmp_path, capsys, key, value, flag):
    first = tmp_path / "bandit"
    assert run_cli("bandit", "--arms", "3", "--horizon", "200", "--seeds", "2",
                   "--out", str(first)) == 0
    capsys.readouterr()
    assert _rerun_with(tmp_path, first, key, value) == 2
    err = _one_error_line(capsys, repr(key))
    assert _no_artifacts(tmp_path / "again")
    # the flag gives the same error line
    assert run_cli("bandit", "--arms", "3", "--horizon", "200", *flag,
                   "--out", str(tmp_path / "flag")) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("key, value", [("seeds", 0), ("iters", 0)])
def test_rerun_applies_ablate_range_checks(tmp_path, capsys, key, value):
    first = tmp_path / "ablate"
    assert run_cli("ablate", "--seeds", "1", "--iters", "2",
                   "--out", str(first)) == 0
    capsys.readouterr()
    assert _rerun_with(tmp_path, first, key, value) == 2
    _one_error_line(capsys, repr(key))
    assert _no_artifacts(tmp_path / "again")


def test_non_finite_config_and_manifest_values_exit_2(tmp_path, capsys):
    """An int too large for a float in a config file, and non-finite numbers
    in a rerun manifest (Python's JSON reader takes Infinity and NaN)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"env": "trap3", "c": 10 ** 400}))
    out = tmp_path / "run"
    assert run_cli("search", "--config", str(cfg), "--out", str(out)) == 2
    _one_error_line(capsys, "'c'")
    assert _no_artifacts(out)
    first = tmp_path / "search"
    assert run_cli(*SEARCH_ARGS, "--out", str(first)) == 0
    capsys.readouterr()
    for value in (math.inf, math.nan, 10 ** 400):
        assert _rerun_with(tmp_path, first, "judge_noise", value) == 2
        _one_error_line(capsys, "'judge_noise'")
        assert _no_artifacts(tmp_path / "again")


_NUMBERS = st.one_of(st.integers(), st.floats(),
                     st.sampled_from([math.nan, math.inf, -math.inf,
                                      10 ** 400]))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)


def _finite_number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_DEFAULTS)), st.data())
def test_resolve_fuzz_resolves_or_raises_usage_error(command, data):
    """Any JSON-like layer either resolves to the command's keys, each value
    of its key's type and finite, or raises ``UsageError``."""
    table = _DEFAULTS[command]
    keys = st.sampled_from(sorted(table) + ["horizn", "budget"])
    values = st.one_of(_NUMBERS, st.lists(_NUMBERS, max_size=3), _JSON)
    layer = data.draw(st.one_of(st.dictionaries(keys, values, max_size=4),
                                _JSON))
    try:
        resolved = _resolve(command, layer, dict(table))
    except UsageError:
        return
    assert set(resolved) == set(table)
    for key, value in resolved.items():
        want = _TYPES.get(key) or type(table[key])
        if value is None:
            assert table[key] is None, key
        elif want is list:
            assert isinstance(value, list), key
            assert all(_finite_number(v) for v in value), key
        elif want is float:
            assert _finite_number(value), key
        else:
            assert type(value) is want, key


@pytest.mark.parametrize("argv", [["--arms", "3", "--horizon", "3"],
                                  ["--sigma2", "0", "--horizon", "50"]])
def test_bandit_fit_failure_writes_no_artifact(tmp_path, capsys, argv):
    out = tmp_path / "b"
    assert run_cli("bandit", *argv, "--out", str(out)) == 2
    _one_error_line(capsys)
    assert _no_artifacts(out)


def test_flag_dests_equal_config_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, table in _DEFAULTS.items():
        dests = {a.dest for a in sub.choices[command]._actions}
        assert dests - {"help", "out", "config"} == set(table), command


def test_out_env_var_sets_default_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert run_cli(*SEARCH_ARGS) == 0
    assert (tmp_path / "root" / "search" / "result.json").exists()
    capsys.readouterr()


def test_verify_out_writes_lf_tables(tmp_path, monkeypatch, capsys):
    """``verify --out`` writes verify.json and the table of each regret
    criterion that ran, with LF line ends like every artifact.  The horizon
    and seed counts are shrunk so the criteria run in a second."""
    for name, value in (("GRID_HORIZON", 300), ("GRID_SEEDS", 3),
                        ("SLOPE_RATIO_SEEDS", 6), ("RATIO_SWEEP_SEEDS", 4)):
        monkeypatch.setattr(verify, name, value)
    tables = {
        "grid.csv": (list(verify.GRID_COLUMNS), 12),
        "slopes.csv": (["gap", "sigma2", "ratio", "ci_lo", "ci_hi",
                        "n_seeds"], 4),
        "ratios.csv": (["rho", "ratio", "ci_lo", "ci_hi", "mean_regret",
                        "base_mean_regret", "n_seeds"], 4),
    }
    criteria = ["regret_bound", "regret_slope", "regret_ratio"]
    out = tmp_path / "all"
    argv = [a for name in criteria for a in ("--filter", name)]
    assert run_cli("verify", *argv, "--out", str(out)) in (0, 1)
    assert [r["name"] for r in read_json(out / "verify.json")] == criteria
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*tables, "verify.json"])
    for name, (want_header, n_rows) in tables.items():
        data = (out / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name
        header, rows = csv_rows(out / name)
        assert (header, len(rows)) == (want_header, n_rows), name
    assert {r[-1] for r in csv_rows(out / "slopes.csv")[1]} == {"6"}
    out = tmp_path / "ratio"  # a table only when its criterion ran
    assert run_cli("verify", "--filter", "regret_ratio",
                   "--out", str(out)) in (0, 1)
    assert sorted(p.name for p in out.iterdir()) == ["ratios.csv",
                                                     "verify.json"]
    capsys.readouterr()


@pytest.mark.parametrize("loop", ["compiled", "numpy"])
def test_verify_names_the_bandit_loop_after_its_summary(tmp_path, monkeypatch,
                                                        capsys, loop):
    """One stdout line after the summary names the step loop, only when a
    criterion ran bandit experiments; verify.json never holds it."""
    if loop == "compiled" and shutil.which(kernel.CC[0]) is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(verify, "RATIO_SWEEP_SEEDS", 4)
    monkeypatch.setattr(verify, "GRID_HORIZON", 300)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "compiled", cache(kernel.build)
                        if loop == "compiled" else lambda: None)
    out = tmp_path / "out"
    run_cli("verify", "--filter", "regret_ratio", "--out", str(out))
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].endswith("/1 criteria passed")
    assert lines[-1] == f"bandit loop: {loop}"
    assert "bandit loop" not in (out / "verify.json").read_text()
    assert run_cli("verify", "--filter", "selection") == 0  # no bandit run
    assert capsys.readouterr().out.splitlines()[-1] == "1/1 criteria passed"


def test_verify_filter_and_fault_exit_codes(capsys):
    assert run_cli("verify", "--filter", "selection") == 0
    out = capsys.readouterr().out
    assert "PASS selection_fixtures" in out
    assert out.strip().endswith("1/1 criteria passed")
    assert run_cli("verify", "--filter", "dedup",
                   "--inject-fault", "dedup") == 1
    out = capsys.readouterr().out
    assert "FAIL dedup_law" in out
    assert run_cli("verify", "--filter", "no_such_criterion") == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", list(verify.FAULTS))
def test_each_fault_kind_fails_its_criteria(capsys, kind):
    """Every row of ``verify.FAULTS`` names known criteria, and under its
    fault ``verify`` FAILs each of them and exits 1."""
    *_, fails = verify.FAULTS[kind]
    assert fails and set(fails) <= set(verify.CRITERION_NAMES), fails
    argv = ["verify", "--inject-fault", kind]
    for name in fails:
        argv += ["--filter", name]
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().out.splitlines()
    n = len(fails)
    assert sorted(ln.split()[:2] for ln in lines[:n]) == \
        sorted(["FAIL", name] for name in fails)
    assert lines[n] == f"0/{n} criteria passed"


def test_verify_mean_fault_exits_one(capsys):
    assert run_cli("verify", "--filter", "backup_oracle",
                   "--inject-fault", "mean") == 1
    out = capsys.readouterr().out
    assert "FAIL backup_oracle" in out and "incremental q_mean" in out
    assert out.strip().endswith("0/1 criteria passed")
