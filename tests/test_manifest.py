"""Artifact plumbing: atomic writes, shortest-round-trip float formatting,
manifest structure, and load-time validation."""
import json
import math

import numpy as np
import pytest

from alphauct.manifest import (MANIFEST_NAME, RunManifest, atomic_write_text,
                               fmt, load_manifest, write_csv, write_json,
                               write_manifest)


def test_fmt_floats_round_trip():
    for x in (0.1, 1 / 3, 1e-17, 12345.6789, math.pi):
        assert float(fmt(x)) == x
    assert fmt(np.float64(0.1)) == repr(0.1)
    assert fmt(3) == "3"
    assert fmt("rho") == "rho"


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "one")
    atomic_write_text(target, "two")
    assert target.read_text() == "two"
    assert list(tmp_path.iterdir()) == [target]


def test_write_json_stable_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, {"b": 1, "a": [1.5, "x"]})
    write_json(p2, {"a": [1.5, "x"], "b": 1})  # insertion order differs
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


def test_write_csv_uses_repr_floats(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["t", "v"], [(1, 0.1), (2, 1 / 3)])
    lines = p.read_text().splitlines()
    assert lines[0] == "t,v"
    assert lines[1] == "1,0.1"
    assert float(lines[2].split(",")[1]) == 1 / 3


def test_manifest_round_trip(tmp_path):
    man = RunManifest(command="search", config={"seed": 7},
                      artifacts={"tree": "tree.txt"}, duration_s=1.25)
    path = write_manifest(tmp_path, man)
    assert path.name == MANIFEST_NAME
    data = load_manifest(path)
    assert data["command"] == "search"
    assert data["config"] == {"seed": 7}
    assert data["artifacts"] == {"tree": "tree.txt"}
    assert data["package_version"] == "0.2.0"
    assert load_manifest(tmp_path) == data  # directory form works too


def test_load_manifest_requires_core_keys(tmp_path):
    bad = tmp_path / MANIFEST_NAME
    bad.write_text(json.dumps({"config": {}}))
    with pytest.raises(ValueError):
        load_manifest(bad)
    bad.write_text(json.dumps({"command": "search"}))
    with pytest.raises(ValueError):
        load_manifest(bad)
