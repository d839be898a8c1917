"""Run artifacts: atomic writes, stable number formatting, and run manifests.

Every artifact-producing command writes a ``manifest.json`` recording the
resolved configuration, artifact names, and library versions.  All artifacts
except the manifest itself are byte-deterministic for a given configuration
(the manifest carries wall-clock fields); a manifest is sufficient to re-run
the command and reproduce the other artifacts byte-for-byte.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as PACKAGE_VERSION

MANIFEST_NAME = "manifest.json"


def fmt(x) -> str:
    """Shortest round-trip decimal form for floats; str() otherwise."""
    if isinstance(x, np.floating):  # np.float64 is a float subclass: check first
        return repr(float(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write ``text`` through a temporary file, creating the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: Path | str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path | str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass
class RunManifest:
    command: str
    config: dict
    artifacts: dict = field(default_factory=dict)
    package_version: str = PACKAGE_VERSION
    python_version: str = field(default_factory=lambda: sys.version.split()[0])
    numpy_version: str = np.__version__
    created_unix: float = field(default_factory=time.time)
    duration_s: float = 0.0


def write_manifest(outdir: Path | str, manifest: RunManifest) -> Path:
    path = Path(outdir) / MANIFEST_NAME
    write_json(path, asdict(manifest))
    return path


def read_json(path: Path | str, what: str):
    """The JSON in ``path``, else ``cannot read {what} file {path}: ...``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # a codec or JSON error included
        reason = ("not UTF-8 text" if isinstance(exc, UnicodeDecodeError)
                  else getattr(exc, "strerror", None) or exc)  # no 2nd path
        raise ValueError(f"cannot read {what} file {path}: {reason}") from None


def load_manifest(path: Path | str) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    data = read_json(path, "manifest")
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    for key in ("command", "config"):
        if key not in data:
            raise ValueError(f"manifest {path} missing {key!r}")
    return data
