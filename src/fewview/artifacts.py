"""Run artifacts: atomic writes, content-addressed names, run manifests.

Every file is written to a temporary sibling and renamed into place, and the
manifest — which lists every produced file with its hash — is always written
last. An interrupted run therefore never leaves a manifest pointing at files
that do not exist.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import ConfigError, StateError

MANIFEST_NAME = "manifest.json"
OUTPUT_ROOT_ENV = "FEWVIEW_OUTPUT_ROOT"


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def write_content_addressed(directory: str | Path, stem: str, suffix: str,
                            payload: bytes) -> Path:
    """Write ``payload`` as ``<stem>-<sha12><suffix>``; the name carries the
    content hash so equal bytes land on equal names."""
    digest = sha256_bytes(payload)[:12]
    return atomic_write_bytes(Path(directory) / f"{stem}-{digest}{suffix}", payload)


def json_bytes(body) -> bytes:
    """Indented JSON with sorted keys and a trailing newline: the form of
    every report, study result and manifest."""
    return (json.dumps(body, indent=2, sort_keys=True) + "\n").encode("utf-8")


def jsonl(rows) -> str:
    """Line-delimited JSON with sorted keys, one row per line."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def output_root(flag_value: str | None, config_value: str) -> Path:
    """Output root precedence: --out flag, then the environment override,
    then the config's output_dir."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path(config_value)


@dataclass
class RunManifest:
    """What a run produced: config snapshot, tool version, artifact hashes,
    and wall-clock timing (informational; everything else is deterministic)."""

    command: str
    config: dict
    config_hash: str
    seed: int
    outputs: list = field(default_factory=list)  # [{"path", "sha256"}, ...]
    timing_seconds: float | None = None

    def add(self, run_dir: str | Path, path: str | Path) -> None:
        path = Path(path)
        if not path.exists():
            raise StateError(f"manifest cannot list a missing file: {path}")
        self.outputs.append({
            "path": str(path.relative_to(run_dir)),
            "sha256": sha256_file(path),
        })

    def write(self, run_dir: str | Path) -> Path:
        """Write the manifest last, after all listed files exist."""
        for entry in self.outputs:
            if not (Path(run_dir) / entry["path"]).exists():
                raise StateError(f"manifest lists a missing file: {entry['path']}")
        return atomic_write_bytes(Path(run_dir) / MANIFEST_NAME, json_bytes({
            "command": self.command,
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": __version__,
            "outputs": sorted(self.outputs, key=lambda o: o["path"]),
            "timing_seconds": self.timing_seconds,
        }))


def run_directory(root: str | Path, command: str, config_hash: str, seed: int,
                  force: bool) -> Path:
    """Deterministic run directory ``<root>/<command>-<confighash12>-s<seed>``.

    Only the path: the directory appears with its first file (no file, no
    directory), so a run that fails before it writes leaves nothing behind.
    A directory that already holds a manifest is a finished run: rerunning
    into it needs --force (reruns are deterministic, so forcing overwrites
    with identical bytes).
    """
    run_dir = Path(root) / f"{command}-{config_hash[:12]}-s{seed}"
    if (run_dir / MANIFEST_NAME).exists() and not force:
        raise ConfigError(
            f"run directory {run_dir} already holds a finished run; "
            "pass --force to overwrite")
    return run_dir
