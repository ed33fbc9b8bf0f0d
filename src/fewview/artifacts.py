"""Run artifacts: atomic writes, content-addressed names, the run writer.

``write_run`` is the one writer of a run directory. It writes every file of a
finished run to a temporary sibling and renames it into place, then writes the
manifest, which lists each file with its hash, last. An interrupted run
therefore never leaves a manifest pointing at files that do not exist.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from . import __version__
from .errors import ConfigError

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


def content_name(stem: str, suffix: str, payload: bytes) -> str:
    """``<stem>-<sha12><suffix>``: the name carries the content hash, so
    equal bytes land on equal names."""
    return f"{stem}-{sha256_bytes(payload)[:12]}{suffix}"


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


def write_run(run_dir: str | Path, files: dict[str, bytes], head: dict) -> list[dict]:
    """Write a finished run: each of ``files`` (name -> payload), then the
    manifest, last. The manifest holds ``head`` (command, config snapshot,
    config hash, seed and the informational wall-clock timing), the tool
    version and the outputs, each file with its hash as read back from disk,
    sorted by path; the outputs are returned."""
    run_dir = Path(run_dir)
    outputs = [{"path": name, "sha256": sha256_file(atomic_write_bytes(run_dir / name, payload))}
               for name, payload in sorted(files.items())]
    atomic_write_bytes(run_dir / MANIFEST_NAME, json_bytes(
        {**head, "tool_version": __version__, "outputs": outputs}))
    return outputs


def run_directory(root: str | Path, command: str, config_hash: str, seed: int,
                  force: bool) -> Path:
    """Deterministic run directory ``<root>/<command>-<confighash12>-s<seed>``.

    Only the path: the directory appears with its first file (no file, no
    directory), so a run that fails before it writes leaves nothing behind.
    A path with an existing component that is not a directory could never
    be written, and a directory that already holds a manifest is a finished
    run: rerunning into it needs --force (reruns are deterministic, so
    forcing overwrites with identical bytes). Both raise ConfigError.
    """
    run_dir = Path(root) / f"{command}-{config_hash[:12]}-s{seed}"
    existing = next(p for p in (run_dir, *run_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {existing} exists and is not a directory")
    if (run_dir / MANIFEST_NAME).exists() and not force:
        raise ConfigError(
            f"run directory {run_dir} already holds a finished run; "
            "pass --force to overwrite")
    return run_dir
