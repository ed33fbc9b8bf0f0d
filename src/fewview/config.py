"""Experiment configuration: one YAML file per experiment.

The file has up to five parts: a ``world`` section (required), optional
``network``, ``train``, and ``eval`` sections, plus top-level ``output_dir``
and ``seed``. Each section has one key table that gives every key its type,
its default and its least value, and one validator reads them all: before
any computation it rejects unknown keys, wrongly typed values and numbers
below their least value by their dotted path, and fills in the defaults.
Ranges that depend on the world (``T`` and ``k`` against the cameras) are
checked by the function that uses them before it computes. A run
directory appears with its first file (no file, no directory), so a failed
check leaves none behind.
A key may be null only when its type is ``X | None`` (every ``network`` key,
the eval keys without a default, and ``train.train_view_counts`` and
``train.task_checkpoint``); null then leaves it unset. Hyperparameter defaults: discount 0.99, exploration linearly
annealed 0.95 -> 0.05, joint fine-tuning runs the task network at a fifth of
its learning rate.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import types
import typing
from dataclasses import MISSING, dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .training import (DEFAULT_ENUM_BUDGET, POLICIES, SPLITS, TASK_FAMILIES, TaskFamily,
                       TrainConfig, check_train_ranges)

WORLD_KINDS = tuple(TASK_FAMILIES)
MAX_CONFIG_BYTES = 1 << 14  # libyaml recurses in C per nesting level: 25,000 overflow 8 MiB


def _key_table(cls) -> dict:
    """key -> (type, default, least) for the fields of dataclass ``cls``; a
    key without a default has ``MISSING``, and no field has a least value
    (the dataclass checks its own ranges)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default, None) for f in dataclasses.fields(cls)}


# (type, default, least): ``least`` is the smallest value a number, or each
# number of a list, may take (None: any). Null on a network key takes the
# builder default in training.build_*
_NETWORK_KEYS = {
    "task_hidden": (int | None, MISSING, 1),
    "task_feat_dim": (int | None, MISSING, 1),
    "selector_hidden": (int | None, MISSING, 1),
    "selector_seed": (int | None, None, 0),  # None -> run seed
    "use_camera_branch": (bool | None, True, None),
    "use_feature_branch": (bool | None, True, None),
}
_EVAL_KEYS = {
    "split": (str, "eval", None),
    "policy": (str | None, MISSING, None),
    "T": (int | None, MISSING, 1),
    "budget": (int, DEFAULT_ENUM_BUDGET, 1),
    "task_checkpoint": (str | None, MISSING, None),
    "selector_checkpoint": (str | None, MISSING, None),
    "selector_checkpoints": (dict | None, MISSING, None),  # {str(T): path} for sweeps
    "T_values": (tuple[int, ...] | None, MISSING, 1),
    "k": (int, 0, 0),
    "n_random": (int, 5, 0),
    "rank_split": (str, "val", None),
    "policies": (tuple[str, ...] | None, MISSING, None),
}
# task_checkpoint: the task network that select-fixed and joint start from
_TRAIN_KEYS = {**_key_table(TrainConfig), "task_checkpoint": (str | None, MISSING, None)}
_WORLD_KEYS = {kind: _key_table(family.config) for kind, family in TASK_FAMILIES.items()}


def _reject_unknown(section: str, raw: dict, allowed) -> None:
    for key in raw:
        if key not in allowed:
            path = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown key: {path}")


def _check_type(path: str, value, hint, least=None) -> None:
    """Raise ConfigError naming ``path`` unless ``value`` can fill a field
    typed ``hint``: a scalar (an int also fills a float; bools fill only
    bools) of at least ``least`` when that is given, ``tuple[X, ...]``
    given as a list, or ``X | None``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_type(f"{path}[{i}]", item, typing.get_args(hint)[0], least)
        return
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, allowed):
        raise ConfigError(f"{path} must be of type {hint.__name__}, got {value!r}")
    if hint is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{path} must be at least {least}, got {value!r}")


def _validate_section(section: str, raw, keys: dict) -> dict:
    """``raw`` checked against the key table ``keys``, with the defaults
    filled in; a key without a default stays out unless it is given."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} section must be a mapping")
    _reject_unknown(section, raw, keys)
    for key, value in raw.items():
        _check_type(f"{section}.{key}", value, keys[key][0], keys[key][2])
    return {key: default for key, (_, default, _) in keys.items() if default is not MISSING} | raw


def _world_config(section: dict):
    """The world config of a normalized world section, built by its kind."""
    fields = {k: v for k, v in section.items() if k != "kind"}
    return TASK_FAMILIES[section["kind"]].config(**fields)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``raw`` is the normalized dict with
    all defaults filled in, which is what the config hash covers. A key with
    a default is read from ``raw``, a required one through ``require``; the
    methods compute what a section describes."""

    raw: dict

    @property
    def family(self) -> TaskFamily:
        return TASK_FAMILIES[self.raw["world"]["kind"]]

    def world_config(self):
        return _world_config(self.raw["world"])

    def train_config(self, regime: str | None = None, seed: int | None = None,
                     T: int | None = None) -> TrainConfig:
        """The train section as a ``TrainConfig``; each given argument
        replaces its key, so a caller that sets the budget T itself needs
        no ``train.T``."""
        section = dict(self.raw.get("train") or {})
        section.pop("task_checkpoint", None)
        for key, value in (("regime", regime), ("seed", seed), ("T", T)):
            if value is not None:
                section[key] = value
        missing = [k for k in ("regime", "epochs", "T") if k not in section]
        if missing:
            raise ConfigError(f"missing required key: train.{missing[0]}")
        return TrainConfig(**section)

    def require(self, dotted: str):
        """Fetch ``section.key``; absent or None -> ConfigError naming the path."""
        node = self.raw
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node or node[part] is None:
                raise ConfigError(f"missing required key: {dotted}")
            node = node[part]
        return node

    @functools.cached_property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _validate_world(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("world section must be a mapping")
    if "kind" not in raw:
        raise ConfigError("missing required key: world.kind")
    kind = raw["kind"]
    if kind not in WORLD_KINDS:
        raise ConfigError(f"world.kind must be one of {WORLD_KINDS}, got {kind!r}")
    fields = {k: v for k, v in raw.items() if k != "kind"}
    # every world field has a default
    out = {"kind": kind, **_validate_section("world", fields, _WORLD_KEYS[kind])}
    _world_config(out)  # construct once so dataclass invariants run at validation time
    return out


def _validate_train(raw) -> dict | None:
    if raw is None:
        return None
    out = _validate_section("train", raw, _TRAIN_KEYS)
    if "seed" in raw:
        raise ConfigError("train.seed is not read: the run seed (top-level seed "
                          "or --seed) seeds training")
    check_train_ranges(raw)
    return out


def _validate_network(raw) -> dict:
    out = _validate_section("network", {} if raw is None else raw, _NETWORK_KEYS)
    if out["use_camera_branch"] is False and out["use_feature_branch"] is False:
        raise ConfigError("network.use_camera_branch and network.use_feature_branch "
                          "are both false: a selector needs at least one branch")
    return out


def _validate_eval(raw) -> dict:
    out = _validate_section("eval", {} if raw is None else raw, _EVAL_KEYS)
    for key in ("T_values", "policies"):
        if out.get(key) is not None and len(out[key]) == 0:
            raise ConfigError(f"eval.{key} must name at least one entry, got []")
    names = [(key, out.get(key), allowed) for key, allowed in
             (("split", SPLITS), ("rank_split", SPLITS), ("policy", POLICIES))]
    names += [(f"policies[{i}]", name, POLICIES) for i, name in enumerate(out.get("policies") or ())]
    for key, name, allowed in names:
        if name is not None and name not in allowed:
            raise ConfigError(f"eval.{key} must be one of {tuple(allowed)}, got {name!r}")
    for key, path in (out.get("selector_checkpoints") or {}).items():
        if not (isinstance(key, str) and key.isdecimal()):
            raise ConfigError(f"eval.selector_checkpoints keys must be view budgets T "
                              f"written as strings, got {key!r}")
        _check_type(f"eval.selector_checkpoints.{key}", path, str)
    return out


def validate_config(raw) -> ExperimentConfig:
    """Normalize a parsed YAML mapping into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a mapping")
    allowed_top = {"world", "network", "train", "eval", "output_dir", "seed"}
    _reject_unknown("", raw, allowed_top)
    if "world" not in raw:
        raise ConfigError("missing required key: world")
    normalized = {
        "world": _validate_world(raw["world"]),
        "network": _validate_network(raw.get("network")),
        "train": _validate_train(raw.get("train")),
        "eval": _validate_eval(raw.get("eval")),
        "output_dir": raw.get("output_dir", "runs"),
        "seed": raw.get("seed", 0),
    }
    _check_type("seed", normalized["seed"], int, 0)
    _check_type("output_dir", normalized["output_dir"], str)
    return ExperimentConfig(normalized)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    if path.stat().st_size > MAX_CONFIG_BYTES:  # a level takes at least one byte
        raise ConfigError(f"config {path} is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.CSafeLoader)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except (RecursionError, ValueError, yaml.YAMLError) as exc:  # ValueError: e.g. a bad date
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return validate_config(raw)
