"""Experiment configuration: one YAML file per experiment.

The file has up to five parts: a ``world`` section (required), optional
``network``, ``train``, and ``eval`` sections, plus top-level ``output_dir``
and ``seed``. Every key is schema-checked before any computation; unknown
keys are rejected with their dotted path, and missing required keys are
reported the same way. Hyperparameter defaults: discount 0.99, exploration
linearly annealed 0.95 -> 0.05, joint fine-tuning runs the task network at a
fifth of its learning rate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .training import (DEFAULT_ENUM_BUDGET, POLICIES, SPLITS, TASK_FAMILIES, TaskFamily,
                       TrainConfig, check_train_ranges)

WORLD_KINDS = tuple(TASK_FAMILIES)

# keys that live outside the world/train dataclasses
_POSITIVE_NETWORK_KEYS = ("task_hidden", "task_feat_dim", "selector_hidden")
_NETWORK_KEYS = {
    "task_hidden": int,
    "task_feat_dim": int,
    "selector_hidden": int,
    "selector_seed": int,
    "use_camera_branch": bool,
    "use_feature_branch": bool,
}
_EVAL_KEYS = {
    "split": str,
    "policy": str,
    "T": int,
    "budget": int,
    "task_checkpoint": str,
    "selector_checkpoint": str,
    "selector_checkpoints": dict,   # {str(T): path} for sweeps
    "T_values": tuple[int, ...],
    "k": int,
    "n_random": int,
    "rank_split": str,
    "policies": tuple[str, ...],
}
_EVAL_DEFAULTS = {"split": "eval", "budget": DEFAULT_ENUM_BUDGET,
                  "rank_split": "val", "n_random": 5, "k": 0}
_NETWORK_DEFAULTS = {"selector_seed": None, "use_camera_branch": True,
                     "use_feature_branch": True}  # selector_seed None -> run seed
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)
                   if f.default is not dataclasses.MISSING}
_TRAIN_EXTRA_KEYS = {"task_checkpoint": str}  # checkpoint dependency for
# select-fixed and joint regimes


def _fields_of(cls) -> dict:
    return {f.name: f for f in dataclasses.fields(cls)}


def _reject_unknown(section: str, raw: dict, allowed) -> None:
    for key in raw:
        if key not in allowed:
            path = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown key: {path}")


def _check_type(path: str, value, hint) -> None:
    """Raise ConfigError naming ``path`` unless ``value`` can fill a field
    typed ``hint``: a scalar (an int also fills a float; bools fill only
    bools), ``tuple[X, ...]`` given as a list, or ``X | None``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_type(f"{path}[{i}]", item, typing.get_args(hint)[0])
        return
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, allowed):
        raise ConfigError(f"{path} must be of type {hint.__name__}, got {value!r}")
    if hint is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")


def _check_types(section: str, raw: dict, hints: dict) -> None:
    for key, value in raw.items():
        if key in hints:
            _check_type(f"{section}.{key}", value, hints[key])


def _set_keys(raw: dict) -> dict:
    """The entries of a network or eval section that are set (null leaves a
    key unset)."""
    return {k: v for k, v in raw.items() if v is not None}


def _world_config(section: dict):
    """The world config of a normalized world section, built by its kind."""
    fields = {k: v for k, v in section.items() if k != "kind"}
    return TASK_FAMILIES[section["kind"]].config(**fields)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``raw`` is the normalized dict with
    all defaults filled in, which is what the config hash covers."""

    raw: dict

    # -- section accessors

    @property
    def family(self) -> TaskFamily:
        return TASK_FAMILIES[self.raw["world"]["kind"]]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def output_dir(self) -> str:
        return self.raw["output_dir"]

    def world_config(self):
        return _world_config(self.raw["world"])

    def train_config(self, regime: str | None = None, seed: int | None = None) -> TrainConfig:
        section = dict(self.raw.get("train") or {})
        section.pop("task_checkpoint", None)
        if regime is not None:
            section["regime"] = regime
        if seed is not None:
            section["seed"] = seed
        if section.get("train_view_counts") is not None:
            section["train_view_counts"] = tuple(int(c) for c in section["train_view_counts"])
        missing = [k for k in ("regime", "epochs", "T") if k not in section]
        if missing:
            raise ConfigError(f"missing required key: train.{missing[0]}")
        return TrainConfig(**section)

    def network(self) -> dict:
        return dict(self.raw.get("network") or {})

    def eval_section(self) -> dict:
        return dict(self.raw.get("eval") or {})

    def require(self, dotted: str):
        """Fetch ``section.key``; absent or None -> ConfigError naming the path."""
        node = self.raw
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node or node[part] is None:
                raise ConfigError(f"missing required key: {dotted}")
            node = node[part]
        return node

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
    cls = TASK_FAMILIES[kind].config
    fields = _fields_of(cls)
    _reject_unknown("world", {k: v for k, v in raw.items() if k != "kind"}, fields)
    _check_types("world", raw, typing.get_type_hints(cls))
    # every world field has a default
    out = {"kind": kind, **{name: raw.get(name, f.default) for name, f in fields.items()}}
    _world_config(out)  # construct once so dataclass invariants run at validation time
    return out


def _validate_train(raw) -> dict | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("train section must be a mapping")
    allowed = dict(_fields_of(TrainConfig))
    allowed.update(_TRAIN_EXTRA_KEYS)
    _reject_unknown("train", raw, allowed)
    if "seed" in raw:
        raise ConfigError("train.seed is not read: the run seed (top-level seed "
                          "or --seed) seeds training")
    _check_types("train", raw, typing.get_type_hints(TrainConfig))
    check_train_ranges(raw)
    out = dict(_TRAIN_DEFAULTS)
    out.update(raw)
    if out.get("train_view_counts") is not None:
        out["train_view_counts"] = [int(c) for c in out["train_view_counts"]]
    return out


def _validate_network(raw) -> dict:
    if raw is None:
        return dict(_NETWORK_DEFAULTS)
    if not isinstance(raw, dict):
        raise ConfigError("network section must be a mapping")
    _reject_unknown("network", raw, _NETWORK_KEYS)
    _check_types("network", _set_keys(raw), _NETWORK_KEYS)
    for key in _POSITIVE_NETWORK_KEYS:
        if raw.get(key) is not None and raw[key] < 1:
            raise ConfigError(f"network.{key} must be positive, got {raw[key]!r}")
    out = dict(_NETWORK_DEFAULTS)
    out.update(raw)
    return out


def _validate_eval(raw) -> dict:
    if raw is None:
        return dict(_EVAL_DEFAULTS)
    if not isinstance(raw, dict):
        raise ConfigError("eval section must be a mapping")
    _reject_unknown("eval", raw, _EVAL_KEYS)
    given = _set_keys(raw)
    _check_types("eval", given, _EVAL_KEYS)
    names = [(key, given.get(key), allowed) for key, allowed in
             (("split", SPLITS), ("rank_split", SPLITS), ("policy", POLICIES))]
    names += [(f"policies[{i}]", name, POLICIES) for i, name in enumerate(given.get("policies", ()))]
    for key, name, allowed in names:
        if name is not None and name not in allowed:
            raise ConfigError(f"eval.{key} must be one of {tuple(allowed)}, got {name!r}")
    for key, path in (raw.get("selector_checkpoints") or {}).items():
        if not (isinstance(key, str) and key.isdecimal()):
            raise ConfigError(f"eval.selector_checkpoints keys must be view budgets T "
                              f"written as strings, got {key!r}")
        _check_type(f"eval.selector_checkpoints.{key}", path, str)
    out = dict(_EVAL_DEFAULTS)
    out.update(raw)
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
    _check_type("seed", normalized["seed"], int)
    _check_type("output_dir", normalized["output_dir"], str)
    return ExperimentConfig(normalized)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except (RecursionError, ValueError, yaml.YAMLError) as exc:  # ValueError: e.g. a bad date
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return validate_config(raw)
