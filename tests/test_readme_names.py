"""README drift check: every dotted name the README cites in backticks
still exists.

A name headed by a ``fewview`` module or class (``artifacts.write_run``,
``PolicyRun.disabled``) must resolve by ``getattr``, or name a field of the
dataclass it leads to. A name headed by a config section (``world.``,
``network.``, ``train.``, ``eval.``) must be a key of that section's key
table; ``world.kind`` and every world kind's keys count for ``world.``.
Other backticked names (``np.maximum``, ``manifest.json``) are skipped.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import fewview
from fewview import config
from fewview.training import TASK_FAMILIES

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = {info.name: importlib.import_module(f"fewview.{info.name}")
           for info in pkgutil.iter_modules(fewview.__path__)}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__.startswith("fewview.")}
SECTION_KEYS = {
    "world": {"kind"}.union(*(config._key_table(family.config)
                              for family in TASK_FAMILIES.values())),
    "network": set(config._NETWORK_KEYS),
    "train": set(config._TRAIN_KEYS),
    "eval": set(config._EVAL_KEYS),
}


def cited_names() -> list[str]:
    """Each distinct dotted name the README puts alone in backticks."""
    text = README.read_text(encoding="utf-8")
    return sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)))


def _resolves(obj, parts) -> bool:
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = None  # a field without a default: nothing further to follow
        else:
            return False
    return True


def stale_names() -> tuple[list[str], list[str]]:
    """The cited names that are checked, and those of them that no longer
    exist."""
    checked, stale = [], []
    for name in cited_names():
        head, *rest = name.split(".")
        if head in SECTION_KEYS:
            ok = len(rest) == 1 and rest[0] in SECTION_KEYS[head]
        elif head in MODULES or head in CLASSES:
            ok = _resolves(MODULES.get(head) or CLASSES[head], rest)
        else:
            continue
        checked.append(name)
        if not ok:
            stale.append(name)
    return checked, stale


def test_readme_cites_only_names_that_exist():
    checked, stale = stale_names()
    assert len(checked) >= 20, f"the README check found too few names to check: {checked}"
    assert not stale, f"README cites names that no longer exist: {stale}"
