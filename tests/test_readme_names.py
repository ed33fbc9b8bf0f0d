"""Name drift check: every dotted name the README, or a docstring or
comment of ``src/fewview``, cites in backticks still exists.

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

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "fewview").glob("*.py"))

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


def cited_names(*paths: Path) -> list[str]:
    """Each distinct dotted name the files put alone in backticks (single
    or double)."""
    text = "\n".join(path.read_text(encoding="utf-8") for path in paths)
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


def stale_names(*paths: Path) -> tuple[list[str], list[str]]:
    """The names the files cite that are checked, and those of them that
    no longer exist."""
    checked, stale = [], []
    for name in cited_names(*paths):
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
    checked, stale = stale_names(README)
    assert len(checked) >= 20, f"the README check found too few names to check: {checked}"
    assert not stale, f"README cites names that no longer exist: {stale}"


def test_source_docstrings_cite_only_names_that_exist():
    checked, stale = stale_names(*SOURCES)
    assert len(checked) >= 10, f"the source check found too few names to check: {checked}"
    assert not stale, f"src/fewview cites names that no longer exist: {stale}"
