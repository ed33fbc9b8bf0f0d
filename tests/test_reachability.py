"""Reachability check: every function, class, method and module-level
name that ``fewview`` defines is named somewhere else in ``fewview``.

A definition counts as reached when its name appears outside its own
definition as a bare name, an attribute or a keyword argument. A
module-level name is one bound by a top-level assignment (``NAME = ...``,
annotated or not), so a leftover table fails the check too. Dunder methods
and names are exempt, since the interpreter reads them. Code that only the
tests call belongs in ``tests/testkit.py``.

Blind spot: the scan matches names, not bindings, so a method that shares
its name with another attribute counts as used. A ``DenseNet.out_dim``
property that nothing read passed this way, because ``LayerSpec.out_dim``
is read, so review is still needed.
"""

import ast
from collections import Counter
from pathlib import Path

import fewview

PACKAGE_DIR = Path(fewview.__file__).resolve().parent

# "module.qualname" -> why it needs no caller in fewview
EXCEPTIONS: dict[str, str] = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(qualname, name, node) for each top-level function, class and
    assigned name, and each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:  # ``A, B = ...`` binds each element
                for bound in getattr(target, "elts", [target]):
                    if isinstance(bound, ast.Name) and not _dunder(bound.id):
                        yield bound.id, bound.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS) and not _dunder(member.name):
                    yield f"{node.name}.{member.name}", member.name, member


def names_used(node: ast.AST) -> Counter:
    """Each bare name, attribute and keyword argument under ``node``."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            used[sub.arg] += 1
    return used


def unreached() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    return [f"{module}.{qualname}"
            for module, tree in trees.items()
            for qualname, name, node in definitions(tree)
            if used[name] - names_used(node)[name] <= 0]


def test_every_definition_is_named_elsewhere_in_the_package():
    found = unreached()
    missing = [name for name in found if name not in EXCEPTIONS]
    assert not missing, f"defined in fewview but never named elsewhere in it: {missing}"
    stale = set(EXCEPTIONS) - set(found)
    assert not stale, f"exceptions that are now named elsewhere: {sorted(stale)}"
