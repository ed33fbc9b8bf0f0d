"""Single-writer check: only ``artifacts`` writes files, and every other
module reaches the disk through ``artifacts.write_run`` alone.

A write is a call to ``open`` (or an ``.open`` method) with a string mode
that writes (``w``, ``a``, ``x`` or ``+``), a ``write_bytes`` or
``write_text`` call, or a call to an ``artifacts`` writer: a top-level
function or class of ``artifacts.py`` that writes, directly or through
another writer. ``write_run`` writes a run's files and then its manifest, so
a command that called any other writer could leave a file the manifest does
not list.

Blind spot: the scan matches names, not bindings, so a writer reached under
another name (an alias, a ``getattr``) passes, and review is still needed.
"""

import ast
import re
from pathlib import Path

import fewview

PACKAGE_DIR = Path(fewview.__file__).resolve().parent
RUN_WRITER = "write_run"


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _opens_for_writing(call: ast.Call) -> bool:
    if _called_name(call) != "open":
        return False
    modes = [*call.args, *(kw.value for kw in call.keywords if kw.arg == "mode")]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and re.fullmatch(r"[rwxabt+]+", m.value) and re.search(r"[wax+]", m.value)
               for m in modes)


def _writes(node: ast.AST, writers: set[str]) -> list[ast.Call]:
    """The calls under ``node`` that write a file or call one of ``writers``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and (_opens_for_writing(call)
                 or _called_name(call) in {"write_bytes", "write_text", *writers})]


def artifacts_writers() -> set[str]:
    """Top-level functions and classes of ``artifacts`` that write."""
    tree = ast.parse((PACKAGE_DIR / "artifacts.py").read_text(encoding="utf-8"))
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    writers: set[str] = set()
    while True:  # a definition that calls a writer is a writer
        found = {node.name for node in defs if _writes(node, writers)}
        if found == writers:
            return writers
        writers = found


def stray_writes() -> list[str]:
    forbidden = artifacts_writers() - {RUN_WRITER}
    return [f"{path.name}:{call.lineno} {ast.unparse(call.func)}"
            for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "artifacts.py"
            for call in _writes(ast.parse(path.read_text(encoding="utf-8")), forbidden)]


def test_the_artifacts_writers_are_found():
    assert {"atomic_write_bytes", RUN_WRITER} <= artifacts_writers()


def test_only_write_run_writes_outside_artifacts():
    stray = stray_writes()
    assert not stray, f"files written outside artifacts.write_run: {stray}"
