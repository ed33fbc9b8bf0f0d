"""One module starts threads: no module of ``fewview`` but ``training``
imports ``threading``, ``concurrent.futures``, ``multiprocessing`` or
``_thread``.

``training.evaluate_policies`` opens one worker thread and joins it before
it returns, and its buffers are planned for exactly that worker: a thread
or process started anywhere else would run beside it with a heap of its
own.

Blind spot: the scan reads import statements, so a module reached through
``importlib`` or ``__import__`` passes, and review is still needed.
"""

import ast
from pathlib import Path

import fewview

PACKAGE_DIR = Path(fewview.__file__).resolve().parent
OWNER = "training.py"
THREAD_MODULES = ("threading", "concurrent", "multiprocessing", "_thread")


def thread_imports(path: Path) -> list[str]:
    """The thread and process modules that the file at ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return sorted(name for name in names if name.split(".")[0] in THREAD_MODULES)


def test_the_thread_owner_is_found():
    assert thread_imports(PACKAGE_DIR / OWNER) == ["concurrent.futures"]


def test_only_training_imports_a_thread_or_process_module():
    stray = {path.name: found for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != OWNER and (found := thread_imports(path))}
    assert not stray, f"thread or process modules imported outside {OWNER}: {stray}"
