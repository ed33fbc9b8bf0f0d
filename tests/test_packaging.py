"""Packaging checks: the runtime needs only the dependencies that
``pyproject.toml`` declares, and declares exactly what ``fewview`` imports."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fewview

PACKAGE_DIR = Path(fewview.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# distribution name of each third-party top-level module fewview may import
DISTRIBUTIONS = {"numpy": "numpy", "yaml": "pyyaml"}


def third_party_imports() -> set[str]:
    """Top-level modules that any fewview module imports, outside the
    standard library and the package itself."""
    found = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"fewview"}


def test_runtime_dependencies_are_exactly_the_imported_distributions():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    imported = third_party_imports()
    assert imported <= set(DISTRIBUTIONS), f"no distribution known for {imported - set(DISTRIBUTIONS)}"
    assert declared == {DISTRIBUTIONS[m] for m in imported}


def test_cli_and_detection_scoring_load_no_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import fewview.cli\n"
        "from fewview import evaluation\n"
        "heat = np.zeros((8, 8))\n"
        "heat[2, 2] = heat[2, 3] = 0.9\n"
        "counts = evaluation.frame_counts(heat, [(2, 2)], 2.0)\n"
        "assert counts.tolist() == [1.0, 0.0, 0.0, 1.0, 1.0], counts\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={"PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
