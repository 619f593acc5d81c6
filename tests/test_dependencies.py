"""The library imports nothing beyond the standard library and numpy.

numpy is the only declared runtime dependency (pyproject.toml); a module
that imports anything else would work where that package happens to be
installed and fail everywhere else.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "subspace_bandits"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def imported_top_levels(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module (relative ones are the package)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


MODULES = sorted(SRC.glob("*.py"))


def test_scans_the_package():
    assert {p.name for p in MODULES} >= {"__init__.py", "learners.py", "oracles.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_stdlib_and_numpy(path):
    assert imported_top_levels(path) - ALLOWED == set()


def test_scanner_sees_every_import_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os.path\nimport scipy.linalg as sl\nfrom pandas import DataFrame\n"
        "from . import sibling\nfrom .spectral import sym_eig\n"
        "def f():\n    import torch\n",
        encoding="utf-8",
    )
    assert imported_top_levels(mod) == {"os", "scipy", "pandas", "torch"}
