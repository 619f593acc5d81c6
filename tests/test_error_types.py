"""Every exception type in ``errors.py`` is raised somewhere in the library.

A rule's last owner going away should take its error type with it; a type
that nothing raises is a catch clause that can never fire.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "subspace_bandits"


def defined_errors(path: Path) -> set[str]:
    """Names of the classes a module defines at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_names(path: Path) -> set[str]:
    """Names a module raises: ``raise E``, ``raise E(...)`` or ``raise errors.E(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


ERRORS = sorted(defined_errors(SRC / "errors.py") - {"SubspaceBanditError"})
RAISED = set().union(*(raised_names(path) for path in SRC.glob("*.py")))


def test_scans_the_error_module():
    assert {"ConfigError", "OddBudget", "NotInHull"} <= set(ERRORS)


@pytest.mark.parametrize("name", ERRORS)
def test_every_error_type_is_raised(name):
    assert name in RAISED, f"errors.{name} is raised nowhere in {SRC.name}"


def test_scanner_sees_every_raise_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from . import errors\nfrom .errors import A, B\n"
        "def f(x):\n    if x:\n        raise A('a')\n    try:\n        pass\n"
        "    except B as exc:\n        raise\n    raise errors.C(x) from None\n"
        "class D(Exception):\n    pass\n",
        encoding="utf-8",
    )
    assert raised_names(mod) == {"A", "C"}
    assert defined_errors(mod) == {"D"}
