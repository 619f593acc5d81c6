"""Every layer the benchmark tracer wraps is still a library function.

``bench/tracer.py`` looks each ``LAYERS`` entry up by name, so deleting or
renaming one of those functions breaks ``bench/run.py --trace 1``.  The
tracer is parsed with ``ast``, not imported, so this check needs nothing
from the benchmark and cannot change it.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_layers() -> list[tuple[str, str]]:
    """(module, function) of each entry of the module-level ``LAYERS`` tuple."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{TRACER} has no module-level LAYERS assignment")


def missing_layers(layers) -> list[str]:
    """Entries that are not a module-level function of that name in its module."""
    missing = []
    for mod_name, fn_name in layers:
        mod = importlib.import_module(f"subspace_bandits.{mod_name}")
        fn = vars(mod).get(fn_name)
        if not (
            inspect.isfunction(fn) and fn.__module__ == mod.__name__ and fn.__qualname__ == fn_name
        ):
            missing.append(f"{mod_name}.{fn_name}")
    return missing


def test_parses_the_layer_table():
    layers = tracer_layers()
    assert ("spectral", "sym_eig") in layers
    assert all(isinstance(mod, str) and isinstance(fn, str) for mod, fn in layers)


def test_every_layer_is_a_module_level_function():
    assert missing_layers(tracer_layers()) == []


def test_a_deleted_function_or_a_class_is_reported():
    # a name the package never had, and a class rather than a function
    assert missing_layers([("spectral", "sym_exp"), ("estimators", "MbegPairSampler")]) == [
        "spectral.sym_exp",
        "estimators.MbegPairSampler",
    ]
