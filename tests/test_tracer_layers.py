"""Every layer the benchmark tracer wraps is still a library function.

``bench/tracer.py`` looks each ``LAYERS`` entry up by name, so deleting or
renaming one of those functions breaks ``bench/run.py --trace 1``.  Its
hooks also read fields of some layers' results: ``decompose(...).size`` and
each estimate's ``.terms`` as (row, col, value) triples.  The tracer is
parsed with ``ast``, not imported, so these checks need nothing from the
benchmark and cannot change it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from subspace_bandits.decomposition import decompose
from subspace_bandits.estimators import estimate_asym, estimate_sym, mbeg_estimate

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_assignment(name: str) -> ast.expr:
    """The value expression of the tracer's module-level assignment to ``name``."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{TRACER} has no module-level {name} assignment")


def tracer_layers() -> list[tuple[str, str]]:
    """(module, function) of each entry of the module-level ``LAYERS`` tuple."""
    return [(entry.elts[0].value, entry.elts[1].value) for entry in tracer_assignment("LAYERS").elts]


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


def test_decompose_reports_its_size_as_an_int():
    # the tracer's decompose hook adds mix.size to an int count of components
    mix = decompose(np.diag([0.5, 0.5, 0.0]), k=1)
    assert type(mix.size) is int and mix.size == 2


def test_every_hooked_estimate_carries_row_col_value_terms():
    # the tracer's estimate hook counts len(est.terms) and unpacks each term as (_, _, v)
    hooked = {elt.value for elt in tracer_assignment("_ESTIMATES").args[0].elts}
    assert hooked == {"estimate_sym", "estimate_asym", "mbeg_estimate"}
    halves = (np.array([1.0, 0.0, 2.0]), np.array([0.0, 3.0, 1.0]))
    estimates = {
        "estimate_sym": estimate_sym(halves),
        "estimate_asym": estimate_asym(halves),
        "mbeg_estimate": mbeg_estimate(0, 2, 0.5, -0.5, 0.1, d=3),
    }
    for name, est in estimates.items():
        assert isinstance(est.terms, tuple) and est.terms, name
        for term in est.terms:
            assert isinstance(term, tuple) and len(term) == 3, name
            row, col, value = term
            assert type(row) is int and type(col) is int and isinstance(value, float), name
