"""Every layer the benchmark tracer wraps is still a library function.

``bench/tracer.py`` looks each ``LAYERS`` entry up by name, so deleting or
renaming one of those functions breaks ``bench/run.py --trace 1``.  Its
hooks also read fields of some layers' results: ``decompose(...).size`` and
each estimate's ``.terms`` as (row, col, value) triples.  The benchmark's own
tests also assert that some modules bind a layer function by name
(``learners.observe is oracles.observe``); those tests run outside this
suite, so their bindings are checked here too.  For the same reason the
check that tracing leaves results unchanged, which also asserts that a
traced ``short-trials`` unit records an estimate, is backed here by the
fact it rests on: ``mbgd`` builds its informative steps' estimates through
``learners.estimate_sym``.  The benchmark files are parsed with ``ast``,
not imported, so these checks need nothing from the benchmark and cannot
change it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from subspace_bandits import learners
from subspace_bandits.decomposition import decompose
from subspace_bandits.domain import DomainSpec
from subspace_bandits.estimators import estimate_asym, estimate_sym, mbeg_estimate
from subspace_bandits.oracles import DistributionSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
BENCH_TESTS = BENCH / "tests" / "test_bench.py"
BINDING_TEST = "test_tracing_off_leaves_library_functions_untouched"


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


def asserted_bindings() -> list[tuple[tuple[str, str], tuple[str, str]]]:
    """((module, name), (module, name)) of each ``assert a.x is b.y`` in the binding test."""
    tree = ast.parse(BENCH_TESTS.read_text(encoding="utf-8"), filename=str(BENCH_TESTS))
    test = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == BINDING_TEST
    )
    pairs = []
    for node in test.body:
        if not isinstance(node, ast.Assert) or not isinstance(node.test, ast.Compare):
            continue
        cmp = node.test
        sides = [cmp.left, *cmp.comparators]
        if [type(op) for op in cmp.ops] == [ast.Is] and all(
            isinstance(side, ast.Attribute) and isinstance(side.value, ast.Name) for side in sides
        ):
            pairs.append(tuple((side.value.id, side.attr) for side in sides))
    return pairs


def broken_bindings(pairs) -> list[str]:
    """The asserted bindings whose two names are not one object in the library."""
    def lookup(mod_name, attr):
        return vars(importlib.import_module(f"subspace_bandits.{mod_name}")).get(attr)

    return [
        f"{a}.{x} is {b}.{y}"
        for (a, x), (b, y) in pairs
        if lookup(a, x) is None or lookup(a, x) is not lookup(b, y)
    ]


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


def test_parses_the_asserted_bindings():
    pairs = asserted_bindings()
    assert (("learners", "observe"), ("oracles", "observe")) in pairs
    assert (("learners", "split_halves"), ("estimators", "split_halves")) in pairs


def test_every_asserted_binding_holds():
    assert broken_bindings(asserted_bindings()) == []


def test_a_binding_that_does_not_hold_is_reported():
    # two different functions, and a name the module never had
    pairs = [(("learners", "observe"), ("spectral", "sym_eig")),
             (("harness", "split_halves"), ("estimators", "split_halves"))]
    assert broken_bindings(pairs) == [
        "learners.observe is spectral.sym_eig",
        "harness.split_halves is estimators.split_halves",
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


def test_mbgd_builds_informative_estimates_through_estimate_sym(monkeypatch):
    # every reading of the point (1, 1) is nonzero, so every step is informative
    calls = []

    def counted(halves):
        calls.append(halves)
        return estimate_sym(halves)

    monkeypatch.setattr(learners, "estimate_sym", counted)
    dist = DistributionSpec(d=2, points=np.ones((1, 2)), probs=np.ones(1), tag="ones")
    cfg = learners.LearnerConfig(spec=DomainSpec(d=2, k=1, r=2, G=2.0), m=5, seed=0)
    learners.mbgd(dist, cfg)
    assert len(calls) == 5
