"""The package's public surface: `__all__` names exactly what it exports,
every name the benchmark's tracer rebinds exists, the frozen records that
hold dicts refuse hashing under their own name, every module stays free of
floating point, random numbers and clocks, and the exact LP module builds
`Fraction`s only in its rational view of a solution."""

import ast
import dataclasses
import importlib.util
import pathlib
import sys
import types

import pytest

import vassbound
from vassbound import analyze, build_witness
from vassbound.exactlp import GE, LpProblem, LpRow


def test_every_all_entry_resolves_to_a_public_object():
    assert len(set(vassbound.__all__)) == len(vassbound.__all__)
    for name in vassbound.__all__:
        assert not isinstance(getattr(vassbound, name), types.ModuleType), name


def test_documented_library_names_are_exported():
    documented = {"parse_vass", "analyze", "build_witness", "verify_witness",
                  "exponential_certificate", "Vass", "Transition", "Path",
                  "Valuation", "longest_trace", "max_reachable", "max_instances"}
    assert documented <= set(vassbound.__all__)


# Frozen records with dict-valued contents: equal by value, never hashed.
UNHASHABLE = {
    "LpRow": lambda result: LpRow.of([1], GE),
    "LpProblem": lambda result: LpProblem(("x",), (LpRow.of([1], GE),)),
    "RankingSolution": lambda result: result.archive[0].ranking,
    "LayerRecord": lambda result: result.archive[0],
    "WitnessPath": lambda result: build_witness(result, 1),
}


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_frozen_records_refuse_hashing_by_name(name, v_run):
    record = UNHASHABLE[name](analyze(v_run))
    assert type(record).__name__ == name
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(record)
    assert dataclasses.replace(record) == record


def benchmark_trace_points():
    """`perfbench/spans.py`'s `TRACE_POINTS`: (owner, attribute, span name,
    note) for every name the benchmark's tracer rebinds."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up here
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.TRACE_POINTS


def test_benchmark_trace_points_resolve():
    """Every name the benchmark's tracer rebinds (`perfbench/spans.py`
    `TRACE_POINTS`) must exist in the package, or a traced run fails."""
    trace_points = benchmark_trace_points()
    assert trace_points
    for owner_path, attr, name, _ in trace_points:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (owner_path, attr, name)


PACKAGE = pathlib.Path(vassbound.__file__).resolve().parent


def float_free_imports(path: pathlib.Path) -> set[str]:
    """The modules that the source at `path` imports, relative ones with
    their leading dots, once no float or complex literal and no `float(`
    call is found in it."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))), \
            ast.dump(node)
        assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), ast.dump(node)
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    return imported


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_module_is_float_free_and_deterministic(path):
    """Every module computes exactly and gives the same output on every
    run: no float, and neither `random` nor `time`."""
    imported = {name.split(".")[0] for name in float_free_imports(path)}
    assert not imported & {"random", "time"}, imported


def test_exact_lp_module_is_float_free():
    """`exactlp` computes in exact integer and rational arithmetic only: no
    float literal, no `float(` call, and only the imports that needs."""
    imported = float_free_imports(PACKAGE / "exactlp.py")
    assert imported <= {"__future__", "dataclasses", "fractions", "math", "typing"}, imported


def test_exact_lp_builds_fractions_only_in_the_solution_view():
    """`exactlp` computes on integers; every `Fraction` name in it lies in
    `class LpSolution`, whose `assignment` and `vector` are the rational view."""
    tree = ast.parse((PACKAGE / "exactlp.py").read_text())

    def fraction_names(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id == "Fraction"
                or isinstance(n, ast.Attribute) and n.attr == "Fraction"]

    views = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "LpSolution"]
    assert len(views) == 1
    inside = fraction_names(views[0])
    assert inside
    outside = [n for n in fraction_names(tree) if n not in inside]
    assert not outside, [f"line {n.lineno}" for n in outside]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_import_is_used(path):
    """Each name a module imports is used in it, exported in its `__all__`,
    or rebound there by the benchmark's tracer."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    module = f"vassbound.{path.stem}" if path.stem != "__init__" else "vassbound"
    traced = {attr for owner, attr, _, _ in benchmark_trace_points() if owner == module}
    assert imported - used - exported - traced == set()
