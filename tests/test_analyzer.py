"""Analyzer layer: extended systems, per-layer solutions, full analysis."""

import json
import random

import pytest

from vassbound import (
    NotConnectedError,
    Vass,
    analyze,
    build_extended_system,
    check_quasi_ranking,
    exponential_check,
    next_relevant_layer,
    parse_vass,
)
from vassbound.analyzer import EXPONENTIAL, POLYNOMIAL, RankingSolution
from conftest import DOUBLING_TEXT, random_connected_vass, v_family

V_RUN_VEXP = {"x": 1, "y": 1, "z": 2}
V_RUN_TEXP = {0: 3, 1: 3, 2: 3, 3: 3, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1}

# Extended update matrices of the second and third iteration on the
# running example, keyed by (variable, states of the node copy).
ITERATION2_ROWS = {
    ("x", ("s1", "s2")): (-1, 1, 0, 0, 0, 0, 0, 0),
    ("y", ("s1", "s2")): (1, -1, 0, 0, 0, 0, 0, 0),
    ("x", ("s3", "s4")): (0, 0, -1, 1, 0, 0, 0, 0),
    ("y", ("s3", "s4")): (0, 0, 1, -1, 0, 0, 0, 0),
    ("z", ("s1", "s2", "s3", "s4")): (-1, 1, 1, -1, -1, -1, -1, -1),
}
ITERATION3_ROWS = {
    ("x", ("s1",)): (-1, 0, 0, 0),
    ("y", ("s1",)): (1, 0, 0, 0),
    ("x", ("s2",)): (0, 1, 0, 0),
    ("y", ("s2",)): (0, -1, 0, 0),
    ("x", ("s3",)): (0, 0, -1, 0),
    ("y", ("s3",)): (0, 0, 1, 0),
    ("x", ("s4",)): (0, 0, 0, 1),
    ("y", ("s4",)): (0, 0, 0, -1),
    ("z", ("s1", "s2")): (-1, 1, 0, 0),
    ("z", ("s3", "s4")): (0, 0, 1, -1),
}


def replay_systems(result):
    """Rebuild each executed iteration's extended system from the archive."""
    vexp = {x: None for x in result.vass.variables}
    out = []
    for record in result.archive:
        sys = build_extended_system(result.vass, result.tree, record.layer, vexp)
        out.append((record, sys))
        for x in record.new_variable_bounds:
            vexp[x] = record.layer
    return out


def keyed_rows(result, sys):
    rows = {}
    for (x, nid), row in zip(sys.var_ext, sys.d_ext):
        rows[(x, result.tree.node(nid).vass.states)] = row
    return rows


class TestExtendedSystems:
    def test_first_iteration_matches_plain_update_matrix(self, v_run):
        result = analyze(v_run)
        record, sys = replay_systems(result)[0]
        assert sys.var_ext == (("x", 0), ("y", 0), ("z", 0))
        updates = tuple(tuple(t.update[i] for t in v_run.transitions)
                        for i in range(v_run.dimension))
        assert sys.d_ext == updates

    def test_second_iteration_matrix(self, v_run):
        result = analyze(v_run)
        record, sys = replay_systems(result)[1]
        assert tuple(t.tid for t in sys.transitions) == tuple(range(8))
        assert keyed_rows(result, sys) == ITERATION2_ROWS

    def test_third_iteration_matrix(self, v_run):
        result = analyze(v_run)
        record, sys = replay_systems(result)[2]
        assert tuple(t.tid for t in sys.transitions) == (0, 1, 2, 3)
        assert keyed_rows(result, sys) == ITERATION3_ROWS


class TestLayerSolutions:
    def test_first_iteration_strict_sets(self, v_run):
        result = analyze(v_run)
        record = result.archive[0]
        assert record.ranking.ranked == {8, 9}
        assert record.new_variable_bounds == ("x", "y")
        assert record.mu.strict_vars == {("z", 0)}
        assert record.mu.strict_transitions == frozenset(range(8))
        assert all(record.mu.counts[tid] >= 1 for tid in range(8))
        assert record.mu.counts[8] == record.mu.counts[9] == 0

    def test_second_iteration_strict_sets(self, v_run):
        record = analyze(v_run).archive[1]
        assert record.ranking.ranked == {4, 5, 6, 7}
        assert record.new_variable_bounds == ("z",)
        assert record.mu.strict_transitions == {0, 1, 2, 3}
        assert record.mu.strict_vars == frozenset()

    def test_third_iteration_all_zero_multicycle(self, v_run):
        record = analyze(v_run).archive[2]
        assert record.ranking.ranked == {0, 1, 2, 3}
        assert record.new_variable_bounds == ()
        assert all(c == 0 for c in record.mu.counts.values())
        assert record.mu.strict_transitions == frozenset()


class TestAnalyze:
    def test_running_example_exact(self, v_run):
        result = analyze(v_run)
        report = result.report
        assert report.status == POLYNOMIAL
        assert report.variable_exponents == V_RUN_VEXP
        assert report.transition_exponents == V_RUN_TEXP
        assert report.complexity_exponent == 3
        assert result.iterations == 3
        assert result.tree.max_layer() == 2

    def test_family_of_two_blocks(self, v2):
        report = analyze(v2).report
        assert report.variable_exponents == {"x11": 1, "x12": 1, "x21": 2, "x22": 2}
        by_pair = {(t.src, t.dst): report.transition_exponents[t.tid]
                   for t in v2.transitions}
        assert by_pair == {
            ("s11", "s12"): 1, ("s12", "s11"): 1,
            ("s11", "s11"): 2, ("s12", "s12"): 2,
            ("s11", "s21"): 1, ("s22", "s12"): 1,
            ("s21", "s22"): 2, ("s22", "s21"): 2,
            ("s21", "s21"): 4, ("s22", "s22"): 4,
        }
        assert report.complexity_exponent == 4

    @pytest.mark.parametrize("nu", [8, 10])
    def test_deep_family_closed_form(self, nu):
        """Block i of v_family(nu) bounds its variables by N^(2^(i-1)) and
        its self-loops by N^(2^i); k = 2^nu lies in the paper's [1, 2^d]."""
        v = v_family(nu)
        report = analyze(v).report
        assert report.status == POLYNOMIAL
        assert report.variable_exponents == {
            f"x{i}{j}": 2 ** (i - 1) for i in range(1, nu + 1) for j in (1, 2)}
        expected = {}
        for i in range(1, nu + 1):
            expected[(f"s{i}1", f"s{i}1")] = expected[(f"s{i}2", f"s{i}2")] = 2 ** i
            expected[(f"s{i}1", f"s{i}2")] = expected[(f"s{i}2", f"s{i}1")] = 2 ** (i - 1)
            if i < nu:
                expected[(f"s{i}1", f"s{i+1}1")] = 2 ** (i - 1)
                expected[(f"s{i+1}2", f"s{i}2")] = 2 ** (i - 1)
        assert {(t.src, t.dst): report.transition_exponents[t.tid]
                for t in v.transitions} == expected
        assert report.complexity_exponent == 2 ** nu
        assert 1 <= report.complexity_exponent <= 2 ** v.dimension

    def test_doubling_is_exponential_at_first_layer(self, doubling):
        report = analyze(doubling).report
        assert report.status == EXPONENTIAL
        assert report.exponential_layer == 1
        assert report.complexity_exponent is None
        assert set(report.variable_exponents.values()) == {None}

    def test_no_transitions_is_polynomial_exponent_zero(self):
        v = Vass.from_triples(["x"], [], extra_states=["s1"])
        report = analyze(v).report
        assert report.status == POLYNOMIAL
        assert report.complexity_exponent == 0
        assert report.layers == []

    def test_disconnected_input_rejected(self):
        v = Vass.from_triples(["x"], [("s1", (0,), "s2")])
        with pytest.raises(NotConnectedError):
            analyze(v)

    def test_zero_loop_with_bounded_variables_stalls(self):
        # The zero-effect loop never gets an exponent, everything else does;
        # discovery stalls with no growing variable left.
        v = Vass.from_triples(["x"], [("s1", (0,), "s1"), ("s1", (-1,), "s1")])
        report = analyze(v).report
        assert report.status == EXPONENTIAL
        assert report.variable_exponents == {"x": 1}
        assert report.transition_exponents[0] is None
        assert report.transition_exponents[1] == 1

    def test_determinism(self, v_run):
        a = analyze(v_run)
        b = analyze(v_run)
        assert a.report.to_json(v_run) == b.report.to_json(v_run)

    def test_skip_optimization_equivalence(self, v_run):
        for v in (v_run, v_family(3)):
            on = analyze(v, skip_optimization=True)
            off = analyze(v, skip_optimization=False)
            assert on.report.to_json(v) == off.report.to_json(v)
        # The family actually skips a layer, the running example does not.
        assert analyze(v_family(3)).iterations < \
            analyze(v_family(3), skip_optimization=False).iterations

    def test_json_shape(self, v_run):
        data = json.loads(analyze(v_run).report.to_json(v_run))
        assert data["schema"] == 1
        assert data["status"] == "polynomial"
        assert data["variables"] == {"x": 1, "y": 1, "z": 2}
        assert [t["exp"] for t in data["transitions"]] == \
            [V_RUN_TEXP[t["id"]] for t in data["transitions"]]
        assert {entry["layer"] for entry in data["layers"]} == {1, 2, 3}

    def test_json_inf_markers(self, doubling):
        data = json.loads(analyze(doubling).report.to_json(doubling))
        assert data["complexity_exponent"] is None
        assert data["variables"] == {"x": "inf", "y": "inf"}
        assert all(t["exp"] == "inf" for t in data["transitions"])


class TestTree:
    def test_running_example_tree_shape(self, v_run):
        tree = analyze(v_run).tree
        assert tree.root.vass == v_run
        layer1 = tree.nodes_at(1)
        assert [n.vass.states for n in layer1] == [("s1", "s2"), ("s3", "s4")]
        layer2 = tree.nodes_at(2)
        assert [n.vass.states for n in layer2] == \
            [("s1",), ("s2",), ("s3",), ("s4",)]
        for child in layer2:
            parent = tree.node(child.parent)
            assert set(child.vass.states) <= set(parent.vass.states)

    def test_family_spans_cover_skipped_layer(self):
        # For two blocks every layer up to the last is relevant; the third
        # block's run skips one layer, which widens the deepest spans.
        assert analyze(v_family(2)).tree.max_layer() == 3
        result = analyze(v_family(3))
        spans = {(n.first_layer, n.last_layer) for n in result.tree.nodes}
        assert any(last > first for first, last in spans)
        assert result.tree.max_layer() == 7

    def test_dot_export(self, v_run):
        dot = analyze(v_run).tree.to_dot()
        assert dot.startswith("digraph")
        assert dot.count("->") == 6
        assert "s1 s2 s3 s4" in dot


class TestHelpers:
    def test_next_relevant_layer_simple(self):
        assert next_relevant_layer({"x": 1}, {0: 1}, 1) == 2

    def test_next_relevant_layer_skips_gap(self):
        assert next_relevant_layer({"x": 1, "y": 4}, {0: 4}, 4) == 5

    def test_exponential_check_all_unbounded(self):
        assert exponential_check({"x": None}, {0: None}, 1)

    def test_exponential_check_running_example_continues(self, v_run):
        assert not exponential_check({"x": 1, "y": 1, "z": None},
                                     {8: 1, 9: 1, 0: None}, 1)

    def test_quasi_ranking_verification(self, v_run):
        # Externally supplied coefficients (2x + 2y plus offsets on s3, s4)
        # that decrease exactly on the two boundary transitions.
        result = analyze(v_run)
        _, sys = replay_systems(result)[0]
        known_solution = RankingSolution(
            r={("x", 0): 2, ("y", 0): 2, ("z", 0): 0},
            z={"s1": 0, "s2": 0, "s3": 1, "s4": 1},
            ranked=frozenset({8, 9}),
            bounded_vars=frozenset({("x", 0), ("y", 0)}))
        assert check_quasi_ranking(sys, known_solution)

    def test_quasi_ranking_zero_solution(self, v_run):
        result = analyze(v_run)
        _, sys = replay_systems(result)[0]
        zero = RankingSolution(
            r={ve: 0 for ve in sys.var_ext},
            z={s: 0 for s in v_run.states},
            ranked=frozenset(), bounded_vars=frozenset())
        assert check_quasi_ranking(sys, zero)

    def test_quasi_ranking_rejects_negative_and_wrong_strictness(self, v_run):
        result = analyze(v_run)
        _, sys = replay_systems(result)[0]
        negative = RankingSolution(
            r={ve: (-1 if ve[0] == "x" else 0) for ve in sys.var_ext},
            z={s: 0 for s in v_run.states},
            ranked=frozenset(), bounded_vars=frozenset())
        assert not check_quasi_ranking(sys, negative)
        mislabeled = RankingSolution(
            r={ve: 0 for ve in sys.var_ext},
            z={s: 0 for s in v_run.states},
            ranked=frozenset({0}), bounded_vars=frozenset())
        assert not check_quasi_ranking(sys, mislabeled)

    def test_archived_solutions_pass_quasi_ranking_check(self, v_run):
        result = analyze(v_run)
        for record, sys in replay_systems(result):
            assert check_quasi_ranking(sys, record.ranking)


class TestInternalTripwires:
    def test_dichotomy_assertion_fires_on_suboptimal_solver(self, v_run, monkeypatch):
        # A solver that never tightens anything returns the zero solution
        # with an empty strict set; the layer solver must refuse it.
        import vassbound.analyzer as analyzer_mod
        from vassbound.exactlp import LpSolution
        from vassbound.analyzer import InternalInvariantError

        def lazy_solver(problem):
            return LpSolution(problem.variables, (0,) * len(problem.variables), 1)

        monkeypatch.setattr(analyzer_mod, "max_strict_set", lazy_solver)
        with pytest.raises(InternalInvariantError):
            analyze(v_run)


class TestLpSolveCount:
    """Each iteration costs one joint solve per system: the maximal strict
    sets themselves come from the phase-2 simplex, not from lp_feasible."""

    @staticmethod
    def _count_solves(monkeypatch):
        import vassbound.exactlp as exactlp_mod

        calls = []
        solve = exactlp_mod.lp_feasible

        def counting(problem):
            calls.append(problem)
            return solve(problem)

        monkeypatch.setattr(exactlp_mod, "lp_feasible", counting)
        return calls

    def test_family_four(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        result = analyze(v_family(4))
        assert result.iterations == 11
        assert len(calls) == 2 * result.iterations == 22

    def test_random_models(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        rng = random.Random(7)
        for _ in range(30):
            v = random_connected_vass(rng)
            calls.clear()
            result = analyze(v)
            assert len(calls) == 2 * result.iterations


def acceptance_models():
    """The acceptance suite's 200 random models, then v_family(1..5)."""
    rng = random.Random(20240601)
    for _ in range(200):
        yield random_connected_vass(rng, max_vars=3, max_transitions=6, span=2)
    for nu in range(1, 6):
        yield v_family(nu)


class TestArchiveContract:
    """The archive is the analyzer's one per-layer record: every exponent,
    the `layers` audit and the iteration count follow from it."""

    def test_exponents_audit_and_iterations_follow_from_archive(self):
        for v in acceptance_models():
            result = analyze(v)
            report, archive = result.report, result.archive
            for tid, e in report.transition_exponents.items():
                layers = [rec.layer for rec in archive if tid in rec.ranking.ranked]
                assert layers == ([] if e is None else [e]), (v, tid)
            for x, e in report.variable_exponents.items():
                layers = [rec.layer for rec in archive if x in rec.new_variable_bounds]
                assert layers == ([] if e is None else [e]), (v, x)
            assert [a["layer"] for a in report.layers] == \
                [rec.layer for rec in archive
                 if rec.ranking.ranked or rec.new_variable_bounds]
            assert result.iterations == len(archive)


class TestRandomSweep:
    def test_invariants_on_random_vasss(self):
        rng = random.Random(99)
        for _ in range(60):
            v = random_connected_vass(rng)
            result = analyze(v)
            n, m = v.dimension, len(v.transitions)
            assert result.iterations <= n * m
            for record in result.archive:
                # Surviving transitions equal the union over the new layer.
                survivors = set(record.u) - set(record.ranking.ranked)
                covered = {t.tid for nid in record.new_nodes
                           for t in result.tree.node(nid).vass.transitions}
                assert survivors == covered
            exps = list(result.report.variable_exponents.values()) + \
                list(result.report.transition_exponents.values())
            finite = [e for e in exps if e is not None]
            assert all(1 <= e <= 2 ** n for e in finite)
            if result.report.status == POLYNOMIAL:
                assert len(finite) == len(exps)
            else:
                assert len(finite) < len(exps)
