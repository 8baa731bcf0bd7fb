"""Analyzer layer: extended systems, per-layer solutions, full analysis."""

import json
import random
import re

import pytest

from vassbound import (
    NotConnectedError,
    Vass,
    analyze,
    build_extended_system,
    check_quasi_ranking,
    next_relevant_layer,
    parse_vass,
)
from vassbound.analyzer import EXPONENTIAL, POLYNOMIAL, RankingSolution
from conftest import (
    SAMPLES,
    CandidateProblem,
    dense,
    load_sample,
    max_strict_set,
    perturbed_batch,
    random_connected_vass,
    ranking_problem,
    read_every_mu,
    record_systems,
    suite_models,
    v_family,
)

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
    for (x, nid), row in zip(sys.var_ext, dense(sys)[0]):
        rows[(x, result.tree.node(nid).vass.states)] = row
    return rows


class TestExtendedSystems:
    def test_first_iteration_matches_plain_update_matrix(self, v_run):
        result = analyze(v_run)
        record, sys = replay_systems(result)[0]
        assert sys.var_ext == (("x", 0), ("y", 0), ("z", 0))
        updates = tuple(tuple(t.update[i] for t in v_run.transitions)
                        for i in range(v_run.dimension))
        assert dense(sys)[0] == updates

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
        assert set(record.var_ext) - record.ranking.bounded_vars == {("z", 0)}
        assert {tid for tid, c in record.mu.items() if c} == set(range(8))
        assert all(record.mu[tid] >= 1 for tid in range(8))
        assert record.mu[8] == record.mu[9] == 0

    def test_second_iteration_strict_sets(self, v_run):
        record = analyze(v_run).archive[1]
        assert record.ranking.ranked == {4, 5, 6, 7}
        assert record.new_variable_bounds == ("z",)
        assert {tid for tid, c in record.mu.items() if c} == {0, 1, 2, 3}
        assert set(record.var_ext) <= record.ranking.bounded_vars

    def test_third_iteration_all_zero_multicycle(self, v_run):
        record = analyze(v_run).archive[2]
        assert record.ranking.ranked == {0, 1, 2, 3}
        assert record.new_variable_bounds == ()
        assert all(c == 0 for c in record.mu.values())
        assert set(record.u) == record.ranking.ranked


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

    @staticmethod
    def _chain(*spans):
        """A root at layer 0 and a chain of descendants with the given
        (first, last) layer spans, all holding both states of one VASS."""
        from vassbound.analyzer import LayerTree

        v, tree = load_sample("doubling"), LayerTree()
        node = tree.add(v, None, 0)
        for first, last in spans:
            node = tree.add(v, node.nid, first)
            node.last_layer = last
        return tree

    @pytest.mark.parametrize("child_first", [1, 2, 3])
    def test_overlapping_spans_sharing_states_raise(self, child_first):
        # The middle node shares layers child_first..3 with its parent and
        # layer 5 with its child; the lowest shared layer is reported.
        from vassbound.analyzer import InternalInvariantError, _assert_tree_invariants

        with pytest.raises(InternalInvariantError,
                           match=f"^layer {child_first} nodes share states$"):
            _assert_tree_invariants(self._chain((1, 3), (child_first, 5), (5, 6)))

    def test_touching_spans_pass(self):
        from vassbound.analyzer import _assert_tree_invariants

        _assert_tree_invariants(self._chain((1, 3), (4, 5), (6, 6)))


class TestHelpers:
    def test_next_relevant_layer_simple(self):
        assert next_relevant_layer({"x": 1}, {0: 1}, 1) == 2

    def test_next_relevant_layer_skips_gap(self):
        assert next_relevant_layer({"x": 1, "y": 4}, {0: 4}, 4) == 5

    def test_next_relevant_layer_all_unbounded_stalls(self):
        assert next_relevant_layer({"x": None}, {0: None}, 1) is None

    def test_next_relevant_layer_running_example_continues(self, v_run):
        assert next_relevant_layer({"x": 1, "y": 1, "z": None},
                                   {8: 1, 9: 1, 0: None}, 1) == 2

    def test_next_relevant_layer_matches_brute_force(self):
        # None exactly when no finite sum vexp[x] + texp[t] exceeds the
        # layer, otherwise the least such sum.
        rng = random.Random(25)
        stalled = 0
        for _ in range(2000):
            vexp = {f"x{i}": rng.choice([None, *range(1, 9)]) for i in range(rng.randint(0, 4))}
            texp = {t: rng.choice([None, *range(1, 9)]) for t in range(rng.randint(0, 5))}
            layer = rng.randint(0, 17)
            above = [ev + et for ev in vexp.values() for et in texp.values()
                     if ev is not None and et is not None and ev + et > layer]
            expected = min(above) if above else None
            assert next_relevant_layer(vexp, texp, layer) == expected, (vexp, texp, layer)
            stalled += expected is None
        assert 0 < stalled < 2000

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
        for v in (v_run, *acceptance_models()):
            result = analyze(v)
            for record, sys in replay_systems(result):
                assert check_quasi_ranking(sys, record.ranking), (v, record.layer)


class TestInternalTripwires:
    def test_dichotomy_assertion_fires_on_suboptimal_solver(self, v_run, monkeypatch):
        # A solver that never tightens anything returns the zero solution
        # with an empty strict set; the layer solver must refuse it.
        import vassbound.analyzer as analyzer_mod
        from vassbound.analyzer import InternalInvariantError

        def lazy_solver(columns, nx, nr):
            return (0,) * nx, 1, frozenset(), ()

        monkeypatch.setattr(analyzer_mod, "max_strict_set", lazy_solver)
        with pytest.raises(InternalInvariantError):
            analyze(v_run)


class TestDichotomyOnDuals:
    """`solve_layer` checks the dichotomy straight on phase 2's row duals on
    the transition rows.  Duals that passed `max_strict_set`'s own check but
    were changed after it must still be refused, by `analyze` and by the
    command line: cut short, all zero, or positive on a ranked transition."""

    @staticmethod
    def _assert_rejected(monkeypatch, capsys, path, perturb, message):
        import vassbound.analyzer as analyzer_mod
        from vassbound.analyzer import InternalInvariantError
        from vassbound.cli import main

        solve = analyzer_mod.max_strict_set

        def perturbed(columns, nx, nr):
            *solution, duals = solve(columns, nx, nr)
            return (*solution, perturb(duals))

        monkeypatch.setattr(analyzer_mod, "max_strict_set", perturbed)
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            analyze(parse_vass(path.read_text()))
        assert main(["analyze", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal invariant violation") and message in err

    def test_short_duals_fail_on_the_length(self, monkeypatch, capsys):
        self._assert_rejected(monkeypatch, capsys, SAMPLES / "running.vass",
                              lambda y: y[:1], "dichotomy violated: 1 duals for 10 transition rows")

    def test_zero_duals_name_a_variable_copy(self, monkeypatch, capsys):
        # The running example bounds x and y at layer 1 but not z, so with
        # y = 0 z's copy is strict on neither side; copies are checked first.
        self._assert_rejected(monkeypatch, capsys, SAMPLES / "running.vass",
                              lambda y: (0,) * len(y),
                              "dichotomy violated for variable copy ('z', 0): "
                              "multi-cycle strict=False, ranking strict=False")

    def test_ranked_transition_with_positive_dual(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "countdown.vass"
        path.write_text("vars x\ns -> s : -1\n")
        self._assert_rejected(monkeypatch, capsys, path, lambda y: (1, *y[1:]),
                              "dichotomy violated for transition 0: "
                              "multi-cycle strict=True, ranking strict=True")


def test_multicycle_records_are_built_only_when_read(monkeypatch, v_run, doubling):
    """`analyze` builds no record's counts: the dichotomy is checked on the
    duals themselves, and a record builds its counts once, at the first
    read of `mu`."""
    import vassbound.analyzer as analyzer_mod

    built, mu = [], analyzer_mod.LayerRecord.mu.func

    def counted(rec):
        built.append(rec.layer)
        return mu(rec)

    monkeypatch.setattr(analyzer_mod.LayerRecord.mu, "func", counted)
    iterations = []
    for v in (v_run, doubling, *map(v_family, range(1, 6))):
        built.clear()
        result = analyze(v)
        assert built == []
        read_every_mu(result)
        read_every_mu(result)
        assert len(built) == result.iterations
        iterations.append(result.iterations)
    assert iterations == [3, 1, 2, 4, 7, 11, 16]


def test_ranking_solves_build_no_lp_rows_or_problems(monkeypatch, capsys, v_run, doubling):
    """`analyze` hands each layer's ranking system to `max_strict_set` as
    its integer columns, and the joint solve hands the multi-cycle's rows to
    `exactlp._feasible` as plain triples: on both samples and
    `v_family(1..5)` no `LpRow`, `LpProblem` or `LpSolution` is built at
    all, by the analysis, by reading every record's `mu` or by the
    exponential text report, and each distinct system is solved once,
    3 nu - 2 of them on `v_family(nu)` for nu >= 2."""
    import vassbound.analyzer as analyzer_mod
    from vassbound.cli import main
    from vassbound.exactlp import LpProblem, LpRow, LpSolution

    built = {"LpProblem": 0, "LpRow": 0, "LpSolution": 0}
    for cls in (LpProblem, LpRow, LpSolution):
        def counted_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls.__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)

    solves, solve = [], analyzer_mod.max_strict_set

    def counted_solve(columns, nx, nr):
        solves.append(columns)
        return solve(columns, nx, nr)

    monkeypatch.setattr(analyzer_mod, "max_strict_set", counted_solve)
    nothing = {"LpProblem": 0, "LpRow": 0, "LpSolution": 0}
    counts = []
    for v in (v_run, doubling, *map(v_family, range(1, 6))):
        solves.clear()
        result = analyze(v)
        assert built == nothing
        assert len(read_every_mu(result)) == result.iterations
        assert built == nothing
        counts.append(len(solves))
    assert counts == [3, 1, 2, *(3 * nu - 2 for nu in range(2, 6))]
    assert main(["analyze", str(SAMPLES / "doubling.vass")]) == 0
    assert "exponential" in capsys.readouterr().out
    assert built == nothing
    # The counters work: building one row and one problem counts both.
    LpProblem(("x",), (LpRow({0: 1}, ">=", 0),))
    assert built == {"LpProblem": 1, "LpRow": 1, "LpSolution": 0}


class TestStrictSetCertificate:
    """Phase 2 runs on the ranking system only; its optimum is the ranking's
    point, and the multi-cycle's strict set is the complement of its strict
    set.  A phase 2 that returns a wrong set with its point must be caught,
    whichever way it errs: a dropped member by the check of its row duals,
    which must be positive outside the set, an added one by the exact check
    of phase 2's point."""

    @staticmethod
    def _mutate_phase_two(monkeypatch, mutate):
        import vassbound.exactlp as exactlp_mod

        phase_two = exactlp_mod._strict_candidates

        def mutated(columns, nx, nr):
            strict, *point = phase_two(columns, nx, nr)
            return (mutate(ranking_problem(columns, nx, nr), strict), *point)

        monkeypatch.setattr(exactlp_mod, "_strict_candidates", mutated)

    @staticmethod
    def _assert_rejected(capsys, message):
        from vassbound.analyzer import InternalInvariantError
        from vassbound.cli import main

        sample = SAMPLES / "running.vass"
        with pytest.raises(InternalInvariantError, match=message):
            analyze(load_sample("running"))
        assert main(["analyze", str(sample)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal invariant violation") and message in err

    @pytest.mark.parametrize("position", [0, -1])
    def test_dropped_member_violates_the_dichotomy(self, monkeypatch, capsys, position):
        def drop(problem, strict):
            if strict:
                del strict[position]
            return strict

        self._mutate_phase_two(monkeypatch, drop)
        self._assert_rejected(capsys, "dichotomy violated")

    def test_added_non_member_is_not_attained(self, monkeypatch, capsys):
        def add(problem, strict):
            extra = sorted(problem.strict_candidates - set(strict))
            return sorted(strict + extra[:1])

        self._mutate_phase_two(monkeypatch, add)
        self._assert_rejected(capsys, "non-solution")

    def test_derived_solve_equals_phase_two_solve(self, monkeypatch):
        # The joint problem's '>=' rows, the d_ext and mu(t) >= 0 rows, are
        # its candidates: phase 2 must find the joint solve's strict set.
        from vassbound import exactlp

        derive = exactlp._feasible
        calls = []

        def checked(rows, n):
            solution = derive(rows, n)
            # The strict rows carry right-hand side 1, every other row 0.
            strict = frozenset(i for i, (_, _, rhs) in enumerate(rows) if rhs)
            assert {rhs for _, _, rhs in rows} <= {0, 1}
            candidates = frozenset(i for i, (_, relation, _) in enumerate(rows)
                                   if relation == exactlp.GE)
            joint = CandidateProblem(tuple(f"mu{j}" for j in range(n)),
                                     tuple(exactlp.LpRow(coeffs, relation, 0)
                                           for coeffs, relation, _ in rows), candidates)
            assert max_strict_set(joint).strict_set == strict
            calls.append(rows)
            return solution

        monkeypatch.setattr(exactlp, "_feasible", checked)
        keys, systems = record_systems(monkeypatch), 0
        models = [*acceptance_models(), load_sample("running"), load_sample("doubling")]
        for v in models:
            keys.clear()
            read_every_mu(analyze(v))
            systems += len(set(keys))
        assert len(calls) == systems > 200

    def test_unattained_joint_solve_fails_at_the_first_read(self, monkeypatch, capsys):
        """A joint solve that finds no point attaining the complement of the
        ranking's strict set breaks the dichotomy.  `analyze` still succeeds,
        as no count is read; the first read of `mu` raises, and the witness
        command exits 3.  The patched `_feasible` must be the one called:
        the joint solve looks it up on its module, where a test wraps it."""
        from vassbound import exactlp
        from vassbound.analyzer import InternalInvariantError
        from vassbound.cli import main

        calls = []

        def unattained(rows, n):
            calls.append(rows)
            return None

        monkeypatch.setattr(exactlp, "_feasible", unattained)
        sample = SAMPLES / "running.vass"
        result = analyze(load_sample("running"))
        assert calls == []
        with pytest.raises(InternalInvariantError, match="not attained"):
            result.archive[0].mu
        assert len(calls) == 1
        assert main(["witness", str(sample), "--n", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("internal invariant violation: ")
        assert "not attained" in err


class TestLpSolveCount:
    """Each distinct layer system costs one joint solve, the multi-cycle's,
    once its counts are read (`read_every_mu`): the ranking's maximal strict
    set, its point and its duals come from the phase-2 simplex, not from
    a phase-1 solve, and an iteration that repeats the numbers of an earlier
    one reuses its solve.  The joint solves are counted at
    `exactlp._feasible`, the phase-1 front end that the analyzer calls."""

    @staticmethod
    def _count_solves(monkeypatch):
        import vassbound.exactlp as exactlp_mod

        calls = []
        solve = exactlp_mod._feasible

        def counting(rows, n):
            calls.append(rows)
            return solve(rows, n)

        monkeypatch.setattr(exactlp_mod, "_feasible", counting)
        return calls

    def test_family_four(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        result = analyze(v_family(4))
        read_every_mu(result)
        assert result.iterations == 11
        assert len(calls) == 10

    def test_random_models(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        keys = record_systems(monkeypatch)
        rng = random.Random(7)
        for _ in range(30):
            v = random_connected_vass(rng)
            calls.clear()
            keys.clear()
            read_every_mu(analyze(v))
            assert len(calls) == len(set(keys))

    def test_reuse_needs_equal_flow_too(self, v_run):
        # Equal update rows over another flow pose another system: without
        # its flow rows the running example's first layer would also rank
        # transition 9, and its solve must not be reused.
        from dataclasses import replace
        from vassbound.analyzer import solve_layer

        sys = build_extended_system(v_run, analyze(v_run).tree, 1,
                                    {x: None for x in v_run.variables})
        nr = len(sys.var_ext)
        loops = replace(sys, columns=tuple(tuple((i, a) for i, a in column if i < nr)
                                           for column in sys.columns))
        solved, fresh = {}, solve_layer(loops, {})
        assert solve_layer(sys, solved)[1].ranked == {8, 9}
        assert fresh[1].ranked == {8}
        again = solve_layer(loops, solved)
        assert again[1] == fresh[1] and again[0]() == fresh[0]() and len(solved) == 2

    def test_reuse_needs_equal_copies_too(self, monkeypatch):
        # Equal columns over one more copy pose another system: the copy
        # ("y", 0), which no transition updates, still has its sign row, so
        # it comes out bounded, and the first solve must not be reused.
        import vassbound.analyzer as analyzer_mod
        from vassbound.analyzer import ExtendedSystem, solve_layer

        calls, solve = [], analyzer_mod.max_strict_set

        def counted(columns, nx, nr):
            calls.append(nr)
            return solve(columns, nx, nr)

        monkeypatch.setattr(analyzer_mod, "max_strict_set", counted)
        countdown = Vass.from_triples(["x", "y"], [("s", (-1, 0), "s")]).transitions
        one, two = (ExtendedSystem(countdown, copies, (((0, -1),),), ("s",))
                    for copies in ((("x", 0),), (("x", 0), ("y", 0))))
        assert one.columns == two.columns
        solved = {}
        assert solve_layer(one, solved)[1].bounded_vars == {("x", 0)}
        assert solve_layer(two, solved)[1].bounded_vars == {("x", 0), ("y", 0)}
        assert calls == [1, 2] and len(solved) == 2

    def test_comparing_solves_makes_no_joint_solve(self, monkeypatch, v_run):
        # The deferred joint solves compare by identity: `==` must not run
        # them.  Records of one system share one, so they still compare equal.
        from vassbound.analyzer import solve_layer

        calls = self._count_solves(monkeypatch)
        sys = build_extended_system(v_run, analyze(v_run).tree, 1,
                                    {x: None for x in v_run.variables})
        solved = {}
        first = solve_layer(sys, solved)
        reused, fresh = solve_layer(sys, solved) == first, solve_layer(sys, {}) == first
        assert calls == []
        assert reused and not fresh

    @pytest.mark.parametrize("skip", [True, False])
    @pytest.mark.parametrize("nu", [2, 3, 4, 5, 6])
    def test_family_solves_each_distinct_system_once(self, monkeypatch, nu, skip):
        # Of the iterations on v_family(nu), 3 nu - 2 pose new systems,
        # with or without layer skipping.  A second analysis solves them
        # all again: no solve outlives its call.
        calls = self._count_solves(monkeypatch)
        for _ in range(2):
            calls.clear()
            result = analyze(v_family(nu), skip_optimization=skip)
            read_every_mu(result)
            assert result.iterations == (nu * (nu + 1) // 2 + 1 if skip else 2 ** nu)
            assert len(calls) == 3 * nu - 2


class TestJointCountsEquivalence:
    """The joint solve poses the multi-cycle's rows to `exactlp._feasible`
    as plain triples.  Its counts must equal those of the general path it
    replaced, rebuilt here: an `LpProblem` over `mu<j>` with the d_ext rows
    (>=), the flow rows (==) and the mu(t) >= 0 rows, all homogeneous, and
    `lp_feasible` with the complement of the ranking's strict set as its
    strict set, scaled to its numerators."""

    @staticmethod
    def _general_counts(columns, nr, ns, ranked_rows):
        from vassbound.exactlp import EQ, GE, LpProblem, LpRow, lp_feasible, scale_to_integer

        m, coeffs = len(columns), [{} for _ in range(nr + ns)]
        for j, column in enumerate(columns):
            for i, a in column:
                coeffs[i][j] = a
        rows = [LpRow(row, GE if i < nr else EQ, 0) for i, row in enumerate(coeffs)]
        first_trans = len(rows)
        rows.extend(LpRow({j: 1}, GE, 0) for j in range(m))
        problem = LpProblem(tuple(f"mu{j}" for j in range(m)), tuple(rows))
        strict = [i for i in range(nr) if m + i not in ranked_rows]
        strict += [first_trans + j for j in range(m) if j not in ranked_rows]
        return scale_to_integer(problem, lp_feasible(problem, strict)).numerators

    def test_counts_equal_the_general_path(self, monkeypatch):
        import vassbound.analyzer as analyzer_mod

        solved, solve = {}, analyzer_mod._solve_multicycle

        def recorded(columns, nr, ns, ranked_rows):
            counts = solve(columns, nr, ns, ranked_rows)
            solved.setdefault((columns, nr, ns, ranked_rows), counts)
            return counts

        monkeypatch.setattr(analyzer_mod, "_solve_multicycle", recorded)
        models = [*acceptance_models(), v_family(6), load_sample("running"),
                  load_sample("doubling"), *perturbed_batch(7, 100)]
        for v in models:
            read_every_mu(analyze(v))
        for args, counts in solved.items():
            assert type(counts) is tuple and all(type(c) is int for c in counts)
            assert counts == self._general_counts(*args), args
        assert len(solved) > 400


class TestJointSolveOnRead:
    """The joint solve fixes only the multi-cycle's counts, so it runs when
    they are read: never for `analyze --json` or a polynomial text report,
    and exactly once per distinct system among the records that a witness
    or an exponential report reads."""

    @staticmethod
    def _watch(monkeypatch):
        """The joint solves, the system `dense(sys)` built at each layer,
        and the layers of the records whose `mu` is read."""
        import vassbound.analyzer as analyzer_mod

        calls = TestLpSolveCount._count_solves(monkeypatch)
        systems, reads = {}, []
        build, mu = analyzer_mod.build_extended_system, analyzer_mod.LayerRecord.mu

        def recorded(v, tree, layer, vexp):
            sys = build(v, tree, layer, vexp)
            systems[layer] = dense(sys)
            return sys

        monkeypatch.setattr(analyzer_mod, "build_extended_system", recorded)
        monkeypatch.setattr(analyzer_mod.LayerRecord, "mu",
                            property(lambda rec: reads.append(rec.layer) or mu.func(rec)))
        return calls, systems, reads

    @staticmethod
    def _model(tmp_path, v) -> str:
        path = tmp_path / f"model{len(list(tmp_path.iterdir()))}.vass"
        path.write_text("\n".join(["vars " + " ".join(v.variables)]
                                  + [str(t) for t in v.transitions]) + "\n")
        return str(path)

    def _suite_runs(self, tmp_path, status) -> list:
        """A text `analyze` of each model of the random suite with `status`."""
        return [["analyze", self._model(tmp_path, v)] for v in suite_models()
                if analyze(v).report.status == status]

    def test_json_and_polynomial_text_reports_make_no_joint_solve(self, tmp_path, capsys,
                                                                   monkeypatch):
        from vassbound.cli import main

        calls, _, reads = self._watch(monkeypatch)
        runs = [["analyze", self._model(tmp_path, v_family(nu)), "--json"] for nu in range(1, 6)]
        runs += [["analyze", str(SAMPLES / "running.vass")],
                 *self._suite_runs(tmp_path, POLYNOMIAL)]
        for run in runs:
            assert main(run) == 0
            assert calls == [] and reads == [], run
        assert len(runs) > 60

    def test_witness_and_exponential_report_solve_each_read_system_once(
            self, tmp_path, capsys, monkeypatch):
        from vassbound.cli import main

        calls, systems, reads = self._watch(monkeypatch)
        runs = [["witness", str(SAMPLES / "running.vass"), "--n", "2"],
                ["witness", self._model(tmp_path, v_family(3)), "--n", "1"],
                ["analyze", str(SAMPLES / "doubling.vass")],
                *self._suite_runs(tmp_path, EXPONENTIAL)]
        for run in runs:
            for log in (calls, systems, reads):
                log.clear()
            assert main(run) == 0
            assert 0 < len(calls) == len({systems[layer] for layer in reads}), run
        assert len(runs) > 100


def acceptance_models():
    """The acceptance suite's 200 random models, then v_family(1..5)."""
    yield from suite_models()
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
