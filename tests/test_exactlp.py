"""Exact LP layer: feasibility, maximal strict sets, integer scaling."""

import pathlib
import random
from fractions import Fraction

import pytest

from conftest import (
    CandidateProblem,
    CertifiedSolution,
    candidate_rows,
    max_strict_set,
    random_connected_vass,
    ranking_columns,
    ranking_problem,
    v_family,
)
from vassbound import analyze, exactlp, parse_vass
from vassbound.cli import main
from vassbound.exactlp import (
    EQ,
    GE,
    LpError,
    LpInternalError,
    LpProblem,
    LpRow,
    LpSolution,
    lp_feasible,
    satisfies,
    scale_to_integer,
)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def problem(names, rows, candidates=()):
    return CandidateProblem(tuple(names), tuple(LpRow.of(c, rel, rhs) for c, rel, rhs in rows),
                            frozenset(candidates))


def random_homogeneous(rng, max_vars=5, max_rows=7, span=3):
    nv = rng.randint(1, max_vars)
    names = tuple(f"v{j}" for j in range(nv))
    [rng.random() for _ in range(nv)]  # unused draws that keep every later draw, and row, as seeded
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        coeffs = tuple(Fraction(rng.randint(-span, span)) for _ in range(nv))
        rows.append(LpRow.of(coeffs, GE if rng.random() < 0.8 else EQ, Fraction(0)))
    candidates = frozenset(i for i, row in enumerate(rows)
                           if row.relation == GE and rng.random() < 0.6)
    return CandidateProblem(names, tuple(rows), candidates)


def random_with_sign_rows(rng, max_vars=4, max_rows=6):
    """A homogeneous problem, often with sign rows a x_j >= 0 (a = 1 or 2,
    or the reversed -x_j >= 0), and some repeated, all-zero or '==' rows."""
    nv = rng.randint(1, max_vars)
    [rng.random() for _ in range(nv)]  # unused draws that keep every later draw, and row, as seeded
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        kind = rng.random()
        coeffs = [0] * nv
        if rows and kind < 0.15:
            rows.append(rng.choice(rows))
            continue
        if kind < 0.55:
            coeffs[rng.randrange(nv)] = rng.choice((1, 1, 2, -1))
        elif kind > 0.62:
            coeffs = [rng.randint(-2, 2) for _ in range(nv)]
        rows.append(LpRow.of(coeffs, EQ if rng.random() < 0.12 else GE))
    candidates = frozenset(i for i, row in enumerate(rows)
                           if row.relation == GE and rng.random() < 0.8)
    return CandidateProblem(tuple(f"v{j}" for j in range(nv)), tuple(rows), candidates)


class TestLpRow:
    @pytest.mark.parametrize("coeffs, rhs", [
        ((Fraction(1, 2), 1), 0),
        ((1, 2), Fraction(1, 3)),
    ])
    def test_rejects_non_integral_entries(self, coeffs, rhs):
        with pytest.raises(LpError, match="integer"):
            LpRow.of(coeffs, GE, rhs)

    def test_stores_integral_fractions_as_ints(self):
        row = LpRow.of((Fraction(4, 2), 3), GE, Fraction(2))
        assert row.coeffs == {0: 2, 1: 3} and row.rhs == 2
        assert all(type(a) is int for a in (*row.coeffs.values(), row.rhs))


class TestLpProblem:
    """`LpProblem` validates its sparse rows: every key a variable index,
    every entry a non-zero int."""

    @pytest.mark.parametrize("coeffs, rhs, message", [
        ({-1: 1}, 0, "row arity does not match variables"),
        ({0: 1, 2: 1}, 0, "row arity does not match variables"),
        ({0: 1, 1: 0}, 0, "LP rows need integer .* non-zero"),
        ({0: Fraction(1)}, 0, "LP rows need integer"),
        ({0: 1}, Fraction(1), "LP rows need integer"),
    ])
    def test_rejects_malformed_rows(self, coeffs, rhs, message):
        with pytest.raises(LpError, match=message):
            LpProblem(("x", "y"), (LpRow({1: 1}, GE, 0), LpRow(coeffs, GE, rhs)))

    def test_satisfies_rejects_an_all_zero_row_with_rhs_one(self):
        p = problem(["x"], [((0,), GE, 1)])
        assert p.rows[0].coeffs == {}
        assert not satisfies(p, [5])

    def test_strict_rows_are_tightened_in_place(self, monkeypatch):
        # lp_feasible reads the strict rows at rhs + 1 and builds no problem:
        # its point is the one of the tightened problem built and validated.
        rows = (LpRow({0: 1}, GE, 0), LpRow({1: 2}, EQ, 3), LpRow({0: -1, 1: 1}, GE, -2))
        p = CandidateProblem(("x", "y"), rows, frozenset({0, 2}))
        q = LpProblem(p.variables, (LpRow({0: 1}, GE, 1), rows[1], LpRow({0: -1, 1: 1}, GE, -1)))
        validated = []
        monkeypatch.setattr(LpProblem, "__post_init__", lambda self: validated.append(self))
        sol = lp_feasible(p, (0, 2))
        assert validated == []
        expected = lp_feasible(q)
        assert sol.strict_set == {0, 2}
        assert (sol.numerators, sol.denominator) == (expected.numerators, expected.denominator)
        assert p.rows == rows and p.strict_candidates == {0, 2}

    @pytest.mark.parametrize("strict", [(3,), (-1,), (0, 5)])
    def test_strict_index_naming_no_row_raises(self, strict):
        p = problem(["x", "y"], [((1, 0), GE, 0), ((0, 2), EQ, 3), ((-1, 1), GE, -2)])
        with pytest.raises(LpError, match="names no row"):
            lp_feasible(p, strict)


class TestPlainRows:
    """`exactlp._feasible`, the one phase-1 front end, takes plain
    `(coeffs, relation, rhs)` triples: it rejects a malformed row exactly as
    `LpProblem` does, decides a row with no variable without a tableau, and
    leaves the caller's rows as they were."""

    @pytest.mark.parametrize("coeffs, relation, rhs", [
        ({0: 1, 1: 0}, GE, 0),  # a zero coefficient
        ({0: 1, 2: 1}, GE, 0),  # a column out of range
        ({-1: 1}, EQ, 0),
        ({0: True}, GE, 0),  # a bool entry
        ({0: Fraction(1)}, GE, 0),  # a Fraction entry
        ({0: 1}, GE, Fraction(1)),
        ({0: 1}, EQ, True),
        ({0: 1}, "<=", 0),  # a bad relation
        ({}, ">", 0),
    ])
    def test_rejects_malformed_rows_as_lp_problem_does(self, coeffs, relation, rhs):
        rows = [({1: 1}, GE, 0), (coeffs, relation, rhs)]
        with pytest.raises(LpError) as plain:
            exactlp._feasible(rows, 2)
        with pytest.raises(LpError) as general:
            LpProblem(("x", "y"), tuple(LpRow(*row) for row in rows))
        assert type(plain.value) is type(general.value) is LpError
        assert str(plain.value) == str(general.value)

    def test_leaves_the_rows_unmodified(self):
        rows = [({0: 1, 1: -1}, EQ, 0), ({0: 1}, GE, 1), ({1: 2}, GE, 0), ({}, GE, -1)]
        copy = [(dict(coeffs), relation, rhs) for coeffs, relation, rhs in rows]
        assert exactlp._feasible(rows, 3) == ([1, 1, 0], 1)
        assert rows == copy

    def test_decides_rows_with_no_variable(self, monkeypatch):
        calls, phase_one = [], exactlp._phase_one
        monkeypatch.setattr(exactlp, "_phase_one", lambda rows, n: calls.append(rows) or phase_one(rows, n))
        assert exactlp._feasible([({0: 1}, GE, 0), ({}, GE, 1)], 1) is None
        assert exactlp._feasible([({}, EQ, -1)], 1) is None
        assert calls == []
        assert exactlp._feasible([({}, GE, -1), ({}, EQ, 0)], 1) == ([0], 1)


class TestFeasibility:
    def test_homogeneous_single_row(self):
        sol = lp_feasible(problem(["x"], [((1,), GE, 0)]))
        assert sol is not None
        assert sol.assignment["x"] == 0

    def test_contradictory_rows_infeasible(self):
        p = problem(["x"], [((1,), GE, 1), ((-1,), GE, 0)])
        assert lp_feasible(p) is None

    def test_mixed_equality(self):
        p = problem(["x", "y"], [((2, 3), EQ, 5)])
        sol = lp_feasible(p)
        assert sol is not None
        x, y = sol.assignment["x"], sol.assignment["y"]
        assert 2 * x + 3 * y == 5 and x >= 0 and y >= 0

    def test_empty_problem(self):
        sol = lp_feasible(problem([], []))
        assert sol is not None and sol.assignment == {}


class TestMaxStrictSet:
    def test_single_candidate_scales_to_strict(self):
        p = problem(["x"], [((1,), GE, 0)], candidates=[0])
        sol = max_strict_set(p)
        assert sol.strict_set == {0}
        assert sol.assignment["x"] >= 1

    def test_no_candidates_zero_solution(self):
        p = problem(["x", "y"], [((1, -1), GE, 0)])
        sol = max_strict_set(p)
        assert sol.strict_set == frozenset()
        assert satisfies(p, sol.vector(p.variables))

    def test_unachievable_candidate_excluded(self):
        # x <= 0 and x >= 0 force x = 0, so neither row can go strict.
        p = problem(["x"], [((1,), GE, 0), ((-1,), GE, 0)], candidates=[0, 1])
        sol = max_strict_set(p)
        assert sol.strict_set == frozenset()

    def test_partial_strictness(self):
        # y is pinned to zero, x is free to grow.
        p = problem(["x", "y"],
                    [((1, 0), GE, 0), ((0, 1), GE, 0), ((0, -1), GE, 0)],
                    candidates=[0, 1])
        sol = max_strict_set(p)
        assert sol.strict_set == {0}

    @pytest.mark.parametrize("columns, nr", [
        ((((0, Fraction(1)),), ((1, -1),)), 0),  # a Fraction entry
        ((((0, 1),), ((1, True),)), 1),  # a bool entry
        ((((0, 1),), ((0, 0), (1, -1))), 0),  # a stored zero
        ((((0, 1),), ((1, -1),)), 3),  # sign rows beyond nx
        ((((0, 1),), ((-1, -1),)), 0),  # a row index below 0
        ((((0, 1),), ((2, -1),)), 0),  # a row index at nx
        ((((0, 1),), ((3, -1),)), 0),  # a row index above nx
        ((((0, 1), (0, 1)), ((1, -1),)), 0),  # a row stored twice
        ((), 0),  # no columns
        ([((0, 1, 2),)], 1),  # an entry of three
        ([((0,),)], 1),  # an entry of one
        ([(5,)], 1),  # a bare int entry
    ])
    def test_rejects_malformed_columns(self, columns, nr):
        # Each column lists (row, coefficient) pairs over nx = 2 rows.
        with pytest.raises(LpError, match="sparse int columns"):
            exactlp.max_strict_set(columns, 2, nr)

    @pytest.mark.parametrize("names, rows, candidates", [
        # An all-zero candidate row can never be strict.
        (["x", "y"], [((0, 0), GE, 0), ((1, 0), GE, 0)], [0, 1]),
        # Duplicate rows are strict together or not at all.
        (["x", "y"], [((1, -1), GE, 0), ((1, -1), GE, 0), ((-1, 1), GE, 0),
                      ((0, 1), GE, 0)], [0, 1, 2, 3]),
        # An equality pins y to zero, so only rows through x go strict.
        (["x", "y"], [((0, 1), EQ, 0), ((0, 1), GE, 0), ((1, 1), GE, 0),
                      ((1, -1), GE, 0)], [1, 2, 3]),
        # x = y and y >= z >= x leave one ray, x = y = z: only x >= 0 goes strict.
        (["x", "y", "z"], [((1, -1, 0), EQ, 0), ((1, 0, 0), GE, 0),
                           ((-1, 0, 1), GE, 0), ((0, 1, -1), GE, 0)],
         [1, 2, 3]),
        # x + y = 0 pins x and y to 0, and -z >= 0 pins z: nothing goes strict.
        (["x", "y", "z"], [((1, 1, 0), EQ, 0), ((1, 0, 0), GE, 0),
                           ((0, -1, 0), GE, 0), ((0, 0, 1), GE, 0),
                           ((0, 0, -1), GE, 0)],
         [1, 2, 3]),
    ])
    def test_degenerate_cases_match_per_candidate_solves(self, names, rows, candidates):
        p = problem(names, rows, candidates)
        expected = {i for i in p.strict_candidates
                    if lp_feasible(p, (i,)) is not None}
        sol = max_strict_set(p)
        assert sol.strict_set == expected
        assert satisfies(p, sol.vector(p.variables))

    def test_determinism(self):
        rng = random.Random(15)
        for _ in range(20):
            p = random_homogeneous(rng)
            assert max_strict_set(p) == max_strict_set(p)

    def test_soundness_and_maximality_on_randoms(self):
        rng = random.Random(16)
        for _ in range(120):
            p = random_homogeneous(rng)
            sol = max_strict_set(p)
            values = sol.vector(p.variables)
            assert satisfies(p, values)
            for i in sorted(p.strict_candidates):
                row = p.rows[i]
                slack = sum(c * values[j] for j, c in row.coeffs.items())
                if i in sol.strict_set:
                    assert slack >= row.rhs + 1
                else:
                    assert lp_feasible(p, (i,)) is None

    def test_makes_no_joint_solve(self, monkeypatch):
        # The point comes from phase 2's own optimum, not from lp_feasible.
        def joint_solve(problem, strict=()):
            raise AssertionError("max_strict_set called lp_feasible")

        monkeypatch.setattr(exactlp, "lp_feasible", joint_solve)
        rng = random.Random(20)
        for _ in range(200):
            p = random_with_sign_rows(rng)
            assert satisfies(p, max_strict_set(p).vector(p.variables))

    def test_additivity_on_randoms(self):
        rng = random.Random(17)
        for _ in range(60):
            p = random_homogeneous(rng)
            a = max_strict_set(p).vector(p.variables)
            b = lp_feasible(p).vector(p.variables)
            assert satisfies(p, [u + w for u, w in zip(a, b)])


class TestPhaseTwo:
    """`_strict_candidates` bounds its strictness columns in the pivot loop
    and substitutes x_j = s_i + w_j for a candidate sign row a x_j >= 0;
    `max_strict_set` returns the point it reads out of the final tableau."""

    def test_matches_per_candidate_solves(self):
        rng = random.Random(19)
        for _ in range(2000):
            p = random_with_sign_rows(rng)
            strict = sorted(i for i in p.strict_candidates
                            if lp_feasible(p, (i,)) is not None)
            assert candidate_rows(p, exactlp._strict_candidates(*ranking_columns(p))[0]) == set(strict)
            sol = max_strict_set(p)
            assert sol.strict_set == set(strict)
            assert satisfies(p, sol.numerators, sol.denominator, strict=frozenset(strict))
            for i in p.strict_candidates - sol.strict_set:  # zero slack
                assert sum(a * sol.numerators[j] for j, a in p.rows[i].coeffs.items()) == 0

    @pytest.fixture
    def runs(self, monkeypatch):
        """(tableau, basis, flipped columns) of every pivot run."""
        records = []
        pivot = exactlp._pivot_to_optimum

        def recorded(tableau, basis, obj, ncols, bounded=range(0), stop_at_zero=False):
            final, flipped = pivot(tableau, basis, obj, ncols, bounded, stop_at_zero)
            records.append((tableau, basis, flipped))
            return final, flipped

        monkeypatch.setattr(exactlp, "_pivot_to_optimum", recorded)
        return records

    def test_entering_column_flips_at_its_own_bound(self, runs):
        # Columns w, y, s0, s1, then the slack of row 1 (column 4): x >= 0
        # takes no row, and row 1 reads w + s0 - y - s1 >= 0.  Nothing stops
        # s0, so it flips at its bound; then s1's own bound ties at 1 with
        # the slack's row and wins under its smaller index.  The basis stays,
        # so w = y = 0 and s0 = s1 = 1 are read out, and x = s0 + w = 1.
        p = problem(["x", "y"], [((1, 0), GE, 0), ((1, -1), GE, 0)], candidates=[0, 1])
        assert exactlp._strict_candidates(*ranking_columns(p))[:3] == ([0, 1], [1, 0], 1)
        [(tableau, basis, flipped)] = runs
        assert len(tableau) == 1 and basis == [4] and flipped == {2, 3}

    def test_basic_column_leaves_at_its_bound(self, runs):
        # s0 (column 2) enters at 0 in the one row x - y - s0 >= 0; then x
        # enters and raises s0 until it leaves at 1, flipped: x = 1, y = 0.
        p = problem(["x", "y"], [((1, -1), GE, 0)], candidates=[0])
        assert exactlp._strict_candidates(*ranking_columns(p))[:3] == ([0], [1, 0], 1)
        [(tableau, basis, flipped)] = runs
        assert basis == [0] and flipped == {2}

    def test_joint_solves_flip_nothing(self, runs):
        p = problem(["x", "y"], [((1, 0), GE, 0), ((1, -1), GE, 0)], candidates=[0, 1])
        assert max_strict_set(p).strict_set == {0, 1}
        assert lp_feasible(p, [0, 1]).strict_set == {0, 1}
        assert [flipped for _, _, flipped in runs] == [{2, 3}, set()]


class TestInertRowsAndColumns:
    """A row with no variable, and a candidate column seen only in its own
    sign row, cannot move a solve's point.  The row's surplus has no entry
    outside its own row; the column's strictness variable has no entry in
    any row.  Adding either, anywhere, keeps every relative column order,
    so the point, and the mapped strict set, must stay as they were."""

    @staticmethod
    def with_right_hand_sides(rng, p):
        rows = tuple(LpRow(row.coeffs, row.relation, rng.choice((0, 0, 1, -1, 2)))
                     for row in p.rows)
        return LpProblem(p.variables, rows)

    def test_empty_rows_leave_the_feasible_point(self):
        rng = random.Random(21)
        for _ in range(600):
            p = random_homogeneous(rng)
            p = self.with_right_hand_sides(rng, p) if rng.random() < 0.7 else p
            rows = list(p.rows)
            for _ in range(rng.randint(1, 3)):
                relation = rng.choice((GE, EQ))
                rhs = rng.choice((0, 0, -1, -2)) if relation == GE else 0
                rows.insert(rng.randint(0, len(rows)), LpRow({}, relation, rhs))
            assert lp_feasible(LpProblem(p.variables, tuple(rows))) == lp_feasible(p)

    @pytest.mark.parametrize("relation, rhs", [(GE, 1), (EQ, 1), (EQ, -1)])
    def test_a_failing_empty_row_is_infeasible(self, relation, rhs):
        p = problem(["x", "y"], [((1, -1), GE, 1), ((0, 0), relation, rhs), ((1, 1), EQ, 3)])
        assert lp_feasible(p) is None

    def test_lone_sign_columns_leave_the_strict_set(self):
        rng = random.Random(22)
        for trial in range(600):
            p = (random_homogeneous if trial % 2 else random_with_sign_rows)(rng)
            fresh = [f"f{k}" for k in range(rng.randint(1, 3))]
            order = [*p.variables]
            for name in fresh:
                order.insert(rng.randint(0, len(order)), name)
            column = {name: j for j, name in enumerate(order)}
            rows = [(i, LpRow({column[p.variables[j]]: a for j, a in row.coeffs.items()},
                              row.relation, 0)) for i, row in enumerate(p.rows)]
            for name in fresh:
                rows.insert(rng.randint(0, len(rows)),
                            (None, LpRow({column[name]: rng.choice((1, 2))}, GE, 0)))
            q = CandidateProblem(tuple(order), tuple(row for _, row in rows),
                                 frozenset(k for k, (i, _) in enumerate(rows)
                                           if i is None or i in p.strict_candidates))
            sol, padded = max_strict_set(p), max_strict_set(q)
            assert padded.strict_set == {k for k, (i, _) in enumerate(rows)
                                         if i is None or i in sol.strict_set}
            assert padded.vector(p.variables) == sol.vector(p.variables)
            assert padded.vector(fresh) == (1,) * len(fresh)


class TestScaling:
    """`lp_feasible` reads each solution out over the least common
    denominator of its values; `scale_to_integer` drops that denominator."""

    def test_halves_and_thirds(self):
        sol = lp_feasible(problem(["x", "y"], [((2, 0), EQ, 1), ((0, 3), EQ, 1)]))
        assert sol.denominator == 6
        assert dict(zip(sol.variables, sol.numerators)) == {"x": 3, "y": 2}

    def test_integer_solution_unchanged(self):
        p = problem(["x"], [((1,), GE, 0)])
        sol = LpSolution(("x",), (7,), 1)
        assert scale_to_integer(p, sol).assignment == {"x": 7}

    def test_lcm_of_mixed_denominators(self):
        sol = lp_feasible(problem(["a", "b", "c"], [((6, 0, 0), EQ, 5), ((0, 1, 0), EQ, 0),
                                                    ((0, 0, 4), EQ, 7)]))
        assert sol.denominator == 12
        assert dict(zip(sol.variables, sol.numerators)) == {"a": 10, "b": 0, "c": 21}
        assert sol.assignment == {"a": Fraction(5, 6), "b": 0, "c": Fraction(7, 4)}

    def test_drops_the_denominator(self):
        p = problem(["x", "y"], [((2, 0), GE, 0), ((0, 3), GE, 0)], candidates=[0, 1])
        sol = lp_feasible(p, [0, 1])
        assert sol.denominator == 6 and sol.strict_set == {0, 1}
        scaled = scale_to_integer(p, sol)
        assert scaled == LpSolution(("x", "y"), (3, 2), 1, frozenset({0, 1}))

    def test_rejects_inhomogeneous_rows(self):
        p = problem(["x"], [((1,), GE, 3)])
        sol = lp_feasible(p)
        with pytest.raises(LpError, match="homogeneous"):
            scale_to_integer(p, sol)


def _zeroed(numerators):
    return [0] * len(numerators)


def _perturbed(numerators):
    return [numerators[0] + 1, *numerators[1:]]


def _second_negative(numerators):
    return [-1 if j == 1 else v for j, v in enumerate(numerators)]


def break_phase_one(monkeypatch, fault):
    phase_one = exactlp._phase_one

    def faulty(rows, n):
        raw = phase_one(rows, n)
        return None if raw is None else (fault(raw[0]), raw[1])

    monkeypatch.setattr(exactlp, "_phase_one", faulty)


def break_phase_two(monkeypatch, fault):
    phase_two = exactlp._strict_candidates

    def faulty(columns, nx, nr):
        strict, values, den, duals = phase_two(columns, nx, nr)
        return strict, fault(values), den, duals

    monkeypatch.setattr(exactlp, "_strict_candidates", faulty)


class TestTheOneCheck:
    """`_feasible`, which `lp_feasible` and the joint solve call, and
    `max_strict_set` each check their solution once and nothing checks it
    again, so a phase-1 or phase-2 read-out that loses a strict slack (all
    numerators zeroed), breaks a row (one numerator perturbed) or gives a
    variable a negative value (the second set to -1) must fail that check."""

    @pytest.fixture(params=[_zeroed, _perturbed, _second_negative])
    def faulty_phase_one(self, request, monkeypatch):
        break_phase_one(monkeypatch, request.param)

    @pytest.fixture(params=[_zeroed, _perturbed, _second_negative])
    def faulty_phase_two(self, request, monkeypatch):
        break_phase_two(monkeypatch, request.param)

    def test_lp_feasible_raises(self, faulty_phase_one):
        # x = y with x >= 1: the solution is x = y = 1.
        p = problem(["x", "y"], [((1, -1), EQ, 0), ((1, 0), GE, 1)])
        with pytest.raises(LpInternalError, match="non-solution"):
            lp_feasible(p)
        with pytest.raises(LpInternalError, match="non-solution"):
            exactlp._feasible([({0: 1, 1: -1}, EQ, 0), ({0: 1}, GE, 1)], 2)

    def test_max_strict_set_raises(self, faulty_phase_two):
        # x = y with x strict: phase 2's optimum is x = y = 1.
        p = problem(["x", "y"], [((1, -1), EQ, 0), ((1, 0), GE, 0)], candidates=[1])
        with pytest.raises(LpInternalError, match="non-solution"):
            max_strict_set(p)

    def test_a_negative_value_in_no_row_raises(self, monkeypatch):
        # y is in no row, so only the sign check sees y = -1.
        break_phase_one(monkeypatch, _second_negative)
        break_phase_two(monkeypatch, _second_negative)
        with pytest.raises(LpInternalError, match="non-solution"):
            lp_feasible(problem(["x", "y"], [((1, 0), GE, 1)]))
        with pytest.raises(LpInternalError, match="non-solution"):
            max_strict_set(problem(["x", "y"], [((1, 0), GE, 0)], candidates=[0]))

    def test_analyze_exits_with_internal_error(self, faulty_phase_one, capsys):
        # Phase 1 runs only in the joint solves, which a witness reads,
        # through `_feasible`: its one check must catch the fault.
        assert main(["witness", str(SAMPLES / "running.vass"), "--n", "2"]) == 3
        assert "internal invariant violation" in capsys.readouterr().err

    def test_analyze_exits_with_internal_error_in_phase_two(self, faulty_phase_two, capsys):
        assert main(["analyze", str(SAMPLES / "running.vass")]) == 3
        assert "internal invariant violation" in capsys.readouterr().err


def analysis_lps(monkeypatch, models):
    """(problem, solution) of every `max_strict_set` call that analyzing
    `models` makes, through the name `analyze` calls."""
    import vassbound.analyzer as analyzer_mod

    solves, solve = [], analyzer_mod.max_strict_set

    def recorded(columns, nx, nr):
        solution = solve(columns, nx, nr)
        p = ranking_problem(columns, nx, nr)
        solves.append((p, CertifiedSolution(p.variables, *solution)))
        return solution

    monkeypatch.setattr(analyzer_mod, "max_strict_set", recorded)
    for v in models:
        analyze(v)
    return solves


def certificate_models():
    """v_family(1..5), both samples, and the 200-model random suite."""
    yield from (v_family(nu) for nu in range(1, 6))
    yield from (parse_vass((SAMPLES / name).read_text()) for name in ("running.vass", "doubling.vass"))
    rng = random.Random(20240601)
    for _ in range(200):
        yield random_connected_vass(rng, max_vars=3, max_transitions=6, span=2)


def mutate_duals(monkeypatch, mutate) -> list[bool]:
    """Phase 2 returns its duals as `mutate` changes them; the list records,
    per solve, whether they changed."""
    phase_two, changed = exactlp._strict_candidates, []

    def mutated(columns, nx, nr):
        strict, values, den, duals = phase_two(columns, nx, nr)
        broken = mutate(ranking_problem(columns, nx, nr), strict, list(duals))
        changed.append(broken != duals)
        return strict, values, den, broken

    monkeypatch.setattr(exactlp, "_strict_candidates", mutated)
    return changed


def _zero_outside(problem, strict, duals):
    """The first candidate outside the strict set loses its dual."""
    outside = sorted(problem.strict_candidates - set(strict))
    if outside:
        duals[outside[0]] = 0
    return duals


def _negative(problem, strict, duals):
    """The first '>=' row's dual made negative."""
    i = next((i for i, row in enumerate(problem.rows) if row.relation == GE), None)
    if i is not None:
        duals[i] = -duals[i] or -1
    return duals


def _column_above_zero(problem, strict, duals):
    """The first '>=' row with a positive entry a in some column j gets its
    dual raised by 1 - (y^T A)_j >= 1, so (y^T A)_j rises to at least 1."""
    for i, row in enumerate(problem.rows):
        j = next((j for j, a in row.coeffs.items() if a > 0), None)
        if row.relation == GE and j is not None:
            duals[i] += 1 - sum(y * r.coeffs.get(j, 0) for y, r in zip(duals, problem.rows))
            return duals
    return duals


class TestDualCertificate:
    """`max_strict_set` proves its strict set maximal by the row duals y of
    phase 2's optimum: y >= 0 on '>=' rows, y^T A <= 0 on every column and
    y_i > 0 on every candidate outside the set.  They are checked once,
    exactly, and a phase 2 that returns duals breaking any condition must
    be caught, by `max_strict_set` and by the command line alike."""

    @staticmethod
    def assert_certified(p, sol):
        y = sol.duals
        assert len(y) == len(p.rows) and all(type(v) is int for v in y)
        assert all(v >= 0 for v, row in zip(y, p.rows) if row.relation == GE)
        for j in range(len(p.variables)):
            assert sum(v * row.coeffs.get(j, 0) for v, row in zip(y, p.rows)) <= 0
        assert all(y[i] > 0 for i in p.strict_candidates - sol.strict_set)
        # Complementary slackness: a strict row's dual is 0.
        assert all(y[i] == 0 for i in sol.strict_set)

    def test_random_problems_are_certified(self):
        rng = random.Random(23)
        for trial in range(1500):
            p = (random_homogeneous if trial % 2 else random_with_sign_rows)(rng)
            self.assert_certified(p, max_strict_set(p))

    def test_analysis_lps_are_certified(self, monkeypatch):
        solves = analysis_lps(monkeypatch, certificate_models())
        assert len(solves) > 250
        for p, sol in solves:
            self.assert_certified(p, sol)

    @pytest.mark.parametrize("mutant", [_zero_outside, _negative, _column_above_zero])
    def test_broken_duals_raise(self, monkeypatch, capsys, mutant):
        # Row 0 has no entry, so only its dual's sign and positivity are
        # read: zeroing it breaks nothing but "y_i > 0 outside the set".
        p = problem(["x", "y"], [((0, 0), GE, 0), ((1, -1), GE, 0), ((-1, 1), GE, 0)],
                    candidates=[0, 1])
        assert max_strict_set(p).strict_set == frozenset()
        changed = mutate_duals(monkeypatch, mutant)
        with pytest.raises(LpInternalError, match="dichotomy violated"):
            max_strict_set(p)
        # Every change of a certificate, and nothing else, is caught.
        rng = random.Random(24)
        for _ in range(300):
            p = random_with_sign_rows(rng)
            try:
                max_strict_set(p)
                raised = False
            except LpInternalError:
                raised = True
            assert raised == changed[-1]
        assert sum(changed) > 100
        assert main(["analyze", str(SAMPLES / "running.vass")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal invariant violation") and "dichotomy violated" in err

    def test_mu_read_in_reverse_gives_forward_counts(self):
        for v in certificate_models():
            forward = [rec.mu for rec in analyze(v).archive]
            archive = analyze(v).archive
            assert [rec.mu for rec in reversed(archive)][::-1] == forward, v
