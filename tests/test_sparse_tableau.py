"""The sparse fraction-free tableau of `exactlp` against the dense one it
replaced.

`exactlp` stores each tableau row as a `{column: int}` map of its non-zeros
and divides the two elimination multipliers by their gcd before
cross-multiplying.  The dense reference below eliminates with the plain
`piv * a - f * b`.  Both then divide each row by the gcd of its entries, so
they must agree on every final tableau, basis and objective row of a solve
without bounded columns, and on every phase-1 assignment.  The sparse
phase 1 reads its assignment out as integer numerators over one
denominator; the reference keeps its `Fraction` read-out, and the two must
name the same values.

Phase 2 bounds its strictness columns in the pivot loop and substitutes
candidate sign rows, so its pivots differ from the old layout's.  The
mirror rebuilds that old layout on the dense reference (a '<=' row per
constraint, sign rows included, and a row s_i <= 1 per candidate) and
solves it with the plain loop; the two must name the same strict set, and
the sparse tableau must have no row for a bound or a substituted sign row.
`DenseMirror` replays each sparse solve on the reference and compares, over
every LP that `analyze` builds for the random suite, `v_family(1..5)` and
both samples, and over edge cases the analysis never builds.  It also
checks that every solution of the phase-1 front end `_feasible`, which
the joint solve and `lp_feasible` call, is in lowest terms.

The sparse phase 1 carries no artificial columns.  It stops at the first
basis where the artificial sum w is 0, or where no structural reduced cost
is negative, and with b = 0 it returns the origin without a tableau.  The
mirror replays each phase-1 pivot run on the reference with the same w = 0
stop, so the two must agree on every tableau, and asserts that no phase-1
row stores an artificial column.  The reference phase 1 that the point is
compared with keeps the artificial columns and pivots on to its optimum,
entering columns at step 0 after w = 0; the two must name the same point.
"""

import random
from fractions import Fraction
from math import gcd
from typing import Optional

import pytest

from vassbound import Vass, analyze
from vassbound import analyzer, exactlp
from vassbound.exactlp import EQ, GE, LpInternalError, lp_feasible
from conftest import (
    distinct_systems,
    load_sample,
    log_calls,
    max_strict_set,
    ranking_problem,
    read_every_mu,
    suite_models,
    v_family,
)
from test_exactlp import problem, random_homogeneous


# The dense reference: the list-of-lists tableau, copied verbatim, except
# that it can record its entering columns in `entered`, and stop at w = 0
# when it replays a sparse phase-1 run.

def _reduce_row(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _pivot_to_optimum(tableau: list[list[int]], basis: list[int], obj: list[int],
                      entered: Optional[list[int]] = None, stop_at_zero: bool = False) -> list[int]:
    """Pivot until no reduced cost in the objective row `obj` is negative,
    or, with `stop_at_zero`, until its right-hand side is 0.

    Fraction-free tableau: every row (right-hand side last) is an integer
    vector that may carry an arbitrary positive scale, so pivoting uses
    integer cross-elimination followed by a gcd reduction, and ratio
    comparisons cross-multiply.  Bland's rule (smallest eligible index) on
    entering and leaving variables keeps the pivoting finite and
    deterministic.  `tableau` and `basis` are updated in place; the final
    objective row, whose scale stays positive, is returned.
    """
    m = len(tableau)
    ncols = len(obj) - 1
    while True:
        if stop_at_zero and obj[-1] == 0:
            return obj
        entering = -1
        for j in range(ncols):
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            return obj
        pivot_row = -1
        best_num = best_den = 0
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                num, den = tableau[i][-1], a
                if pivot_row < 0 or num * best_den < best_num * den or (
                        num * best_den == best_num * den and basis[i] < basis[pivot_row]):
                    best_num, best_den = num, den
                    pivot_row = i
        if pivot_row < 0:
            raise LpInternalError("objective unbounded")
        pivot = tableau[pivot_row]
        piv = pivot[entering]
        for i in range(m):
            if i != pivot_row and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = _reduce_row(
                    [piv * a - f * b for a, b in zip(tableau[i], pivot)])
        if obj[entering] != 0:
            f = obj[entering]
            obj = _reduce_row([piv * a - f * b for a, b in zip(obj, pivot)])
        basis[pivot_row] = entering
        if entered is not None:
            entered.append(entering)


def _identity_start(rows: list[list[int]], n: int) -> tuple[list[list[int]], list[int]]:
    """Tableau of `rows` (`n` structural entries, then the right-hand side),
    each flipped to a non-negative right-hand side, with one identity
    column per row inserted before it; those columns form the basis."""
    m = len(rows)
    tableau: list[list[int]] = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        full = [sign * a for a in row[:-1]] + [0] * m
        full[n + i] = 1
        full.append(sign * row[-1])
        tableau.append(_reduce_row(full))
    return tableau, [n + i for i in range(m)]


def _phase_one(rows: list[list[int]], n: int,
               entered: Optional[list[int]] = None) -> Optional[list[Fraction]]:
    """Solve A x = b, x >= 0 for feasibility; returns x or None.

    Each of `rows` is one integer row of A over the `n` columns, followed by
    its entry of b.
    """
    m = len(rows)
    tableau, basis = _identity_start(rows, n)
    # Phase-1 objective: minimize the sum of the artificial (identity)
    # columns.  The objective row starts as cost minus the sum of constraint
    # rows (pricing out the artificial basis); the zero row keeps m = 0 valid.
    obj = [-sum(column) for column in zip([0] * (n + m + 1), *tableau)]
    for j in range(n, n + m):
        obj[j] += 1
    obj = _pivot_to_optimum(tableau, basis, _reduce_row(obj), entered)

    if obj[-1] != 0:
        return None
    values = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            values[b] = Fraction(tableau[i][-1], tableau[i][b])
    return values


def _old_strict_candidates(lp) -> list[int]:
    """The strict set from the old phase-2 layout, on the dense reference:
    max sum s_i s.t. -row_i(x) + s_i <= 0 (and row_i(x) <= 0 for '=='),
    s_i <= 1, every row with its own slack, by the plain Bland loop."""
    candidates = sorted(lp.strict_candidates)
    nx, k = len(lp.variables), len(candidates)
    rows = []
    for i, row in enumerate(lp.rows):
        x = [row.coeffs.get(j, 0) for j in range(nx)]
        s = [int(c == i) for c in candidates]
        rows.append([-a for a in x] + s + [0])
        if row.relation == EQ:
            rows.append(x + [0] * k + [0])
    rows += [[0] * nx + [int(c == d) for d in range(k)] + [1] for c in range(k)]
    tableau, basis = _identity_start(rows, nx + k)
    _pivot_to_optimum(tableau, basis, [0] * nx + [-1] * k + [0] * len(rows) + [0])
    strict = []
    for row, b in zip(tableau, basis):
        if nx <= b < nx + k and row[-1] != 0:
            assert row[-1] == row[b]
            strict.append(candidates[b - nx])
    return sorted(strict)


def _phase_two_rows(lp) -> int:
    """The rows of the new phase-2 tableau: one per constraint ('==' two),
    less the first candidate sign row a x_j >= 0 (a > 0) of each variable."""
    signs = {}
    for i in sorted(lp.strict_candidates):
        support = sorted(lp.rows[i].coeffs)
        if len(support) == 1 and lp.rows[i].coeffs[support[0]] > 0:
            signs.setdefault(support[0], i)
    return len(lp.rows) + sum(row.relation == EQ for row in lp.rows) - len(signs)


# The comparison.

def dense(row: dict[int, int], ncols: int) -> list[int]:
    """A sparse row as a dense list, right-hand side (key `ncols`) last."""
    assert all(type(a) is int and a != 0 for a in row.values()), row
    assert all(0 <= j <= ncols for j in row), row
    return [row.get(j, 0) for j in range(ncols + 1)]


class DenseMirror:
    """Replays every sparse solve on the dense reference and asserts the
    same result; counts the solves it compared, and in `origins` the
    phase-1 solves with b = 0, which pivot nothing.  `entered` lists the
    entering columns of the unbounded pivot runs, `last_obj` holds the
    final objective row of the last one, and `systems` the `log_calls`
    log of every layer system the analysis built."""

    def __init__(self, monkeypatch):
        self.pivot_runs = self.replays = self.phase_ones = self.strict_sets = self.solutions = 0
        self.origins = 0
        self.last_bounded = self.last_obj = None
        self.phase_one_n: Optional[int] = None  # set while a phase-1 solve runs
        self.entered: list[int] = []
        self.systems = log_calls(monkeypatch, analyzer, "build_extended_system")
        sparse_pivot = exactlp._pivot_to_optimum
        sparse_phase_one = exactlp._phase_one
        sparse_strict = exactlp._strict_candidates
        sparse_feasible = exactlp._feasible

        def pivot(tableau, basis, obj, ncols, bounded=range(0), stop_at_zero=False):
            self.pivot_runs += 1
            if bounded:  # phase 2: compared by its strict set, below
                self.last_bounded = len(tableau), bounded
                return sparse_pivot(tableau, basis, obj, ncols, bounded, stop_at_zero)
            assert stop_at_zero == (self.phase_one_n is not None)
            ref_tableau = [dense(row, ncols) for row in tableau]
            ref_basis = list(basis)
            ref_obj = _pivot_to_optimum(ref_tableau, ref_basis, dense(obj, ncols), self.entered,
                                        stop_at_zero)
            if self.phase_one_n is not None:  # no row, before or after, stores an artificial
                assert all(j < self.phase_one_n or j == ncols for row in (*tableau, obj) for j in row)
            final, flipped = sparse_pivot(tableau, basis, obj, ncols, stop_at_zero=stop_at_zero)
            if self.phase_one_n is not None:
                assert all(j < self.phase_one_n or j == ncols for row in (*tableau, final) for j in row)
            assert basis == ref_basis and flipped == set()
            assert [dense(row, ncols) for row in tableau] == ref_tableau
            assert dense(final, ncols) == ref_obj
            self.replays += 1
            self.last_obj = final
            return final, flipped

        def phase_one(rows, n):
            ref_rows = [dense(coeffs, n)[:-1] + [rhs] for coeffs, rhs in rows]
            self.origins += not any(rhs for _, rhs in rows)
            self.phase_one_n = n
            try:
                raw = sparse_phase_one(rows, n)
            finally:
                self.phase_one_n = None
            ref = _phase_one(ref_rows, n)  # pivots on to an optimum
            if ref is None:
                assert raw is None
            else:
                numerators, denominator = raw
                assert all(type(x) is int for x in numerators) and denominator > 0
                assert [Fraction(x, denominator) for x in numerators] == ref
            self.phase_ones += 1
            return raw

        def feasible(rows, n):
            solution = sparse_feasible(rows, n)
            if solution is not None:
                numerators, denominator = solution
                assert len(numerators) == n and gcd(denominator, *numerators) == 1
                self.solutions += 1
            return solution

        def strict_candidates(columns, nx, nr):
            self.last_bounded = None
            strict, *point = sparse_strict(columns, nx, nr)
            lp = ranking_problem(columns, nx, nr)
            assert strict == _old_strict_candidates(lp)
            if self.last_bounded is not None:  # of its own phase-2 solve
                rows, bounded = self.last_bounded
                assert rows == _phase_two_rows(lp)
                assert len(bounded) == len(lp.strict_candidates)
            self.strict_sets += 1
            return (strict, *point)

        monkeypatch.setattr(exactlp, "_pivot_to_optimum", pivot)
        monkeypatch.setattr(exactlp, "_phase_one", phase_one)
        monkeypatch.setattr(exactlp, "_strict_candidates", strict_candidates)
        monkeypatch.setattr(exactlp, "_feasible", feasible)


@pytest.fixture
def mirror(monkeypatch):
    return DenseMirror(monkeypatch)


def assert_analysis_mirrored(mirror, v):
    before = mirror.strict_sets
    mirror.systems.clear()
    read_every_mu(analyze(v))
    # Each distinct layer system is solved once, as two LPs: the ranking LP
    # by phase 2 alone, whose optimum is its point, the multi-cycle LP by
    # one joint phase-1 solve once its counts are read, its strict set
    # being the complement.  Every
    # phase-1 pivot run is replayed exactly; one with b = 0 makes none.
    assert mirror.strict_sets - before == distinct_systems(mirror.systems)
    assert mirror.phase_ones == mirror.solutions == mirror.strict_sets
    assert mirror.pivot_runs == mirror.phase_ones - mirror.origins + mirror.strict_sets
    assert mirror.replays == mirror.phase_ones - mirror.origins


def test_random_suite_lps_match_dense_reference(mirror):
    for v in suite_models():
        assert_analysis_mirrored(mirror, v)
    assert mirror.phase_ones == mirror.strict_sets > 200


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
def test_family_lps_match_dense_reference(mirror, nu):
    assert_analysis_mirrored(mirror, v_family(nu))


@pytest.mark.parametrize("name", ["running.vass", "doubling.vass"])
def test_sample_lps_match_dense_reference(mirror, name):
    assert_analysis_mirrored(mirror, load_sample(name.removesuffix(".vass")))


def test_random_problems_match_dense_reference(mirror):
    rng = random.Random(18)
    decided = 0  # tightened to 0 >= 1 by an all-zero row: infeasible before phase 1
    for _ in range(120):
        p = random_homogeneous(rng)
        max_strict_set(p)
        solution = lp_feasible(p, range(len(p.rows)))
        if any(not row.coeffs for row in p.rows):
            assert solution is None
            decided += 1
    assert mirror.strict_sets == 120 and decided == 9 and mirror.phase_ones == 111


class TestEdgeCases:
    def test_zero_rows(self, mirror):
        p = problem(["x", "y"], [])
        assert lp_feasible(p).assignment == {"x": 0, "y": 0}
        assert max_strict_set(p).strict_set == frozenset()
        assert mirror.phase_ones == 1 and mirror.strict_sets == 1

    @pytest.mark.parametrize("relation", [GE, EQ])
    def test_all_zero_row(self, mirror, relation):
        p = problem(["x", "y"], [((0, 0), relation, 0), ((1, -1), GE, 0)],
                    candidates=[0, 1] if relation == GE else [1])
        assert max_strict_set(p).strict_set == {1}
        sol = lp_feasible(problem(["x"], [((0,), relation, -3)]))
        assert (sol is None) == (relation == EQ)
        # Decided alone: 0 >= -3 leaves no row, so b = 0; 0 == -3 fails at once.
        assert mirror.phase_ones == mirror.origins == (relation == GE)
        assert mirror.strict_sets == 1 and mirror.pivot_runs == 1

    def test_negative_right_hand_side_flips_the_row(self, mirror):
        p = problem(["x", "y"], [((-1, -2), GE, -7), ((1, -1), EQ, -1),
                                 ((1, 0), GE, 1)])
        sol = lp_feasible(p)
        assert sol is not None
        x, y = sol.assignment["x"], sol.assignment["y"]
        assert x + 2 * y <= 7 and x - y == -1 and x >= 1
        assert mirror.phase_ones == 1 and mirror.pivot_runs == 1

    def test_infeasible_problem(self, mirror):
        p = problem(["x", "y"], [((1, 1), GE, 3), ((-1, 0), GE, -1),
                                 ((0, -1), GE, -1)])
        assert lp_feasible(p) is None
        assert mirror.phase_ones == 1 and mirror.pivot_runs == 1

    def test_no_strict_candidates(self, mirror):
        p = problem(["x", "y"], [((1, -1), GE, 0), ((0, 1), EQ, 0)])
        sol = max_strict_set(p)
        assert sol.strict_set == frozenset()
        assert mirror.strict_sets == 1 and mirror.phase_ones == 0


class TestStopRule:
    """The sparse phase 1 stops at the first basis with w = 0, or at an
    optimum with w > 0; the reference run to its optimum pivots on after
    w = 0, entering columns at step 0 that move no point."""

    def test_feasible_problem_stops_at_w_zero(self, mirror):
        # Columns x, y and the surplus of row 0; artificials 3-5, rhs 6.
        # Entering y and x reaches w = 0 at x = y = 1, where the reference
        # still brings artificial 5 in, at step 0.
        p = problem(["x", "y"], [((-1, 2), GE, 1), ((2, -2), EQ, 0), ((-1, 1), EQ, 0)])
        assert lp_feasible(p).assignment == {"x": 1, "y": 1}
        entered: list[int] = []
        ref = _phase_one([[-1, 2, -1, 1], [2, -2, 0, 0], [-1, 1, 0, 0]], 3, entered)
        assert ref == [1, 1, 0]
        assert mirror.entered == [1, 0] and entered == [1, 0, 5]
        assert 6 not in mirror.last_obj  # w = 0

    def test_stops_while_a_structural_reduced_cost_is_negative(self, mirror):
        # x = 1 and y = 0.  Columns x, y; artificials 2 and 3; rhs 4.
        # Entering x reaches w = 0 while y's reduced cost is still -1: the
        # reference enters y too, at step 0, in the row of artificial 3.
        p = problem(["x", "y"], [((1, 0), EQ, 1), ((0, 1), EQ, 0)])
        assert lp_feasible(p).assignment == {"x": 1, "y": 0}
        entered: list[int] = []
        assert _phase_one([[1, 0, 1], [0, 1, 0]], 2, entered) == [1, 0]
        assert mirror.entered == [0] and entered == [0, 1]
        assert mirror.last_obj == {1: -1}

    def test_zero_right_hand_sides_give_the_origin_unpivoted(self, mirror):
        p = problem(["x", "y"], [((1, -1), GE, 0), ((-1, 2), EQ, 0)])
        assert lp_feasible(p).assignment == {"x": 0, "y": 0}
        assert mirror.phase_ones == mirror.origins == 1 and mirror.pivot_runs == 0

    def test_infeasible_problem_stops_at_positive_w(self, mirror):
        # y = z / 2 and y = z force y = z = 0, so -x + y + 2z >= 1 fails.
        # Columns x, y, z and the surplus of row 1; artificials 4-6, rhs 7.
        p = problem(["x", "y", "z"], [((0, -2, 1), EQ, 0), ((-1, 1, 2), GE, 1),
                                      ((0, -2, 2), EQ, 0)])
        assert lp_feasible(p) is None
        entered: list[int] = []
        ref = _phase_one([[0, -2, 1, 0, 0], [-1, 1, 2, -1, 1], [0, -2, 2, 0, 0]], 4, entered)
        assert ref is None
        assert mirror.entered == [2, 1] and entered == [2, 1, 4]
        # The objective row's right-hand side is -w, times a positive scale.
        assert mirror.last_obj[7] < 0


def test_phase_one_work_on_the_family(monkeypatch):
    """Phase-1 eliminations over `analyze(v_family(1..5))`, and the
    non-zeros they read (the eliminated row's and the pivot row's), pinned:
    a change to the shape of the joint LPs shows here, without timing."""
    work = {"eliminations": 0, "nonzeros": 0}
    solving: list[int] = []  # non-empty while a phase-1 solve runs
    eliminate, phase_one = exactlp._eliminate, exactlp._phase_one

    def counted_eliminate(row, pivot, entering):
        if solving:
            work["eliminations"] += 1
            work["nonzeros"] += len(row) + len(pivot)
        return eliminate(row, pivot, entering)

    def counted_phase_one(rows, n):
        solving.append(n)
        try:
            return phase_one(rows, n)
        finally:
            solving.pop()

    monkeypatch.setattr(exactlp, "_eliminate", counted_eliminate)
    monkeypatch.setattr(exactlp, "_phase_one", counted_phase_one)
    for nu in range(1, 6):
        read_every_mu(analyze(v_family(nu)))
    assert work == {"eliminations": 4257, "nonzeros": 60734}


def test_phase_two_work_on_the_family(monkeypatch):
    """Phase-2 eliminations over `analyze(v_family(1..5))`, and the
    non-zeros they read, pinned like phase 1's: a change to the strict-set
    tableau or to its pivot path shows here, without timing."""
    work = {"eliminations": 0, "nonzeros": 0}
    solving: list[int] = []  # non-empty while a phase-2 solve runs
    eliminate, strict_candidates = exactlp._eliminate, exactlp._strict_candidates

    def counted_eliminate(row, pivot, entering):
        if solving:
            work["eliminations"] += 1
            work["nonzeros"] += len(row) + len(pivot)
        return eliminate(row, pivot, entering)

    def counted_strict_candidates(columns, nx, nr):
        solving.append(1)
        try:
            return strict_candidates(columns, nx, nr)
        finally:
            solving.pop()

    monkeypatch.setattr(exactlp, "_eliminate", counted_eliminate)
    monkeypatch.setattr(exactlp, "_strict_candidates", counted_strict_candidates)
    for nu in range(1, 6):
        analyze(v_family(nu))
    assert work == {"eliminations": 1821, "nonzeros": 45919}


def test_layer_split_work_on_the_family(monkeypatch):
    """The analyzer's `scc_decompose` calls and the `Vass` objects built
    over `analyze(v_family(1..5))`, pinned: a node that the ranking leaves
    whole is carried over as its own only child, so only the nodes that lose
    a transition are split and restricted."""
    models = [v_family(nu) for nu in range(1, 6)]
    work = {"scc_decompose": 0, "vass": 0}
    split, post_init = analyzer.scc_decompose, Vass.__post_init__

    def counted_split(states, transitions):
        work["scc_decompose"] += 1
        return split(states, transitions)

    def counted_post_init(self):
        work["vass"] += 1
        post_init(self)

    monkeypatch.setattr(analyzer, "scc_decompose", counted_split)
    monkeypatch.setattr(Vass, "__post_init__", counted_post_init)
    for v in models:
        analyze(v)
    assert work == {"scc_decompose": 45, "vass": 40}
