"""Exact rational linear constraint solving.

Problems are solved by the primal simplex method with Bland's anti-cycling
rule over a fraction-free integer tableau, so results are exact and
deterministic.  One sparse row format, `Row` (non-zero ints by column),
runs from the plain `(coeffs, relation, rhs)` rows of `_feasible`, the one
phase-1 front end, or the columns of `max_strict_set` to the tableau, where
elimination divides its two multipliers by their gcd first.  `_feasible`
reads a basic point out as integer numerators over one denominator and
checks it once, exactly; `lp_feasible` adapts it to `LpProblem`.

Phase 1 stores no artificial column.  It stops at the first basis where
the sum w of the artificials is 0, or where no structural reduced cost is
negative with w > 0: there the duals y have A^T y <= 0, so a feasible
x* >= 0 would give w = y^T b = y^T A x* <= 0 (weak duality).  Bland's rule
enters structural columns before artificial ones, so each pivot up to there
is the textbook loop's, which pivots on from w = 0 at step 0 only (a step t
on reduced cost d < 0 changes w >= 0 by t d) and so ends at the same point.
`_feasible` decides a row with no variable alone, as its surplus has no
entry outside its row; `_strict_candidates` flips at once each strictness
column that no row holds.  Either keeps every order Bland's rule reads.

`max_strict_set` finds the unique maximal set of strict rows of the cone
c_j . x <= 0, x >= 0, given straight by its sparse columns c_j, whose rows
x_i >= 0 for i < nr are candidates too; on a cone "strict" may mean
"slack >= 1".  One phase-2 simplex from the all-slack basis at the origin
maximizes the sum of s_i subject to row_i(x) - s_i >= 0 and 0 <= s_i <= 1,
the bounds kept by Dantzig's upper bounding (see `_strict_candidates`); on
a cone s_i = 1 at the optimum exactly on that set.  Its x, read out and
checked once, attains the set; its row duals, checked once, prove it
maximal (weak duality).  The joint solve, run only where counts are read,
is `_feasible` with a set so proved as its strict set, at rhs 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


GE = ">="
EQ = "=="
Row = dict[int, int]  # a sparse tableau row: its non-zero entries by column


class LpError(Exception):
    """Malformed problem or violated solver precondition."""


class LpInternalError(LpError):
    """A derived solution violates a row: the problem was not closed under
    addition (precondition violation), or the solver is buggy."""


@dataclass(frozen=True)
class LpRow:
    """The constraint `coeffs . x  relation  rhs` over the integers.

    `coeffs` is a `Row` over the variable indices, as `LpProblem` checks;
    `of` builds one from a dense sequence, storing integral `Fraction`s as
    ints and raising LpError on any other value.  No solve rescales a row."""

    coeffs: Row
    relation: str
    rhs: int
    __hash__ = None  # compared by value; holds dicts, so never hashed

    @staticmethod
    def of(coeffs: Sequence, relation: str, rhs=0) -> "LpRow":
        ints = [int(a) for a in (*coeffs, rhs)]
        if ints != [*coeffs, rhs]:
            raise LpError("LP rows need integer coefficients and right-hand sides")
        return LpRow({j: a for j, a in enumerate(ints[:-1]) if a}, relation, ints[-1])


@dataclass(frozen=True)
class LpProblem:
    """Constraint rows over named variables, every one of them >= 0 (each is
    one simplex column).  `lp_feasible` takes the rows to tighten to
    slack >= 1 as its own argument."""

    variables: tuple[str, ...]
    rows: tuple[LpRow, ...]
    __hash__ = None  # compared by value; holds dicts, so never hashed

    def __post_init__(self):
        _check_rows([(row.coeffs, row.relation, row.rhs) for row in self.rows], len(self.variables))


@dataclass(frozen=True)
class LpSolution:
    """A solution of its problem: the point `numerators / denominator` over
    `variables`, with one positive denominator; `assignment` and `vector`
    are its rational view.  `strict_set` lists the rows it satisfies with
    slack >= 1.
    """

    variables: tuple[str, ...]
    numerators: tuple[int, ...]
    denominator: int
    strict_set: frozenset[int] = frozenset()

    @property
    def assignment(self) -> dict[str, Fraction]:
        return {x: Fraction(v, self.denominator) for x, v in zip(self.variables, self.numerators)}

    def vector(self, variables: Sequence[str]) -> tuple[Fraction, ...]:
        assignment = self.assignment
        return tuple(assignment[x] for x in variables)


def _check_rows(rows: Sequence[tuple[Row, str, int]], n: int) -> None:
    """LpError unless each row has non-zero int coeffs in columns < n, an int rhs, and GE or EQ."""
    columns = set().union(*[coeffs for coeffs, _, _ in rows])
    if columns and (min(columns) < 0 or max(columns) >= n):
        raise LpError("row arity does not match variables")
    values = [a for coeffs, _, _ in rows for a in coeffs.values()]
    if {*map(type, values), *[type(rhs) for _, _, rhs in rows]} - {int} or 0 in values:
        raise LpError("LP rows need integer right-hand sides and non-zero integer coefficients")
    for _, relation, _ in rows:
        if relation not in (GE, EQ):
            raise LpError(f"bad relation {relation!r}")


def _holds(rows: Sequence[tuple[Row, str, int]], values: Sequence, denominator: int) -> bool:
    """Exact check, no tolerances, of every row (coeffs, relation, rhs) at `values / denominator`."""
    for coeffs, relation, rhs in rows:
        lhs, rhs = 0, rhs * denominator
        for j, a in coeffs.items():  # plain loops: no comprehension frame per row
            lhs += a * values[j]
        if lhs < rhs or relation == EQ and lhs != rhs:
            return False
    return True


def satisfies(problem: LpProblem, values: Sequence, denominator: int = 1,
              strict: frozenset[int] = frozenset()) -> bool:
    """`_holds` on `problem`'s rows, those in `strict` at slack >= 1; `values` may be rationals."""
    return _holds([(row.coeffs, row.relation, row.rhs + (i in strict))
                   for i, row in enumerate(problem.rows)], values, denominator)


def _reduce_row(row: Row) -> Row:
    g = gcd(*row.values())
    return {j: a // g for j, a in row.items()} if g > 1 else row


def _eliminate(row: Row, pivot: Row, entering: int) -> Row:
    """The primitive part of `piv * row - f * pivot` (see `_pivot_to_optimum`)."""
    g = gcd(pivot[entering], row[entering])
    piv, f = pivot[entering] // g, row[entering] // g
    row = {j: piv * a for j, a in row.items()} if piv != 1 else row
    for j, b in pivot.items():
        a = row.get(j, 0) - f * b
        if a:
            row[j] = a
        else:
            del row[j]
    return _reduce_row(row)


def _flip(row: Row, j: int, rhs: int) -> None:
    """Put 1 - x_j for x_j in `row` (rhs -= a, a -> -a); it stays primitive."""
    row[j], row[rhs] = -row[j], row.get(rhs, 0) - row[j]
    if not row[rhs]:
        del row[rhs]


def _pivot_to_optimum(tableau: list[Row], basis: list[int], obj: Row, ncols: int,
                      bounded: range = range(0), stop_at_zero: bool = False) -> tuple[Row, set[int]]:
    """Pivot until no reduced cost in the objective row `obj` is negative,
    or, with `stop_at_zero` (phase 1), until `obj` has no right-hand side.

    Every row, `obj` too, maps its non-zero columns to ints, with the
    right-hand side under key `ncols`, and may carry any positive scale.
    A row `a` with entry `f` in the entering column becomes the primitive
    part of `piv * a - f * b`, `b` the pivot row with entry `piv`; dividing
    `piv` and `f` by `gcd(piv, f)` first gives the same primitive row and,
    when `piv` becomes 1, changes only the pivot row's non-zeros.  Bland's
    rule (smallest eligible index, ratio ties to the smaller basic column)
    keeps the pivoting finite and deterministic.  It updates `tableau` and
    `basis` in place, may change `obj`, and returns the final objective row
    and the set of flipped columns.

    The columns in `bounded` are at most 1 too; a flipped one stands for
    1 - x_j, so non-basic columns stay at 0.  A row with entry -a < 0
    whose basic column is bounded, with entry d, limits the step to
    (d - rhs) / a, and a bounded entering column limits it to 1 under its
    own index.  If that own bound wins, the column flips in every row and
    `obj`; a basic column that hits its bound flips in its row and leaves.
    With `bounded` empty, as in the joint solves, the plain loop remains.
    """
    flipped: set[int] = set()
    while True:
        entering = min([j for j, a in obj.items() if a < 0], default=ncols)
        if entering == ncols or (stop_at_zero and ncols not in obj):
            return obj, flipped
        column = [i for i, row in enumerate(tableau) if entering in row]
        pivot_row, leaving, best_num, best_den = -1, entering if entering in bounded else -1, 1, 1
        for i in column:
            a, num, b = tableau[i][entering], tableau[i].get(ncols, 0), basis[i]
            if a < 0 and b in bounded:  # b rises towards its bound
                a, num = -a, tableau[i][b] - num
            if a > 0 and (leaving < 0 or (num * best_den, b) < (best_num * a, leaving)):
                pivot_row, leaving, best_num, best_den = i, b, num, a
        if leaving < 0:
            raise LpInternalError("objective unbounded")
        if pivot_row < 0:  # the entering column's own bound wins
            flipped ^= {entering}
            for row in [obj, *(tableau[i] for i in column)]:
                _flip(row, entering, ncols)
            continue
        pivot = tableau[pivot_row]
        if pivot[entering] < 0:  # its basic column leaves at its bound
            flipped ^= {leaving}
            pivot = tableau[pivot_row] = {j: -a for j, a in pivot.items()}
            _flip(pivot, leaving, ncols)
        for i in column:
            if i != pivot_row:
                tableau[i] = _eliminate(tableau[i], pivot, entering)
        obj = _eliminate(obj, pivot, entering)
        basis[pivot_row] = entering


def _basic_point(tableau: list[Row], basis: list[int], n: int, rhs: int) -> tuple[list, int]:
    """Columns 0..n-1 at the basic solution, over the lcm of their basic entries."""
    basic = [(b, row) for row, b in zip(tableau, basis) if b < n]
    den = lcm(*(row[b] for b, row in basic))
    numerators = [0] * n
    for b, row in basic:
        numerators[b] = row.get(rhs, 0) * (den // row[b])
    return numerators, den


def _phase_one(rows: list[tuple[Row, int]], n: int) -> Optional[tuple[list[int], int]]:
    """Solve A x = b, x >= 0 for feasibility; returns x or None.

    Each of `rows` holds the non-zeros of one row of A over the `n` columns,
    a dict the tableau takes over, and its entry of b; artificial i is basic
    as the label n + i but has no column; b = 0 gives the origin at once
    (see the module docstring).  x comes as integer numerators over the
    lcm of the positive basic diagonal entries.
    """
    if not any(rhs for _, rhs in rows):
        return [0] * n, 1
    m = len(rows)
    tableau: list[Row] = []
    # Minimize w, priced out of the basis: minus the sum of the unreduced rows.
    obj: Row = {}
    for coeffs, rhs in rows:
        row = {j: -a for j, a in coeffs.items()} if rhs < 0 else coeffs
        if rhs:
            row[n + m] = abs(rhs)
        for j, a in row.items():
            obj[j] = obj.get(j, 0) - a
        tableau.append(_reduce_row(row))
    basis = list(range(n, n + m))
    obj, _ = _pivot_to_optimum(tableau, basis, _reduce_row({j: a for j, a in obj.items() if a}), n + m,
                               stop_at_zero=True)
    return None if n + m in obj else _basic_point(tableau, basis, n, n + m)


def _feasible(rows: Sequence[tuple[Row, str, int]], n: int) -> Optional[tuple[list[int], int]]:
    """Some x >= 0 over `n` columns with coeffs . x  relation  rhs on each row
    (LpError if one is malformed), as numerators over their lcm denominator,
    or None; checked once, exactly, on the rows as given (else LpInternalError)."""
    _check_rows(rows, n)
    tableau, k = [], n  # one surplus column k (-1 in its own row) per '>=' row with a variable
    for coeffs, relation, rhs in rows:
        if coeffs:
            tableau.append(({**coeffs, k: -1} if relation == GE else dict(coeffs), rhs))
            k += relation == GE
        elif rhs > 0 or rhs and relation == EQ:
            return None  # a row with no variable fails 0 >= rhs or 0 == rhs
    raw = _phase_one(tableau, k)
    if raw is None:
        return None
    g = gcd(raw[1], *raw[0][:n])  # the surplus columns dropped
    values, den = [v // g for v in raw[0][:n]], raw[1] // g
    if min(values, default=0) < 0 or not _holds(rows, values, den):
        raise LpInternalError("simplex produced a non-solution")
    return values, den


def lp_feasible(problem: LpProblem, strict: Sequence[int] = ()) -> Optional[LpSolution]:
    """`_feasible` on `problem`, row i at rhs + (i in strict), with strict set `strict`; or None."""
    strict = frozenset(strict)
    if any(not 0 <= i < len(problem.rows) for i in strict):
        raise LpError(f"a strict index of {sorted(strict)} names no row")
    point = _feasible([(row.coeffs, row.relation, row.rhs + (i in strict))
                       for i, row in enumerate(problem.rows)], len(problem.variables))
    return None if point is None else LpSolution(problem.variables, tuple(point[0]), point[1], strict)


def _strict_candidates(columns: Sequence[Sequence[tuple[int, int]]], nx: int, nr: int
                       ) -> tuple[list[int], list[int], int, list[int]]:
    """The rows i with s_i = 1 at an optimum of
    max sum s_i  s.t.  row_i(x) - s_i >= 0,  0 <= s_i <= 1
    over the system of `max_strict_set`, found by one phase-2 simplex, with
    the optimum's x, its numerators over one lcm, and its row duals: a
    tableau row's is its slack's final objective entry, a sign row's (below)
    x_j's over a, all times lcm(a).

    The s columns are bounded in `_pivot_to_optimum`, so s_i <= 1 takes no
    row.  Nor does the first sign row a x_j >= 0 (a > 0) of a variable, in
    row order: x_j = s_i + w_j, with w_j >= 0 in x_j's column, so s_i gets
    x_j's entries; on a cone that keeps the strict set.  Every other row is
    a '<=' row with right-hand side 0 and its own slack, so the all-slack
    basis at the origin is feasible.  A flipped column takes 1 minus its
    read-out, a shifted one s_i + w_j.  An s column that no row holds (x_j's
    sign row was its only row) flips at once, off the objective: Bland's
    rule would enter it, find no row and flip it, moving nothing else.
    """
    k = len(columns) + nr
    le_rows = [dict(column) for column in columns]
    le_rows += [{j: -1} for j in range(nr)]
    signs: dict[int, tuple[int, int]] = {}  # a shifted row i -> its x_j and a
    shift: dict[int, int] = {}  # x column j -> the s column of its sign row
    for i, le_row in enumerate(le_rows):
        if len(le_row) == 1:
            (j, a), = le_row.items()
            if a < 0 and j not in shift:
                shift[j], signs[i], le_rows[i] = nx + i, (j, -a), None  # x_j = s_i + w_j
    tableau: list[Row] = []
    at: dict[int, int] = {}  # row i -> the slack column of its tableau row
    for i, le_row in enumerate(le_rows):
        if le_row is not None:
            le_row.update([(shift[j], a) for j, a in le_row.items() if j in shift])
            at[i] = nx + k + len(tableau)  # each row's own slack, with entry 1, is basic
            le_row[nx + i] = le_row[at[i]] = 1
            tableau.append(le_row)
    rhs, basis = nx + k + len(tableau), list(at.values())
    inert = {nx + i for i in signs}.difference(*tableau)
    obj = {column: -1 for column in range(nx, nx + k) if column not in inert}
    obj, flipped = _pivot_to_optimum(tableau, basis, obj, rhs, range(nx, nx + k))
    values, den = _basic_point(tableau, basis, nx + k, rhs)  # the x and s columns
    for j in flipped | inert:
        values[j] = den - values[j]
    for j, column in shift.items():
        values[j] += values[column]
    # By closure under addition and scaling every optimum is 0/1.
    if any(values[column] not in (0, den) for column in range(nx, nx + k)):
        raise LpInternalError("fractional strictness variable at the optimum")
    scale = lcm(*(a for _, a in signs.values()))
    duals = [scale // signs[i][1] * obj.get(signs[i][0], 0) if i in signs else
             scale * obj.get(at[i], 0) for i in range(k)]
    return [i for i in range(k) if values[nx + i]], values[:nx], den, duals


def max_strict_set(columns: Sequence[Sequence[tuple[int, int]]], nx: int, nr: int
                   ) -> tuple[tuple[int, ...], int, frozenset[int], tuple[int, ...]]:
    """A point x = numerators / denominator, in lowest terms, of the cone
    c_j . x <= 0 for each column c_j, x >= 0 over nx variables, attaining
    the unique maximal set of strict rows, with that set and row duals y,
    one integer per row, that prove it maximal.

    The rows are -c_j . x >= 0 in column order, then x_i >= 0 for i < nr,
    all of them candidates; the analyzer's quasi-ranking system has its
    transitions' coefficients over r, then z, as columns, and an r row per
    copy.  Each column lists its non-zero (i, c_ji) int pairs in distinct
    rows i < nx; LpError if not, if nr > nx or if there is no column.  One
    phase-2 simplex gives the set, its optimum and y (`_strict_candidates`);
    no joint solve runs.  Both are checked once, exactly, over the non-zeros
    (else LpInternalError): the point by x >= 0 and every row, the strict
    ones at slack >= 1, y by y >= 0, y^T A <= 0, and y_i > 0 on each row
    outside the set, which no solution x makes strict:
    0 <= y^T (A x) = (y^T A) x <= 0.  The rows are homogeneous, so the
    numerators alone are an integer point that keeps every row, and every
    strict slack >= 1."""
    try:
        entries = [(i, a) for column in columns for i, a in dict(column).items()]
    except (TypeError, ValueError):  # an entry that is no pair fails the count check
        entries = []
    if not columns or not 0 <= nr <= nx or len(entries) < sum(map(len, columns)) or any(
            {type(i), type(a)} != {int} or not a or not 0 <= i < nx for i, a in entries):
        raise LpError("a ranking system needs sparse int columns: non-zero, in distinct rows < nx >= nr")
    strict, values, den, duals = _strict_candidates(columns, nx, nr)
    g, strict = gcd(den, *values), frozenset(strict)
    values, den = [v // g for v in values], den // g
    slacks = [-sum([a * values[i] for i, a in column]) for column in columns] + values[:nr]
    if min(values, default=0) < 0 or any(s < den * (i in strict) for i, s in enumerate(slacks)):
        raise LpInternalError("simplex produced a non-solution")
    by_column = duals[len(columns):] + [0] * (nx - nr)  # y^T A
    for y, column in zip(duals, columns):
        for i, a in column:
            by_column[i] -= y * a
    # y_i >= 0 on every row, and y_i >= 1 on each row outside the set.
    if max(by_column, default=0) > 0 or any(y < (i not in strict) for i, y in enumerate(duals)):
        raise LpInternalError("dichotomy violated: the row duals do not prove the strict set maximal")
    return tuple(values), den, strict, tuple(duals)


def scale_to_integer(problem: LpProblem, solution: LpSolution) -> LpSolution:
    """Scale a solution of a homogeneous problem to its integer numerators
    by dropping its denominator.

    Satisfaction of every row and membership of the strict set hold without
    a second check: scaling by a positive integer fixes homogeneous rows
    and can only widen slacks that were already >= 1.
    """
    if any(row.rhs != 0 for row in problem.rows):
        raise LpError("scaling needs homogeneous rows")
    return LpSolution(solution.variables, solution.numerators, 1, solution.strict_set)
