"""Exact rational linear constraint solving.

Problems are solved by the primal simplex method with Bland's anti-cycling
rule over a fraction-free integer tableau, so results are exact and
deterministic.  One sparse row format, `Row` (non-zero ints by column),
runs from `LpRow` to the tableau; elimination divides its two multipliers
by their gcd first.  `lp_feasible` finds a basic solution with a phase-1
simplex, reads it out as integer numerators over one denominator and checks
it once, exactly, against every row; only `LpSolution` builds `Fraction`s.

Phase 1 stores no artificial column.  It stops at the first basis where
the sum w of the artificials is 0, or where no structural reduced cost is
negative with w > 0: there the duals y have A^T y <= 0, so a feasible
x* >= 0 would give w = y^T b = y^T A x* <= 0 (weak duality).  Bland's rule
enters structural columns before artificial ones, so each pivot up to there
is the textbook loop's, which pivots on from w = 0 at step 0 only (a step t
on reduced cost d < 0 changes w >= 0 by t d) and so ends at the same point.
`lp_feasible` decides a row with no variable alone, as its surplus has no
entry outside its row; `_strict_candidates` flips at once each strictness
column that no row holds.  Either keeps every order Bland's rule reads.

`max_strict_set` finds the unique maximal set of strict candidate rows of a
homogeneous problem, whose solution set is a cone, so "strict" may mean
"slack >= 1".  One phase-2 simplex from the all-slack basis at the origin
maximizes the sum of s_i subject to row_i(x) - s_i >= 0 and 0 <= s_i <= 1,
the bounds kept by Dantzig's upper bounding (see `_strict_candidates`); on
a cone s_i = 1 at the optimum exactly on that set.  Its x, read out and
checked once like phase 1's, attains the set; its row duals, checked once,
prove it maximal (weak duality).  The joint solve, run only where counts
are read, is `lp_feasible` with a set so proved as its strict set.
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
    one simplex column).

    `strict_candidates` are indices of `>=` rows that the maximization
    objective may tighten to slack >= 1.
    """

    variables: tuple[str, ...]
    rows: tuple[LpRow, ...]
    strict_candidates: frozenset[int] = frozenset()
    __hash__ = None  # compared by value; holds dicts, so never hashed

    def __post_init__(self):
        keyed = [row.coeffs for row in self.rows if row.coeffs]
        if keyed and (min(map(min, keyed)) < 0 or max(map(max, keyed)) >= len(self.variables)):
            raise LpError("row arity does not match variables")
        values = [a for coeffs in keyed for a in coeffs.values()]
        if {*map(type, values), *[type(row.rhs) for row in self.rows]} - {int} or 0 in values:
            raise LpError("LP rows need integer right-hand sides and non-zero integer coefficients")
        for row in self.rows:
            if row.relation not in (GE, EQ):
                raise LpError(f"bad relation {row.relation!r}")
        for i in self.strict_candidates:
            if not (0 <= i < len(self.rows)) or self.rows[i].relation != GE:
                raise LpError(f"strict candidate {i} is not a '>=' row")


@dataclass(frozen=True)
class LpSolution:
    """A solution of its problem: the point `numerators / denominator` over
    `variables`, with one positive denominator; `assignment` and `vector`
    are its rational view.  `strict_set` lists candidate rows satisfied
    with slack >= 1, and `max_strict_set`'s `duals` prove that set maximal.
    """

    variables: tuple[str, ...]
    numerators: tuple[int, ...]
    denominator: int
    strict_set: frozenset[int] = frozenset()
    duals: tuple[int, ...] = ()

    @property
    def assignment(self) -> dict[str, Fraction]:
        return {x: Fraction(v, self.denominator) for x, v in zip(self.variables, self.numerators)}

    def vector(self, variables: Sequence[str]) -> tuple[Fraction, ...]:
        assignment = self.assignment
        return tuple(assignment[x] for x in variables)


def satisfies(problem: LpProblem, values: Sequence, denominator: int = 1,
              strict: frozenset[int] = frozenset()) -> bool:
    """Exact check of every row at `values / denominator` (no tolerances),
    the rows in `strict` at slack >= 1; `values` may be rationals, or
    integer numerators over `denominator`."""
    for i, row in enumerate(problem.rows):
        lhs = sum([a * values[j] for j, a in row.coeffs.items()])
        rhs = (row.rhs + (i in strict)) * denominator
        if not (lhs >= rhs if row.relation == GE else lhs == rhs):
            return False
    return True


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
        if entering in obj:
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


def _solution(problem: LpProblem, strict: Sequence[int], values: Sequence[int],
              den: int, duals: Sequence[int] = ()) -> LpSolution:
    """The point `values / den`, one value per variable, in lowest terms, with
    strict set `strict`, checked once, exactly: every value >= 0 and every
    row satisfied, those of `strict` at slack >= 1."""
    g, strict = gcd(den, *values), frozenset(strict)
    values, den = [v // g for v in values], den // g
    if min(values, default=0) < 0 or not satisfies(problem, values, den, strict):
        raise LpInternalError("simplex produced a non-solution")
    return LpSolution(problem.variables, tuple(values), den, strict, tuple(duals))


def lp_feasible(problem: LpProblem, strict: Sequence[int] = ()) -> Optional[LpSolution]:
    """Some exact rational solution, with strict set `strict`, of the problem
    whose row i has right-hand side rhs + (i in strict), over the least common
    denominator of its values, checked once, or None if infeasible."""
    n, strict = len(problem.variables), frozenset(strict)
    if any(not 0 <= i < len(problem.rows) for i in strict):
        raise LpError(f"a strict index of {sorted(strict)} names no row")
    rows = [(dict(row.coeffs), row.relation, row.rhs + (i in strict))
            for i, row in enumerate(problem.rows)]
    if any(not x_part and (rhs > 0 or (rhs and relation == EQ)) for x_part, relation, rhs in rows):
        return None  # a row with no variable fails 0 >= rhs or 0 == rhs
    # One surplus column (-1 in its own row) per '>=' row with a variable.
    surplus = [x_part for x_part, relation, _ in rows if x_part and relation == GE]
    for column, x_part in enumerate(surplus, n):
        x_part[column] = -1
    raw = _phase_one([(x_part, rhs) for x_part, _, rhs in rows if x_part], n + len(surplus))
    return None if raw is None else _solution(problem, strict, raw[0][:n], raw[1])  # surplus dropped


def _strict_candidates(problem: LpProblem) -> tuple[list[int], list[int], int, list[int]]:
    """The candidate rows i with s_i = 1 at an optimum of
    max sum s_i  s.t.  row_i(x) - s_i >= 0,  0 <= s_i <= 1
    over the homogeneous problem, found by one phase-2 simplex, with the
    optimum's x, its numerators over one lcm, and its row duals: a tableau
    row's is its slack's final objective entry, an '==' row's the difference
    of its two rows', a sign row's (below) x_j's over a, all times lcm(a).

    The s columns are bounded in `_pivot_to_optimum`, so s_i <= 1 takes no
    row.  Nor does the first candidate sign row a x_j >= 0 (a > 0) of a
    column: x_j = s_i + w_j, with w_j >= 0 in x_j's column, so s_i gets
    x_j's entries; on a cone that keeps the strict set.  Every
    other constraint is a '<=' row (an '==' row two) with right-hand side
    0 and its own slack, so the all-slack basis at the origin is feasible.
    A flipped column takes 1 minus its read-out, a shifted one s_i + w_j.
    An s column that no row holds (x_j's sign row was its only row) flips
    at once, off the objective: Bland's rule would enter it, find no row
    and flip it, moving nothing else.
    """
    split = [dict(row.coeffs) for row in problem.rows]
    candidates = sorted(problem.strict_candidates)
    nx, k = len(problem.variables), len(candidates)
    s_column = {i: nx + c for c, i in enumerate(candidates)}
    shift: dict[int, int] = {}  # x column j -> the s column of its sign row
    for i in candidates:
        if len(split[i]) == 1 and min(split[i].values()) > 0 and min(split[i]) not in shift:
            shift[min(split[i])], split[i] = s_column[i], None  # row i is now x_j = s_i + w_j
    tableau: list[Row] = []
    at: dict[int, int] = {}  # row i -> the slack column of its (first) tableau row
    for i, (row, x_part) in enumerate(zip(problem.rows, split)):
        if x_part is None:
            continue
        at[i] = nx + k + len(tableau)
        x_part.update([(shift[j], a) for j, a in x_part.items() if j in shift])
        le_row = {j: -a for j, a in x_part.items()}
        if i in s_column:
            le_row[s_column[i]] = 1
        tableau.append(le_row)
        if row.relation == EQ:
            tableau.append(x_part)
    rhs = nx + k + len(tableau)
    basis = list(range(nx + k, rhs))  # each row's own slack, with entry 1
    for row, b in zip(tableau, basis):
        row[b] = 1
    inert = set(s_column.values()).difference(*tableau)
    obj = {column: -1 for column in s_column.values() if column not in inert}
    obj, flipped = _pivot_to_optimum(tableau, basis, obj, rhs, range(nx, nx + k))
    values, den = _basic_point(tableau, basis, nx + k, rhs)  # the x and s columns
    for j in flipped | inert:
        values[j] = den - values[j]
    for j, column in shift.items():
        values[j] += values[column]
    # By closure under addition and scaling every optimum is 0/1.
    if any(values[column] not in (0, den) for column in s_column.values()):
        raise LpInternalError("fractional strictness variable at the optimum")
    signs = {i: next(iter(problem.rows[i].coeffs.items())) for i in candidates if i not in at}
    scale = lcm(*(a for _, a in signs.values()))
    duals = [scale // signs[i][1] * obj.get(signs[i][0], 0) if i in signs else
             scale * (obj.get(at[i], 0) - (row.relation == EQ) * obj.get(at[i] + 1, 0))
             for i, row in enumerate(problem.rows)]
    return [i for i, column in s_column.items() if values[column]], values[:nx], den, duals


def max_strict_set(problem: LpProblem) -> LpSolution:
    """A solution attaining the unique maximal set of strict candidate rows,
    with row duals y, one integer per row, that prove it maximal.

    Requires homogeneous rows (right-hand side 0), so that the solution set
    is a cone, closed under addition and positive scaling; raises LpError
    otherwise.  One phase-2 simplex gives the set, its optimum and y (see
    `_strict_candidates`); no joint solve runs.  Both are checked once,
    exactly (else LpInternalError): the point like `lp_feasible`'s, y by
    y >= 0 on '>=' rows, y^T A <= 0, and y_i > 0 on each candidate outside
    the set, which no solution x makes strict: 0 <= y^T (A x) = (y^T A) x <= 0."""
    if any(row.rhs != 0 for row in problem.rows):
        raise LpError("maximal strict sets need homogeneous rows")
    solution = _solution(problem, *_strict_candidates(problem))
    duals, columns = solution.duals, [0] * len(problem.variables)
    for y, coeffs in [(y, row.coeffs) for y, row in zip(duals, problem.rows) if y]:
        for j, a in coeffs.items():
            columns[j] += y * a
    if max(columns, default=0) > 0 or any(y < 0 for y, row in zip(duals, problem.rows)
                                          if row.relation == GE) \
            or any(duals[i] <= 0 for i in problem.strict_candidates - solution.strict_set):
        raise LpInternalError("dichotomy violated: the row duals do not prove the strict set maximal")
    return solution


def scale_to_integer(problem: LpProblem, solution: LpSolution) -> LpSolution:
    """Scale a solution of a homogeneous problem to its integer numerators
    by dropping its denominator.

    Satisfaction of every row and membership of the strict set hold without
    a second check: scaling by a positive integer fixes homogeneous rows
    and can only widen slacks that were already >= 1.
    """
    if any(row.rhs != 0 for row in problem.rows):
        raise LpError("scaling needs homogeneous rows")
    return LpSolution(solution.variables, solution.numerators, 1, solution.strict_set,
                      solution.duals)
