"""Shared fixtures: the two worked examples and a loader of `samples/`, a
family generator with exponents growing exponentially in the dimension and
a random perturbation of it, a seeded random VASS generator for property
sweeps, the seeded random suite and the perturbed batches, each drawn once
per session, the probes that log a stage's calls or change its result, the
read of an exit-3 failure, a replay of an analysis's archive, a reader of
every record's multi-cycle, a runner under a shallow recursion limit, a
dense view of a layer system's sparse columns, and an adapter that solves a
general homogeneous `LpProblem` with strict candidates by
`exactlp.max_strict_set`."""

import functools
import inspect
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from vassbound import Vass, build_extended_system, exactlp, parse_vass, validate_connected
from vassbound.cli import main
from vassbound.exactlp import EQ, GE, LpError, LpProblem, LpRow, LpSolution

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def load_sample(name: str) -> Vass:
    """`samples/<name>.vass`, parsed."""
    return parse_vass((SAMPLES / f"{name}.vass").read_text(encoding="utf-8"))


def v_family(nu: int) -> Vass:
    """Chained pump/drain blocks: variables of block i reach N^(2^(i-1)),
    its self-loops run N^(2^i) times."""
    variables = []
    for i in range(1, nu + 1):
        variables += [f"x{i}1", f"x{i}2"]
    index = {x: j for j, x in enumerate(variables)}

    def upd(**kw):
        u = [0] * len(variables)
        for name, value in kw.items():
            u[index[name]] = value
        return tuple(u)

    triples = []
    for i in range(1, nu + 1):
        triples.append((f"s{i}1", upd(**{f"x{i}1": -1}), f"s{i}2"))
        triples.append((f"s{i}2", upd(), f"s{i}1"))
        loop = {f"x{i}1": -1, f"x{i}2": 1}
        if i < nu:
            loop[f"x{i+1}1"] = 1
            loop[f"x{i+1}2"] = 1
        triples.append((f"s{i}1", upd(**loop), f"s{i}1"))
        triples.append((f"s{i}2", upd(**{f"x{i}1": 1, f"x{i}2": -1}), f"s{i}2"))
        if i < nu:
            triples.append((f"s{i}1", upd(**{f"x{i}1": -1}), f"s{i+1}1"))
            triples.append((f"s{i+1}2", upd(), f"s{i}2"))
    return Vass.from_triples(variables, triples)


def long_ring(states: int) -> Vass:
    """States q0 .. q(S-1) in one cycle whose steps drain x and y in turn,
    and a `1 -1` self-loop on every 7th state."""
    steps = [(f"q{i}", (-1, 0) if i % 2 == 0 else (0, -1), f"q{(i + 1) % states}")
             for i in range(states)]
    loops = [(f"q{i}", (1, -1), f"q{i}") for i in range(0, states, 7)]
    return Vass.from_triples(["x", "y"], steps + loops)


def perturbed_family(rng: random.Random) -> Vass:
    """v_family(nu), nu in 1..3, plus 1-4 random transitions between random
    states, duplicate triples dropped.  Each update entry is -1 with
    probability 1/3, else 0; then, with probability 1/2, one entry is +1.
    Many draws stay polynomial with layer trees several layers deep."""
    base = v_family(rng.randint(1, 3))
    triples = [(t.src, t.update, t.dst) for t in base.transitions]
    for _ in range(rng.randint(1, 4)):
        src, dst = rng.choice(base.states), rng.choice(base.states)
        update = [-1 if rng.random() < 1 / 3 else 0 for _ in base.variables]
        if rng.random() < 1 / 2:
            update[rng.randrange(len(update))] = 1
        if (src, tuple(update), dst) not in triples:
            triples.append((src, tuple(update), dst))
    return Vass.from_triples(base.variables, triples)


def without_deep_recursion(fn, *args):
    """fn(*args) under a recursion limit 40 frames above the caller's depth,
    so a walk that recurses per state or per edge fails on a large input."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def random_connected_vass(rng: random.Random, max_vars=3, max_states=4,
                          max_transitions=6, span=2) -> Vass:
    """A uniformly scruffy connected VASS with small updates."""
    while True:
        nvars = rng.randint(1, max_vars)
        nstates = rng.randint(1, max_states)
        states = [f"s{i}" for i in range(nstates)]
        triples = []
        seen = set()
        for _ in range(rng.randint(1, max_transitions)):
            src = rng.choice(states)
            dst = rng.choice(states)
            update = tuple(rng.randint(-span, span) for _ in range(nvars))
            if (src, update, dst) in seen:
                continue
            seen.add((src, update, dst))
            triples.append((src, update, dst))
        if not triples:
            continue
        v = Vass.from_triples([f"x{i}" for i in range(nvars)], triples)
        if validate_connected(v):
            return v


@functools.cache
def suite_models() -> tuple[Vass, ...]:
    """The seeded random suite: 200 connected models with at most 3
    variables and 6 transitions and updates in [-2, 2], drawn once."""
    rng = random.Random(20240601)
    return tuple(random_connected_vass(rng, max_vars=3, max_transitions=6, span=2)
                 for _ in range(200))


@functools.cache
def perturbed_batch(seed: int, count: int) -> tuple[Vass, ...]:
    """The first `count` draws of `perturbed_family` from `random.Random(seed)`."""
    rng = random.Random(seed)
    return tuple(perturbed_family(rng) for _ in range(count))


def dense(sys) -> tuple[tuple, tuple]:
    """The layer system `sys` as its two dense matrices `(d_ext, flow)`,
    one column per transition: `d_ext` with a row per copy in `var_ext`
    order, `flow` with a row per state, both 0 wherever its column has no
    entry."""
    nr = len(sys.var_ext)
    rows = [[0] * len(sys.columns) for _ in range(nr + len(sys.states))]
    for j, column in enumerate(sys.columns):
        for i, a in column:
            rows[i][j] = a
    rows = tuple(map(tuple, rows))
    return rows[:nr], rows[nr:]


def distinct_systems(log) -> int:
    """How many distinct layer systems, by their numbers `dense(sys)`, a
    `log_calls` log of `analyzer.build_extended_system` holds: the systems
    an analysis solves."""
    return len({dense(sys) for _, sys in log})


def change_result(monkeypatch, owner, name, change) -> None:
    """Rebind `owner.name` so that each call, keyword arguments included,
    returns `change(result, *args)` for the original's result."""
    stage = getattr(owner, name)

    def changed(*args, **kwargs):
        return change(stage(*args, **kwargs), *args)

    monkeypatch.setattr(owner, name, changed)


def log_calls(monkeypatch, owner, name) -> list:
    """A list that collects `(args, result)` of each call of `owner.name`,
    whose result passes on unchanged."""
    calls = []
    change_result(monkeypatch, owner, name,
                  lambda result, *args: calls.append((args, result)) or result)
    return calls


def assert_exit_3(capsys, argv, message: str) -> str:
    """`main(argv)` exits 3 and writes README's form of an internal fault to
    stderr: one line, `internal invariant violation: ` and a text that
    contains `message`.  Returns what went to stdout."""
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith("internal invariant violation: ") and err.endswith("\n"), err
    assert err.count("\n") == 1 and message in err, err
    return out


def replay(result) -> list:
    """`(record, system)` per archived iteration, each system rebuilt by
    `build_extended_system` with the variables bounded before its layer.
    Each rebuilt system has the record's transitions `u` and copies
    `var_ext`."""
    vexp, out = {x: None for x in result.vass.variables}, []
    for record in result.archive:
        sys = build_extended_system(result.vass, result.tree, record.layer, vexp)
        assert tuple(t.tid for t in sys.transitions) == record.u
        assert sys.var_ext == record.var_ext
        out.append((record, sys))
        vexp.update(dict.fromkeys(record.new_variable_bounds, record.layer))
    return out


def read_every_mu(result) -> list:
    """Every archived record's multi-cycle, in archive order.  A system's
    joint solve runs at the first read of any of its records, so after this
    call an analysis has made each of them once, as an eager one would."""
    return [rec.mu for rec in result.archive]


def prepath_steps(builder, target: int) -> list:
    """The target layer's pre-path, flat, by this function's own recursion
    over the tree's spans, `builder.cut` and `builder.leaves`: at the target a
    node's cycle, above it each slot's part's pre-path N times, where the
    node is its own part inside its span and its children, in cut order, at
    its last layer."""
    def steps(nid, layer):
        if layer == target:
            return list(builder.leaves[nid].path.steps)
        last = builder.tree.node(nid).last_layer
        return [t for part in (builder.cut(nid)[1] if layer == last else [nid])
                for t in steps(part, layer + 1) * builder.n]
    return steps(builder.tree.root.nid, 0)


@dataclass(frozen=True)
class CandidateProblem(LpProblem):
    """An `LpProblem` whose `strict_candidates`, indices of `>=` rows, are
    the rows that the adapter `max_strict_set` may make strict."""

    strict_candidates: frozenset[int] = frozenset()
    __hash__ = None  # compared by value; holds dicts, so never hashed

    def __post_init__(self):
        super().__post_init__()
        for i in self.strict_candidates:
            if not (0 <= i < len(self.rows)) or self.rows[i].relation != GE:
                raise LpError(f"strict candidate {i} is not a '>=' row")


@dataclass(frozen=True)
class CertifiedSolution(LpSolution):
    """An `LpSolution` with row duals `duals`, one per row, that prove its
    strict set maximal among the candidates."""

    duals: tuple[int, ...] = ()


def ranking_columns(problem: LpProblem) -> tuple[tuple, int, int]:
    """A homogeneous problem as `exactlp.max_strict_set`'s input `(columns,
    nx, nr)`: no sign rows (nr = 0) and one sparse column -row per row, an
    '==' row a . x = 0 as the pair a . x >= 0, -a . x >= 0.  A problem with
    no row gets one empty column, a row that no point makes strict."""
    assert not any(row.rhs for row in problem.rows)
    columns = []
    for row in problem.rows:
        columns.append(tuple(sorted((j, -a) for j, a in row.coeffs.items())))
        if row.relation == EQ:
            columns.append(tuple((j, -a) for j, a in columns[-1]))
    return tuple(columns) or ((),), len(problem.variables), 0


def ranking_problem(columns, nx: int, nr: int) -> CandidateProblem:
    """`exactlp.max_strict_set`'s system as a `CandidateProblem` over
    v0 .. v(nx-1): the rows -c . x >= 0 per sparse column c, then v_j >= 0
    for j < nr, all candidates."""
    rows = [LpRow({j: -a for j, a in column}, GE, 0) for column in columns]
    rows += [LpRow({j: 1}, GE, 0) for j in range(nr)]
    return CandidateProblem(tuple(f"v{j}" for j in range(nx)), tuple(rows),
                            frozenset(range(len(rows))))


def candidate_rows(problem: CandidateProblem, rows) -> frozenset[int]:
    """The candidates of `problem` whose first column in
    `ranking_columns(problem)` is one of `rows`."""
    first, k = [], 0
    for row in problem.rows:
        first.append(k)
        k += 1 + (row.relation == EQ)
    return frozenset(i for i in problem.strict_candidates if first[i] in rows)


def max_strict_set(problem: CandidateProblem) -> CertifiedSolution:
    """`exactlp.max_strict_set` on `ranking_columns(problem)`, mapped back:
    its point, its strict set less the rows that are no candidates, and one
    dual per row, an '==' row's the difference of its pair's.  Exact, as a
    cone's maximal strict set is the union of its points' strict sets:
    extra candidates change no candidate's lot."""
    point, den, strict, duals = exactlp.max_strict_set(*ranking_columns(problem))
    duals, y = iter(duals), []
    for row in problem.rows:
        y.append(next(duals) - next(duals) if row.relation == EQ else next(duals))
    return CertifiedSolution(problem.variables, point, den, candidate_rows(problem, strict),
                             tuple(y))


@pytest.fixture(scope="session")
def v_run() -> Vass:
    return load_sample("running")


@pytest.fixture(scope="session")
def doubling() -> Vass:
    return load_sample("doubling")


@pytest.fixture(scope="session")
def v2() -> Vass:
    return v_family(2)
