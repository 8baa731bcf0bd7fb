"""Layer-by-layer bound analysis for connected VASSs.

The analyzer grows a rooted tree of sub-VASSs.  Each iteration builds a
Farkas-dual pair of rational constraint systems over the transitions still
alive in the deepest layer, a multi-cycle system (non-negative combination
of transitions with balanced flow and non-negative total update) and a
quasi-ranking system (non-negative variable coefficients and state offsets
whose induced affine map never increases along alive transitions), and
solves only the second: its row duals are the multi-cycle side, which
certifies the dichotomy.  The multi-cycle system's joint solve, for the
counts that the witness cycles read, runs at the first read of a record's
`mu`, its count of each alive transition.  Transitions on which the optimal
quasi-ranking strictly decreases get their exponent assigned at the current
layer and are removed; the surviving graph is SCC-decomposed into the
next layer.  A node that
loses no transition is strongly connected still, so it carries its sub-VASS
over whole as its own only child, without a new decomposition.  Variables whose
root copy gets a strictly positive ranking coefficient get their exponent
assigned likewise.  An iteration whose systems have the same numbers as
an earlier one of the same analysis reuses that solve, renamed to its own
variable copies and transitions.  The result is either the exact exponent
of every variable and transition bound, or a certificate point where
growth is at least exponential.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import chain
from typing import Callable, Optional

from . import exactlp
from .exactlp import GE, EQ, LpError, max_strict_set, scale_to_integer  # scale_to_integer: a trace point
from .model import NotConnectedError, Transition, Vass, VassError, scc_decompose, unconnected_pair

POLYNOMIAL = "polynomial"
EXPONENTIAL = "exponential"

#: Exponent value meaning "no polynomial bound assigned" (printed as "inf").
UNBOUNDED = None


def _exp_value(e: Optional[int]):
    """An exponent as both reports print it: "inf" for UNBOUNDED."""
    return "inf" if e is None else e


class InternalInvariantError(VassError):
    """An internal consistency assertion failed; indicates a solver bug."""


@dataclass
class LayerNode:
    """Tree node labelled by a sub-VASS.

    A node occupies the inclusive layer range first_layer..last_layer;
    spans longer than one layer arise from the skip optimization, whose
    skipped layers are node-for-node identical to the layer they extend.
    """

    nid: int
    vass: Vass
    parent: Optional[int]
    first_layer: int
    last_layer: int
    children: list[int] = field(default_factory=list)


@dataclass
class LayerTree:
    nodes: list[LayerNode] = field(default_factory=list)

    @property
    def root(self) -> LayerNode:
        return self.nodes[0]

    def node(self, nid: int) -> LayerNode:
        return self.nodes[nid]

    def nodes_at(self, layer: int) -> list[LayerNode]:
        return [n for n in self.nodes if n.first_layer <= layer <= n.last_layer]

    def max_layer(self) -> int:
        return max(n.last_layer for n in self.nodes)

    def add(self, vass: Vass, parent: Optional[int], layer: int) -> LayerNode:
        node = LayerNode(len(self.nodes), vass, parent, layer, layer)
        self.nodes.append(node)
        if parent is not None:
            self.nodes[parent].children.append(node.nid)
        return node

    def to_dot(self) -> str:
        """Graphviz rendering: one graph node per tree node, parent -> child edges."""
        lines = ["digraph layertree {"]
        for n in self.nodes:
            span = (f"layer {n.first_layer}" if n.first_layer == n.last_layer
                    else f"layers {n.first_layer}-{n.last_layer}")
            states = " ".join(n.vass.states)
            lines.append(f'  n{n.nid} [label="{span}\\n{states}"];')
        for n in self.nodes:
            if n.parent is not None:
                lines.append(f"  n{n.parent} -> n{n.nid};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExtendedSystem:
    """The per-iteration constraint data: alive transitions, variable copies
    (one per node in layer `layer - exponent`, the root copy for variables
    without a bound yet), and one sparse integer column per transition.

    `columns[j]` holds the non-zero `(row, coeff)` entries of
    `transitions[j]`, in row order.  The d_ext rows i < len(var_ext) are the
    copies `var_ext[i] = (x, nid)`: the update of x if node nid holds the
    transition.  The flow rows len(var_ext) + i are the states `states[i]`:
    +1 where it enters the state, -1 where it leaves it, none for a loop."""

    transitions: tuple[Transition, ...]
    var_ext: tuple[tuple[str, int], ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]
    states: tuple[str, ...]


@dataclass(frozen=True)
class RankingSolution:
    """Integer quasi-ranking coefficients with maximal strict set.

    `ranked` holds the transition ids on which the induced affine map
    strictly decreases; `bounded_vars` the variable copies with strictly
    positive coefficient."""

    r: dict[tuple[str, int], int]
    z: dict[str, int]
    ranked: frozenset[int]
    bounded_vars: frozenset[tuple[str, int]]
    __hash__ = None  # compared by value; holds dicts, so never hashed


@dataclass(frozen=True)
class LayerRecord:
    """The analyzer's one record of an iteration, which the report's `layers`
    audit and the witness cycles read: the alive transitions `u`, the copies,
    the optimal quasi-ranking, the new tree nodes and variable bounds.  Phase
    2's duals certify it.  `mu`, the multi-cycle's count of each alive
    transition, runs the joint solve at its system's first read."""

    layer: int
    u: tuple[int, ...]
    var_ext: tuple[tuple[str, int], ...]
    joint: Callable[[], tuple[int, ...]]
    ranking: RankingSolution
    new_nodes: tuple[int, ...]
    new_variable_bounds: tuple[str, ...]
    __hash__ = None  # compared by value, `joint` by identity; holds dicts, so never hashed

    @cached_property
    def mu(self) -> dict[int, int]:
        return dict(zip(self.u, self.joint()))


@dataclass
class BoundsReport:
    """Analysis outcome: status, per-variable and per-transition exponents
    (None meaning no polynomial bound), the overall complexity exponent, and
    an audit entry for every layer at which a bound was assigned."""

    status: str
    variable_exponents: dict[str, Optional[int]]
    transition_exponents: dict[int, Optional[int]]
    complexity_exponent: Optional[int]
    layers: list[dict]
    exponential_layer: Optional[int] = None

    def to_json_dict(self, v: Vass) -> dict:
        return {
            "schema": 1,
            "status": self.status,
            "complexity_exponent": self.complexity_exponent,
            "variables": {x: _exp_value(e) for x, e in self.variable_exponents.items()},
            "transitions": [
                {
                    "id": t.tid,
                    "src": t.src,
                    "dst": t.dst,
                    "update": list(t.update),
                    "exp": _exp_value(self.transition_exponents[t.tid]),
                }
                for t in v.transitions
                if t.tid in self.transition_exponents
            ],
            "layers": self.layers,
        }

    def to_json(self, v: Vass) -> str:
        # Built fresh from ints, strings and lists, so it holds no cycle.
        return json.dumps(self.to_json_dict(v), indent=2, check_circular=False) + "\n"


@dataclass
class AnalysisResult:
    vass: Vass
    report: BoundsReport
    tree: LayerTree
    archive: list[LayerRecord]

    @property
    def iterations(self) -> int:
        return len(self.archive)


def build_extended_system(v: Vass, tree: LayerTree, layer: int,
                          vexp: dict[str, Optional[int]]) -> ExtendedSystem:
    """Assemble the iteration-`layer` constraint data from the tree.

    The copy set pairs every variable with each node in layer
    `layer - vexp[x]`; an unbounded variable keeps its single root copy
    (layer 0)."""
    # Nodes of one layer share no state, so no transition either.
    u = tuple(sorted((t for node in tree.nodes_at(layer - 1) for t in node.vass.transitions),
                     key=lambda t: t.tid))

    targets = {x: 0 if e is None else layer - e for x, e in vexp.items()}
    nodes = {target: tree.nodes_at(target) for target in set(targets.values())}
    copies = tuple((x, node) for x in v.variables for node in nodes[targets[x]])
    row = {(x, t.tid): i for i, (x, node) in enumerate(copies) for t in node.vass.transitions}
    nr, index = len(copies), {s: i for i, s in enumerate(v.states)}
    columns = tuple(tuple([(row[x, t.tid], a) for x, a in zip(v.variables, t.update) if a]
                          + sorted([(nr + index[t.src], -1), (nr + index[t.dst], 1)]
                                   if t.src != t.dst else []))
                    for t in u)
    return ExtendedSystem(u, tuple((x, node.nid) for x, node in copies), columns, v.states)


def _solve_multicycle(columns, nr: int, ns: int, ranked_rows: frozenset[int]) -> tuple[int, ...]:
    """Integer counts, by column, of the multi-cycle system of a layer's
    columns: d_ext @ mu >= 0, mu >= 0, flow @ mu = 0, where d_ext is their
    first nr rows (the copies) and flow the ns after them (the states).
    Column j is mu(transitions[j]); the plain rows of `exactlp._feasible`
    are the d_ext rows, the flow rows, then mu(t) >= 0 per transition.  No
    phase 2 runs: the strict set, rhs 1, is the complement of the ranking's
    strict rows `ranked_rows`, proved maximal by its row duals; this joint
    solve attains it, and runs only when counts are read."""
    m = len(columns)
    rows = [({}, GE, int(m + i not in ranked_rows)) if i < nr else ({}, EQ, 0) for i in range(nr + ns)]
    for j, column in enumerate(columns):
        for i, a in column:
            rows[i][0][j] = a
    rows += [({j: 1}, GE, int(j not in ranked_rows)) for j in range(m)]
    try:
        joint = exactlp._feasible(rows, m)  # by module, so a test's wrapper sees it
    except LpError as err:
        raise InternalInvariantError(f"LP solver failed: {err}") from err
    if joint is None:
        raise InternalInvariantError("dichotomy violated: the complement of the "
                                     "ranking's strict set is not attained")
    return tuple(joint[0])  # rows with right-hand side 0 or 1 hold at the numerators too


def solve_layer(sys: ExtendedSystem, solved: dict[tuple, tuple]
                ) -> tuple[Callable[[], tuple[int, ...]], RankingSolution]:
    """The multi-cycle's deferred joint solve and the optimal integer
    quasi-ranking.  The latter is `max_strict_set` on the quasi-ranking
    system r >= 0, z >= 0, and per alive transition d_ext^T r + flow^T z <= 0,
    every row a candidate: its columns are `sys.columns`, its sign rows those
    of r.  It is read by position: the variables are r in var_ext order, then
    z in state order; the rows are the transition rows in transition order,
    then the r >= 0 rows.  On every layer, reused systems included, phase 2's
    row duals must certify the dichotomy (`_assert_dichotomy`) and the
    quasi-ranking must hold; a violation (a solver bug) or any LP failure
    raises InternalInvariantError.  `solved` maps the numbers of each system
    solved so far, `(len(var_ext), columns)` as each copy has a sign row, to
    `max_strict_set`'s result and the joint solve, cached at its first call;
    a repeated system reuses both, so its records share one joint solve."""
    nr, ns = len(sys.var_ext), len(sys.states)
    key = (nr, sys.columns)
    if key not in solved:
        try:
            solution = max_strict_set(sys.columns, nr + ns, nr)
            solved[key] = solution, cache(partial(_solve_multicycle, sys.columns, nr, ns, solution[2]))
        except LpError as err:
            raise InternalInvariantError(f"LP solver failed: {err}") from err
    (point, _, strict, duals), joint = solved[key]  # the numerators are an integer point
    m = len(sys.transitions)
    ranking = RankingSolution(
        dict(zip(sys.var_ext, point)),
        dict(zip(sys.states, point[nr:])),
        frozenset(t.tid for i, t in enumerate(sys.transitions) if i in strict),
        frozenset(ve for i, ve in enumerate(sys.var_ext, m) if i in strict))
    _assert_dichotomy(sys, ranking, duals[:m])
    if not check_quasi_ranking(sys, ranking):
        raise InternalInvariantError("optimal solution is not a quasi-ranking")
    return joint, ranking


def _assert_dichotomy(sys: ExtendedSystem, ranking: RankingSolution,
                      y: tuple[int, ...]) -> None:
    """The Farkas dichotomy on one layer.  y, one dual per transition row, is
    a balanced multi-cycle with d_ext y >= 0 (by y^T A <= 0), strict on the
    copies whose d_ext row times y is positive and on the transitions whose
    y is positive.  Every copy, then every alive transition, must be strict
    in exactly one of y and the ranking."""
    if len(y) != len(sys.transitions):
        raise InternalInvariantError(
            f"dichotomy violated: {len(y)} duals for {len(sys.transitions)} transition rows")
    gains = [0] * (len(sys.var_ext) + len(sys.states))  # d_ext y, then flow y
    for count, column in zip(y, sys.columns):
        for i, a in column:
            gains[i] += a * count
    copies = (("variable copy", ve, gain > 0, ve in ranking.bounded_vars)
              for ve, gain in zip(sys.var_ext, gains))
    transitions = (("transition", t.tid, count > 0, t.tid in ranking.ranked)
                   for t, count in zip(sys.transitions, y))
    for kind, member, in_mu, in_rz in chain(copies, transitions):
        if in_mu == in_rz:
            raise InternalInvariantError(f"dichotomy violated for {kind} {member}: "
                                         f"multi-cycle strict={in_mu}, ranking strict={in_rz}")


def check_quasi_ranking(sys: ExtendedSystem, ranking: RankingSolution) -> bool:
    """Verify the quasi-ranking conditions symbolically: r >= 0, z >= 0, and
    d_ext^T r + flow^T z <= 0 per alive transition, strictly on exactly the
    ranked set."""
    if any(c < 0 for c in ranking.r.values()) or any(c < 0 for c in ranking.z.values()):
        return False
    coeffs = [ranking.r[ve] for ve in sys.var_ext] + [ranking.z[s] for s in sys.states]
    for t, column in zip(sys.transitions, sys.columns):
        value = sum([coeffs[i] * a for i, a in column])
        if value > 0:
            return False
        if (value < 0) != (t.tid in ranking.ranked):
            return False
    return True


def next_relevant_layer(vexp: dict[str, Optional[int]],
                        texp: dict[int, Optional[int]], layer: int) -> Optional[int]:
    """Smallest finite exponent sum vexp[x] + texp[t] above `layer`, the
    layers in between being provably no-ops whose nodes replicate the
    current layer; None when there is none, i.e. the bound discovery has
    stalled for good."""
    finite_v = {e for e in vexp.values() if e is not None}
    finite_t = {e for e in texp.values() if e is not None}
    return min((ev + et for ev in finite_v for et in finite_t if ev + et > layer), default=None)


def analyze(v: Vass, skip_optimization: bool = True) -> AnalysisResult:
    """Run the full bound analysis on a connected VASS.

    Returns exact exponents for every variable and transition bound when the
    system is polynomial, or the exponential status with the layer at which
    discovery stalled.  Raises NotConnectedError on disconnected input.

    Each distinct layer system is solved once per call: an iteration that
    repeats the numbers `(len(var_ext), columns)` of an earlier one reuses
    its LP solutions (see `solve_layer`), so skipping no-op layers or
    stepping through them makes the same solves.  Nothing is kept between calls."""
    pair = unconnected_pair(v)
    if pair is not None:
        raise NotConnectedError(*pair)

    vexp: dict[str, Optional[int]] = {x: UNBOUNDED for x in v.variables}
    texp: dict[int, Optional[int]] = {t.tid: UNBOUNDED for t in v.transitions}
    tree = LayerTree()
    tree.add(v, None, 0)

    if not v.transitions:
        # Nothing can ever move; empty exponent maps, overall exponent 0.
        report = BoundsReport(POLYNOMIAL, {}, {}, 0, [])
        return AnalysisResult(v, report, tree, [])

    n, m = v.dimension, len(v.transitions)
    archive: list[LayerRecord] = []
    layer = 1
    status = POLYNOMIAL
    exp_layer: Optional[int] = None
    # With layer skipping every executed iteration lands on a relevant
    # exponent sum, of which there are at most n*m; plain stepping also
    # walks the no-op layers in between (bounded by the largest finite sum).
    budget = n * m + 1 if skip_optimization else 2 ** (n + 1) + n * m + 2
    solved: dict = {}  # each distinct system's LP solutions, for this call only
    split = [tree.root]  # the nodes of layer - 1: the last step's children, in id order

    while True:
        if len(archive) >= budget:
            raise InternalInvariantError("iteration budget exceeded")
        sys = build_extended_system(v, tree, layer, vexp)
        joint, ranking = solve_layer(sys, solved)

        for t in sys.transitions:
            if t.tid in ranking.ranked:
                if texp[t.tid] is not None:
                    raise InternalInvariantError(f"transition {t.tid} bounded twice")
                texp[t.tid] = layer

        children: list[LayerNode] = []
        for node in split:
            keep = [t for t in node.vass.transitions if t.tid not in ranking.ranked]
            if len(keep) == len(node.vass.transitions):
                # Every node is strongly connected with a transition, so an
                # untouched one is its own only component: carry it over.
                children.append(tree.add(node.vass, node.nid, layer))
                continue
            children += [tree.add(v.restrict(states, transitions), node.nid, layer)
                         for states, transitions in scc_decompose(node.vass.states, keep)]
        split = children

        survivors = {t.tid for t in sys.transitions} - ranking.ranked
        covered = {t.tid for node in split for t in node.vass.transitions}
        if survivors != covered:
            raise InternalInvariantError("surviving transitions do not match new layer")

        new_bounds: list[str] = []
        for x in v.variables:
            if vexp[x] is None and (x, tree.root.nid) in ranking.bounded_vars:
                vexp[x] = layer
                new_bounds.append(x)

        archive.append(LayerRecord(layer, tuple(t.tid for t in sys.transitions),
                                   sys.var_ext, joint, ranking,
                                   tuple(node.nid for node in split), tuple(new_bounds)))

        if all(e is not None for e in vexp.values()) and \
                all(e is not None for e in texp.values()):
            break
        nxt = next_relevant_layer(vexp, texp, layer)
        if nxt is None:
            status = EXPONENTIAL
            exp_layer = layer
            break
        # Skipping jumps to the next relevant layer, the new nodes spanning
        # the no-op layers below it; stepping walks those layers too.
        if not skip_optimization:
            nxt = layer + 1
        for node in split:
            node.last_layer = nxt - 1
        layer = nxt

    _assert_tree_invariants(tree)
    complexity: Optional[int] = None
    if status == POLYNOMIAL:
        cap = 2 ** n
        for x, e in vexp.items():
            if not (1 <= e <= cap):
                raise InternalInvariantError(f"variable exponent {x}={e} outside [1, 2^n]")
        for tid, e in texp.items():
            if not (1 <= e <= cap):
                raise InternalInvariantError(f"transition exponent {tid}={e} outside [1, 2^n]")
        complexity = max(texp.values(), default=0)

    audits = [{
        "layer": rec.layer,
        "u": list(rec.u),
        "var_ext_size": len(rec.var_ext),
        "removed": sorted(rec.ranking.ranked),
        "bounded_variables": list(rec.new_variable_bounds),
        "positive_counts": sorted(set(rec.u) - rec.ranking.ranked),
        "nodes": [{"states": list(tree.node(nid).vass.states)} for nid in rec.new_nodes],
    } for rec in archive if rec.ranking.ranked or rec.new_variable_bounds]
    report = BoundsReport(status, vexp, texp, complexity, audits, exp_layer)
    return AnalysisResult(v, report, tree, archive)


def _assert_tree_invariants(tree: LayerTree) -> None:
    # No two nodes holding a state may share a layer.  Sorted, a state's spans
    # first overlap between neighbours; the lowest such layer is reported.
    spans: dict[str, list[tuple[int, int]]] = {}
    for node in tree.nodes:
        for s in node.vass.states:
            spans.setdefault(s, []).append((node.first_layer, node.last_layer))
    shared = [b[0] for held in map(sorted, spans.values())
              for a, b in zip(held, held[1:]) if b[0] <= a[1]]
    if shared:
        raise InternalInvariantError(f"layer {min(shared)} nodes share states")
    for node in tree.nodes:
        if node.parent is None:
            continue
        parent = tree.node(node.parent)
        if node.first_layer != parent.last_layer + 1:
            raise InternalInvariantError("child span does not extend parent span")
        if not set(node.vass.states) <= set(parent.vass.states):
            raise InternalInvariantError("child states not within parent")
        if not {t.tid for t in node.vass.transitions} <= \
                {t.tid for t in parent.vass.transitions}:
            raise InternalInvariantError("child transitions not within parent")
