"""Layer-by-layer bound analysis for connected VASSs.

The analyzer grows a rooted tree of sub-VASSs.  Each iteration instantiates
a Farkas-dual pair of rational constraint systems over the transitions
still alive in the deepest layer: a multi-cycle system (non-negative
combination of transitions with balanced flow and non-negative total
update) and a quasi-ranking system (non-negative variable coefficients and
state offsets whose induced affine map never increases along alive
transitions).  Transitions on which the optimal quasi-ranking strictly
decreases get their exponent assigned at the current layer and are removed;
the surviving graph is SCC-decomposed into the next layer.  Variables whose
root copy gets a strictly positive ranking coefficient get their exponent
assigned likewise.  The result is either the exact exponent of every
variable and transition bound, or a certificate point where growth is at
least exponential.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .exactlp import GE, EQ, LpError, LpProblem, LpRow, max_strict_set, scale_to_integer
from .model import NotConnectedError, Transition, Vass, VassError, scc_decompose, unconnected_pair

POLYNOMIAL = "polynomial"
EXPONENTIAL = "exponential"

#: Exponent value meaning "no polynomial bound assigned" (printed as "inf").
UNBOUNDED = None


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
    without a bound yet), and two integer matrices whose column j belongs to
    `transitions[j]`.

    `d_ext` has one row per copy `var_ext[i] = (x, nid)`: the update of x by
    each alive transition of node nid, 0 for the other alive transitions.
    `flow` has one row per state `states[i]`: +1 where a transition enters
    the state, -1 where it leaves it, 0 elsewhere and for self-loops."""

    layer: int
    transitions: tuple[Transition, ...]
    var_ext: tuple[tuple[str, int], ...]
    d_ext: tuple[tuple[int, ...], ...]
    flow: tuple[tuple[int, ...], ...]
    states: tuple[str, ...]


@dataclass(frozen=True)
class MultiCycleSolution:
    """Integer solution of the multi-cycle system with maximal strict set."""

    counts: dict[int, int]
    strict_vars: frozenset[tuple[str, int]]
    strict_transitions: frozenset[int]


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


@dataclass(frozen=True)
class LayerRecord:
    """The analyzer's one record of an iteration: the alive transitions `u`,
    the variable copies, both optimal solutions, the tree nodes the layer
    split into and the variables bounded at it.  The report's `layers`
    audit and the witness cycles read it, and so will any certificate or
    trace of the analysis."""

    layer: int
    u: tuple[int, ...]
    var_ext: tuple[tuple[str, int], ...]
    mu: MultiCycleSolution
    ranking: RankingSolution
    new_nodes: tuple[int, ...]
    new_variable_bounds: tuple[str, ...]


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
        def exp_value(e):
            return "inf" if e is None else e

        return {
            "schema": 1,
            "status": self.status,
            "complexity_exponent": self.complexity_exponent,
            "variables": {x: exp_value(e) for x, e in self.variable_exponents.items()},
            "transitions": [
                {
                    "id": t.tid,
                    "src": t.src,
                    "dst": t.dst,
                    "update": list(t.update),
                    "exp": exp_value(self.transition_exponents[t.tid]),
                }
                for t in v.transitions
                if t.tid in self.transition_exponents
            ],
            "layers": self.layers,
        }

    def to_json(self, v: Vass) -> str:
        return json.dumps(self.to_json_dict(v), indent=2) + "\n"


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
    alive: dict[int, Transition] = {}
    for node in tree.nodes_at(layer - 1):
        for t in node.vass.transitions:
            alive[t.tid] = t
    u = tuple(alive[tid] for tid in sorted(alive))

    var_ext: list[tuple[str, int]] = []
    d_ext: list[tuple[int, ...]] = []
    for i, x in enumerate(v.variables):
        e = vexp[x]
        target = 0 if e is None else layer - e
        for node in tree.nodes_at(target):
            node_tids = {t.tid for t in node.vass.transitions}
            var_ext.append((x, node.nid))
            d_ext.append(tuple(t.update[i] if t.tid in node_tids else 0 for t in u))

    flow = tuple(tuple((t.dst == s) - (t.src == s) for t in u) for s in v.states)
    return ExtendedSystem(layer, u, tuple(var_ext), tuple(d_ext), flow, v.states)


def _solve_multicycle(sys: ExtendedSystem) -> MultiCycleSolution:
    """Multi-cycle system: d_ext @ mu >= 0, mu >= 0, flow @ mu = 0; candidate
    strictness on every d_ext row and every mu(t) >= 0 row.

    Column j is mu(transitions[j]); the rows are the d_ext rows, then the
    flow rows, then the mu(t) >= 0 rows in transition order."""
    names = tuple(f"mu{t.tid}" for t in sys.transitions)
    rows = [LpRow.of(row, GE) for row in sys.d_ext]
    rows.extend(LpRow.of(s_row, EQ) for s_row in sys.flow)
    first_trans = len(rows)
    for j in range(len(names)):
        coeffs = [0] * len(names)
        coeffs[j] = 1
        rows.append(LpRow.of(coeffs, GE))
    candidates = frozenset(range(len(sys.d_ext))) | frozenset(range(first_trans, len(rows)))
    problem = LpProblem(names, tuple(True for _ in names), tuple(rows), candidates)
    sol = scale_to_integer(problem, max_strict_set(problem))
    strict = sol.strict_set
    return MultiCycleSolution(
        dict(zip((t.tid for t in sys.transitions), sol.numerators)),
        frozenset(ve for i, ve in enumerate(sys.var_ext) if i in strict),
        frozenset(t.tid for i, t in enumerate(sys.transitions, first_trans) if i in strict))


def _solve_ranking(sys: ExtendedSystem) -> RankingSolution:
    """Quasi-ranking system: r >= 0, z >= 0, and per alive transition
    d_ext^T r + flow^T z <= 0 (encoded negated as >= 0); candidate strictness
    on every transition row and every r >= 0 row.

    The columns are r in var_ext order, then z in state order; the rows are
    the transition rows in transition order, then the r >= 0 rows."""
    r_names = tuple(f"r[{x},{nid}]" for x, nid in sys.var_ext)
    z_names = tuple(f"z[{s}]" for s in sys.states)
    names = r_names + z_names
    rows: list[LpRow] = []
    for j in range(len(sys.transitions)):
        coeffs = [-row[j] for row in sys.d_ext]
        coeffs.extend(-row[j] for row in sys.flow)
        rows.append(LpRow.of(coeffs, GE))
    first_var = len(rows)
    for i in range(len(r_names)):
        coeffs = [0] * len(names)
        coeffs[i] = 1
        rows.append(LpRow.of(coeffs, GE))
    problem = LpProblem(names, tuple(True for _ in names), tuple(rows),
                        frozenset(range(len(rows))))
    sol = scale_to_integer(problem, max_strict_set(problem))
    strict = sol.strict_set
    return RankingSolution(
        dict(zip(sys.var_ext, sol.numerators)),
        dict(zip(sys.states, sol.numerators[len(r_names):])),
        frozenset(t.tid for j, t in enumerate(sys.transitions) if j in strict),
        frozenset(ve for i, ve in enumerate(sys.var_ext, first_var) if i in strict))


def solve_layer(sys: ExtendedSystem) -> tuple[MultiCycleSolution, RankingSolution]:
    """Optimal integer solutions of both per-layer systems.

    The two maximal strict sets must partition the variable copies and the
    alive transitions (the Farkas dichotomy); a violation means a solver bug
    and raises InternalInvariantError, as does any failure of the LP solver."""
    try:
        mu = _solve_multicycle(sys)
        ranking = _solve_ranking(sys)
    except LpError as err:
        raise InternalInvariantError(f"LP solver failed: {err}") from err
    _assert_dichotomy(sys, mu, ranking)
    if not check_quasi_ranking(sys, ranking):
        raise InternalInvariantError("optimal solution is not a quasi-ranking")
    return mu, ranking


def _assert_dichotomy(sys: ExtendedSystem, mu: MultiCycleSolution,
                      ranking: RankingSolution) -> None:
    """Every variable copy and every alive transition must land in exactly one
    of the two maximal strict sets."""
    for ve in sys.var_ext:
        in_mu = ve in mu.strict_vars
        in_rz = ve in ranking.bounded_vars
        if in_mu == in_rz:
            raise InternalInvariantError(
                f"dichotomy violated for variable copy {ve}: "
                f"multi-cycle strict={in_mu}, ranking strict={in_rz}")
    for t in sys.transitions:
        in_mu = t.tid in mu.strict_transitions
        in_rz = t.tid in ranking.ranked
        if in_mu == in_rz:
            raise InternalInvariantError(
                f"dichotomy violated for transition {t.tid}: "
                f"multi-cycle strict={in_mu}, ranking strict={in_rz}")
        if in_mu and mu.counts[t.tid] < 1:
            raise InternalInvariantError(
                f"transition {t.tid} marked strict with count {mu.counts[t.tid]}")


def check_quasi_ranking(sys: ExtendedSystem, ranking: RankingSolution) -> bool:
    """Verify the quasi-ranking conditions symbolically: r >= 0, z >= 0, and
    d_ext^T r + flow^T z <= 0 per alive transition, strictly on exactly the
    ranked set."""
    if any(c < 0 for c in ranking.r.values()) or any(c < 0 for c in ranking.z.values()):
        return False
    for j, t in enumerate(sys.transitions):
        value = sum(row[j] * ranking.r[ve] for row, ve in zip(sys.d_ext, sys.var_ext))
        value += sum(row[j] * ranking.z[s] for row, s in zip(sys.flow, sys.states))
        if value > 0:
            return False
        if (value < 0) != (t.tid in ranking.ranked):
            return False
    return True


def exponential_check(vexp: dict[str, Optional[int]],
                      texp: dict[int, Optional[int]], layer: int) -> bool:
    """True when no finite exponent sum vexp[x] + texp[t] exceeds the current
    layer, i.e. the bound discovery has stalled for good."""
    for ev in vexp.values():
        if ev is None:
            continue
        for et in texp.values():
            if et is None:
                continue
            if layer < ev + et:
                return False
    return True


def next_relevant_layer(vexp: dict[str, Optional[int]],
                        texp: dict[int, Optional[int]], layer: int) -> int:
    """Smallest finite exponent sum above `layer`; the layers in between are
    provably no-ops and their nodes replicate the current layer."""
    sums = {ev + et
            for ev in vexp.values() if ev is not None
            for et in texp.values() if et is not None}
    candidates = {s for s in sums if s > layer}
    if not candidates:
        raise InternalInvariantError("no relevant layer above current layer")
    return min(candidates)


def analyze(v: Vass, skip_optimization: bool = True) -> AnalysisResult:
    """Run the full bound analysis on a connected VASS.

    Returns exact exponents for every variable and transition bound when the
    system is polynomial, or the exponential status with the layer at which
    discovery stalled.  Raises NotConnectedError on disconnected input."""
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

    while True:
        if len(archive) >= budget:
            raise InternalInvariantError("iteration budget exceeded")
        sys = build_extended_system(v, tree, layer, vexp)
        mu, ranking = solve_layer(sys)

        for t in sys.transitions:
            if t.tid in ranking.ranked:
                if texp[t.tid] is not None:
                    raise InternalInvariantError(f"transition {t.tid} bounded twice")
                texp[t.tid] = layer

        new_nodes: list[int] = []
        for node in tree.nodes_at(layer - 1):
            keep = [t for t in node.vass.transitions if t.tid not in ranking.ranked]
            for states, transitions in scc_decompose(node.vass.states, keep):
                child = tree.add(v.restrict(states, transitions), node.nid, layer)
                new_nodes.append(child.nid)

        survivors = {t.tid for t in sys.transitions} - ranking.ranked
        covered = {t.tid for nid in new_nodes for t in tree.node(nid).vass.transitions}
        if survivors != covered:
            raise InternalInvariantError("surviving transitions do not match new layer")

        new_bounds: list[str] = []
        for x in v.variables:
            if vexp[x] is None and (x, tree.root.nid) in ranking.bounded_vars:
                vexp[x] = layer
                new_bounds.append(x)

        archive.append(LayerRecord(layer, tuple(t.tid for t in sys.transitions),
                                   sys.var_ext, mu, ranking,
                                   tuple(new_nodes), tuple(new_bounds)))

        if all(e is not None for e in vexp.values()) and \
                all(e is not None for e in texp.values()):
            break
        if exponential_check(vexp, texp, layer):
            status = EXPONENTIAL
            exp_layer = layer
            break

        if skip_optimization:
            nxt = next_relevant_layer(vexp, texp, layer)
            for nid in new_nodes:
                tree.node(nid).last_layer = nxt - 1
            layer = nxt
        else:
            layer += 1

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
        "positive_counts": sorted(rec.mu.strict_transitions),
        "nodes": [{"states": list(tree.node(nid).vass.states)} for nid in rec.new_nodes],
    } for rec in archive if rec.ranking.ranked or rec.new_variable_bounds]
    report = BoundsReport(status, vexp, texp, complexity, audits, exp_layer)
    return AnalysisResult(v, report, tree, archive)


def _assert_tree_invariants(tree: LayerTree) -> None:
    for layer in range(tree.max_layer() + 1):
        seen: set[str] = set()
        for node in tree.nodes_at(layer):
            if seen & set(node.vass.states):
                raise InternalInvariantError(f"layer {layer} nodes share states")
            seen.update(node.vass.states)
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
