"""Checkable lower-bound certificates.

For a polynomial analysis outcome this module builds, for any scale
parameter N, one concrete executable path realizing every lower bound at
once: at least N^e instances of each transition with exponent e, and a
final valuation reaching N^e on each variable with exponent e, from an
initial valuation of size O(N).

The construction follows the layer tree.  Every node carries one fixed
cycle (an Eulerian traversal of the per-layer multi-cycle solution; a
covering cycle for the root).  `_Builder.path` nests N-fold repetitions:
for target layer l a node at layer l gives its cycle, and a node above it
gives its cycle cut at the start states of its next-layer parts, each
part's contribution repeated N times in its slot.  Read with the cycle's
segments kept around the slots, this is the proper path, which executes;
read with the slots alone, it is the pre-path, which picks the repetition
constant k so that each layer's phase executes from an O(N) valuation.
The witness is each layer's proper path repeated N * k times.  Paths are
programs, never flat lists: cycles and cut segments are the leaves, and
`Seq(parts)` and `Repeat(count, body)` nest them.  Each node records its
length, instance counts, start, end, net effect e and per-counter minimal
prefix sum m <= 0 when built; Seq gives (e1 + e2, min(m1, e1 + m2)) and
Repeat(r, B) gives (r * e, m + min(0, (r - 1) * e)).  A path runs from v
exactly when v + m >= 0, ending at v + e, so building and verifying cost
O(program size); only the dump expands the program.

For an exponential outcome the module extracts the per-node cycles of the
final layer together with the variable partition (bounded / still growing)
and checks the two growth conditions that force 2^Omega(N) complexity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add
from typing import Iterator, Mapping, Optional, Sequence

from .analyzer import AnalysisResult, EXPONENTIAL, LayerRecord, LayerTree, POLYNOMIAL
from .model import (
    Path,
    PrePath,
    Transition,
    Valuation,
    Vass,
    VassError,
    execute_path,
    min_initial_valuation,
    scc_decompose,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class WitnessError(VassError):
    """Witness or certificate construction failed an internal self-check."""


class CertificateError(VassError):
    """The extracted cycles violate the exponential-growth conditions."""


class _Program:
    """A program node.  It reads like a PrePath (`len`, `start`, `end`,
    `anchor`, `instances`, `summary`); `steps` is the node itself, a lazy
    sequence of transitions that expands only what is read."""

    __slots__ = ("length", "counts", "effect", "low", "start", "end")
    steps = property(lambda self: self)
    anchor = property(lambda self: self.start)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Transition]:
        return (t for leaf in _leaves(self) for t in leaf.path.steps)

    def __getitem__(self, index: slice) -> tuple[Transition, ...]:
        return tuple(islice(self, *index.indices(self.length)))

    def instances(self) -> Counter:
        return Counter(self.counts)

    def summary(self, dimension: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.effect, self.low


class Leaf(_Program):
    """A node's cycle or a cut segment; `text` is its part of the dump."""

    __slots__ = ("path", "text")

    def __init__(self, path: PrePath, dimension: int):
        self.path, self.length, self.start, self.end = path, len(path), path.start, path.end
        self.counts, (self.effect, self.low) = dict(path.instances()), path.summary(dimension)
        self.text = "".join(f"{t.tid}\n" for t in path.steps)


class Seq(_Program):
    """The non-empty parts in order; in a proper path they must be adjacent."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[_Program], dimension: int, proper: bool):
        self.parts = tuple(p for p in parts if p.length)
        if proper and any(a.end != b.start for a, b in zip(self.parts, self.parts[1:])):
            raise WitnessError("non-adjacent parts in a proper path")
        self.effect, self.low, counts = (0,) * dimension, (0,) * dimension, Counter()
        for p in self.parts:  # (e1 + e2, min(m1, e1 + m2)), counter by counter
            reach = map(add, self.effect, p.low)
            self.low = tuple([m if m < r else r for m, r in zip(self.low, reach)])
            self.effect = tuple(map(add, self.effect, p.effect))
            counts.update(p.counts)
        self.counts, self.length = dict(counts), sum(p.length for p in self.parts)
        self.start = self.parts[0].start if self.parts else None
        self.end = self.parts[-1].end if self.parts else None


class Repeat(_Program):
    """The body `count` >= 1 times; in a proper path a repeated body must be a cycle."""

    __slots__ = ("count", "body")

    def __init__(self, count: int, body: _Program, proper: bool):
        if proper and count > 1 and body.start != body.end:
            raise WitnessError("repeated part of a proper path is not a cycle")
        self.count, self.body, self.length = count, body, count * body.length
        self.counts = {tid: count * c for tid, c in body.counts.items()}
        self.effect = tuple(count * e for e in body.effect)
        self.low = tuple([m + (count - 1) * e if e < 0 else m  # m + min(0, (count - 1) * e)
                          for m, e in zip(body.low, body.effect)])
        self.start, self.end = body.start, body.end


def _leaves(program: _Program, short: int = 0) -> Iterator[_Program]:
    """The leaves in path order, by an explicit stack; a repeat whose body
    has fewer than `short` steps is yielded whole."""
    stack = [iter((program,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif isinstance(node, Seq):
            stack.append(iter(node.parts))
        elif isinstance(node, Repeat) and node.body.length >= short:
            stack.append(repeat(node.body, node.count))
        else:
            yield node


@dataclass(frozen=True)
class WitnessPath:
    """A concrete executable path realizing the polynomial lower bounds."""

    n: int
    k: int
    path: _Program
    initial: Valuation
    final: Valuation
    instance_counts: dict[int, int]
    envelope: int  # ceil(norm(initial) / n), the measured O(N) constant

    def chunks(self, v: Vass) -> Iterator[str]:
        """The dump in pieces of at most about `piece` steps; a repeated body
        shorter than a piece is rendered once and multiplied as a string."""
        piece = 8192
        yield (f"witness N={self.n} k={self.k}\ninit "
               + " ".join(str(self.initial[x]) for x in v.variables) + "\n")
        for node in _leaves(self.path, piece):
            if isinstance(node, Repeat):
                text = "".join(leaf.text for leaf in _leaves(node.body))
                per_piece = piece // max(node.body.length, 1)
                yield from repeat(text * per_piece, node.count // per_piece)
                yield text * (node.count % per_piece)
            else:
                yield node.text
        yield ("instances " + " ".join(
            f"{t.tid}={self.instance_counts.get(t.tid, 0)}" for t in v.transitions)
            + "\nfinal " + " ".join(str(self.final[x]) for x in v.variables) + "\n")

    def dump(self, v: Vass) -> str:
        return "".join(self.chunks(v))


@dataclass(frozen=True)
class ExponentialCertificate:
    """Cycles plus a variable partition witnessing at-least-exponential growth.

    Every cycle must be non-decreasing on the bounded variables, and the
    summed cycle values must gain at least 1 on every growing variable.
    `growing` is empty exactly when analysis stalled with all variables
    bounded (only transitions keep repeating, e.g. on zero-effect cycles);
    the gain condition is then vacuous.
    """

    cycles: tuple[Path, ...]
    bounded: tuple[str, ...]
    growing: tuple[str, ...]

    def dump(self) -> str:
        lines = ["exponential-certificate"]
        lines.append("U: " + " ".join(self.bounded))
        lines.append("W: " + " ".join(self.growing))
        for c in self.cycles:
            parts = [c.start or ""]
            for t in c.steps:
                parts.append(f"-[{t.tid}]->")
                parts.append(t.dst)
            lines.append("cycle: " + " ".join(parts))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WitnessCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class WitnessVerification:
    checks: tuple[WitnessCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def dump(self) -> str:
        return "\n".join(
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
            for c in self.checks) + "\n"


def _euler_cycle(start: str, edges: Sequence[Transition],
                 counts: Mapping[int, int]) -> list[Transition]:
    """Eulerian circuit over a balanced multigraph, one edge copy per count.

    Edges at each state are consumed in transition-id order, so the circuit
    is deterministic."""
    remaining: dict[str, list[list]] = {}
    total = 0
    for t in sorted(edges, key=lambda t: t.tid):
        c = counts.get(t.tid, 0)
        if c > 0:
            remaining.setdefault(t.src, []).append([t, c])
            total += c
    stack: list[tuple[str, Optional[Transition]]] = [(start, None)]
    reversed_circuit: list[Transition] = []
    while stack:
        state, via = stack[-1]
        chosen = None
        for slot in remaining.get(state, ()):
            if slot[1] > 0:
                chosen = slot[0]
                slot[1] -= 1
                break
        if chosen is None:
            stack.pop()
            if via is not None:
                reversed_circuit.append(via)
        else:
            stack.append((chosen.dst, chosen))
    circuit = list(reversed(reversed_circuit))
    if len(circuit) != total:
        raise WitnessError("multigraph is not connected on its support")
    return circuit


def multicycle_from_solution(v: Vass, transitions: Sequence[Transition],
                             mu: Mapping[int, int]) -> tuple[Path, ...]:
    """Cycles containing exactly mu(t) instances of each transition.

    Requires mu >= 0 with balanced flow at every state; each returned cycle
    stays within one strongly connected component of the support graph and
    starts at its lexicographically least state."""
    for tid, count in mu.items():
        if count < 0:
            raise VassError(f"negative count for transition {tid}")
    balance: dict[str, int] = {}
    support = [t for t in transitions if mu.get(t.tid, 0) > 0]
    for t in support:
        c = mu[t.tid]
        if t.src != t.dst:
            balance[t.src] = balance.get(t.src, 0) - c
            balance[t.dst] = balance.get(t.dst, 0) + c
    if any(b != 0 for b in balance.values()):
        raise VassError("flow constraint violated: unbalanced support")

    states = {t.src for t in support} | {t.dst for t in support}
    cycles = []
    for comp_states, comp_transitions in scc_decompose(states, support):
        cycle = Path(tuple(_euler_cycle(comp_states[0], comp_transitions, mu)))
        if not cycle.is_cycle:
            raise VassError(f"multi-cycle member is not a cycle: {cycle.steps}")
        cycles.append(cycle)
    expected = {t.tid: mu[t.tid] for t in support}
    if dict(Counter(t.tid for c in cycles for t in c.steps)) != expected:
        raise WitnessError("cycle extraction lost transition instances")
    return tuple(cycles)


def _bfs_tree(out_edges: Mapping[str, list[Transition]],
              src: str) -> tuple[dict[str, int], dict[str, Transition]]:
    """BFS distances from src, and the transition that first reached each
    other state; each state's out-edges are explored in list order."""
    dist = {src: 0}
    parent: dict[str, Transition] = {}
    frontier = [src]
    while frontier:
        nxt = []
        for s in frontier:
            for t in out_edges[s]:
                if t.dst not in dist:
                    dist[t.dst] = dist[s] + 1
                    parent[t.dst] = t
                    nxt.append(t.dst)
        frontier = nxt
    return dist, parent


def _tree_path(parent: Mapping[str, Transition], src: str, dst: str) -> list[Transition]:
    """The path from src to dst in the BFS tree `parent` rooted at src."""
    steps = []
    while dst != src:
        steps.append(parent[dst])
        dst = parent[dst].src
    return steps[::-1]


def covering_cycle(v: Vass) -> Path:
    """A cycle through every transition of a connected VASS at least once.

    Greedy: from the lexicographically least state, repeatedly walk a
    shortest connecting path to the source of the not-yet-used transition
    nearest by BFS distance (ties by id), take it, and finally close back
    to the start.  One BFS from the current state serves each step."""
    if not v.transitions:
        anchor = v.states[0] if v.states else None
        return Path((), anchor)
    start = v.states[0]
    out_edges: dict[str, list[Transition]] = {s: [] for s in v.states}
    for t in v.transitions:  # transition-id order
        out_edges[t.src].append(t)
    unused = {t.tid: t for t in v.transitions}
    steps: list[Transition] = []
    current = start
    while True:
        dist, parent = _bfs_tree(out_edges, current)
        if not unused:
            break
        reachable = [t for t in unused.values() if t.src in dist]
        if not reachable:
            raise VassError("VASS is not connected; no covering cycle exists")
        t = min(reachable, key=lambda t: (dist[t.src], t.tid))
        hop = _tree_path(parent, current, t.src)
        steps.extend(hop)
        steps.append(t)
        for h in hop:
            unused.pop(h.tid, None)
        unused.pop(t.tid, None)
        current = t.dst
    if start not in dist:
        raise VassError("VASS is not connected; no covering cycle exists")
    steps.extend(_tree_path(parent, current, start))
    return Path(tuple(steps), anchor=start)


def node_cycles(tree: LayerTree, layer: int,
                archive: Sequence[LayerRecord], v: Vass) -> dict[int, Path]:
    """The fixed cycle of every node occupying the given layer.

    Layer 0 is the root and gets a covering cycle.  Deeper nodes get the
    Eulerian cycle of the archived multi-cycle solution of the iteration
    that materialized them, restricted to the node's transitions; nodes
    spanning several layers (skipped layers) reuse the same cycle."""
    if layer == 0:
        return {tree.root.nid: covering_cycle(v)}
    records = {rec.layer: rec for rec in archive}
    result: dict[int, Path] = {}
    for node in tree.nodes_at(layer):
        rec = records[node.first_layer]
        counts = {t.tid: rec.mu.counts.get(t.tid, 0) for t in node.vass.transitions}
        if all(c == 0 for c in counts.values()):
            result[node.nid] = Path((), anchor=node.vass.states[0])
            continue
        cycles = multicycle_from_solution(v, node.vass.transitions, counts)
        if len(cycles) != 1:
            raise WitnessError(f"node {node.nid} support is not a single component")
        result[node.nid] = cycles[0]
    return result


class _Builder:
    """The fixed node cycles of one analysis result at scale parameter N,
    as leaves, and each node's cycle cut at its next-layer parts."""

    def __init__(self, result: AnalysisResult, n: int):
        self.tree, self.n, self.dimension = result.tree, n, result.vass.dimension
        self.max_layer = result.tree.max_layer()
        self.layers = [self.tree.nodes_at(layer) for layer in range(self.max_layer + 1)]
        self.leaves: dict[int, Leaf] = {}
        for layer in range(self.max_layer + 1):
            cycles = node_cycles(self.tree, layer, result.archive, result.vass)
            self.leaves.update((nid, Leaf(c, self.dimension)) for nid, c in cycles.items())
        self.cuts: dict[tuple[int, int], tuple[list[Leaf], list[int]]] = {}

    def cut(self, nid: int, layer: int) -> tuple[list[Leaf], list[int]]:
        """The node's cycle split at the first occurrence of the start state
        of each next-layer part (itself while `layer < last_layer`, else its
        children): the segments, and the parts in that order.  Cached, as it
        does not depend on the target layer."""
        if (nid, layer) not in self.cuts:
            node, cycle = self.tree.node(nid), self.leaves[nid].path
            states, positioned = [cycle.start] + [t.dst for t in cycle.steps], []
            for part in [nid] if layer < node.last_layer else node.children:
                start = self.leaves[part].start
                if start not in states:
                    raise WitnessError(f"child start state {start} not on parent cycle")
                positioned.append((states.index(start), part))
            positioned.sort()
            bounds = [0] + [pos for pos, _ in positioned] + [len(cycle)]
            self.cuts[nid, layer] = ([Leaf(Path(cycle.steps[a:b]), self.dimension)
                                      for a, b in zip(bounds, bounds[1:])],
                                     [part for _, part in positioned])
        return self.cuts[nid, layer]

    def path(self, target: int, proper: bool) -> _Program:
        """The root's program for the target layer, built bottom-up.  At the
        target a node gives its cycle; above it each next-layer part's
        program, repeated N times, fills its slot in the node's cut cycle.
        The proper path keeps the cycle's segments around the slots; the
        pre-path is the slots alone."""
        programs = {node.nid: self.leaves[node.nid] for node in self.layers[target]}
        for layer in range(target - 1, -1, -1):
            above = {}
            for node in self.layers[layer]:
                segments, order = self.cut(node.nid, layer)
                parts = [segments[0]]
                for part, segment in zip(order, segments[1:]):
                    parts += [Repeat(self.n, programs[part], proper), segment]
                parts = parts if proper else parts[1::2]
                above[node.nid] = (parts[0] if len(parts) == 1
                                   else Seq(parts, self.dimension, proper))
            programs = above
        return programs[self.tree.root.nid]


def choose_k(taus: Mapping[int, PrePath | _Program], vexp: Mapping[str, Optional[int]],
             v: Vass, n: int) -> int:
    """Smallest k such that each layer pre-path (layers >= 1) executes from
    the valuation with entries k * N^min(vexp(x), layer); at least 1."""
    k = 1
    for layer, tau in taus.items():
        if layer < 1:
            continue
        needed = min_initial_valuation(v, tau)
        for x in v.variables:
            e = vexp[x]
            power = n ** min(e, layer)
            k = max(k, _ceil_div(needed[x], power))
    return k


def build_witness(result: AnalysisResult, n: int) -> WitnessPath:
    """Construct the lower-bound path for scale parameter n.

    The recorded initial valuation is the pointwise-minimal valuation from
    which the path executes, raised where necessary so the final valuation
    meets every N^vexp threshold (the raise never exceeds the O(N) initial
    envelope the construction guarantees)."""
    if result.report.status != POLYNOMIAL:
        raise WitnessError("witness paths exist only for polynomial status")
    if n < 1:
        raise WitnessError("scale parameter must be >= 1")
    v = result.vass
    if not v.transitions:
        empty = Leaf(Path((), anchor=v.states[0] if v.states else None), v.dimension)
        zero = Valuation.zero(v.variables)
        return WitnessPath(n, 1, empty, zero, zero, {}, 0)

    builder = _Builder(result, n)
    k = choose_k({layer: Repeat(n, builder.path(layer, proper=False), proper=False)
                  for layer in range(1, builder.max_layer + 1)},
                 result.report.variable_exponents, v, n)
    path = Seq([Repeat(n * k, builder.path(layer, proper=True), proper=True)
                for layer in range(builder.max_layer + 1)], v.dimension, proper=True)

    base = min_initial_valuation(v, path)
    initial_val = Valuation({x: max(base[x], n ** result.report.variable_exponents[x] - e)
                             for x, e in zip(v.variables, path.effect)})
    final = execute_path(v, initial_val, path)
    if final is None:
        raise WitnessError("constructed path does not execute from its initial valuation")
    envelope = _ceil_div(initial_val.norm(), n)
    return WitnessPath(n, k, path, initial_val, final,
                       dict(path.instances()), envelope)


def verify_witness(v: Vass, witness: WitnessPath,
                   report) -> WitnessVerification:
    """Independent checks of a witness path against the claimed bounds."""
    checks = []
    n = witness.n
    norm = witness.initial.norm()
    checks.append(WitnessCheck(
        "initial-envelope", norm <= witness.envelope * n,
        f"|initial| = {norm}, envelope {witness.envelope} * N = {witness.envelope * n}"))

    final = execute_path(v, witness.initial, witness.path)
    checks.append(WitnessCheck(
        "executes", final is not None and final == witness.final,
        "path executes and reaches the recorded final valuation" if final is not None
        else "path is not executable from the recorded initial valuation"))

    counts = witness.path.instances()
    for tid, e in report.transition_exponents.items():
        required = n ** e
        have = counts.get(tid, 0)
        checks.append(WitnessCheck(
            f"instances[{tid}]", have >= required,
            f"{have} >= N^{e} = {required}"))

    if final is not None:
        for x, e in report.variable_exponents.items():
            required = n ** e
            checks.append(WitnessCheck(
                f"final[{x}]", final[x] >= required,
                f"{final[x]} >= N^{e} = {required}"))
    return WitnessVerification(tuple(checks))


def exponential_certificate(result: AnalysisResult) -> ExponentialCertificate:
    """Extract and check the cycle certificate after an exponential verdict."""
    if result.report.status != EXPONENTIAL:
        raise CertificateError("certificate exists only for exponential status")
    layer = result.report.exponential_layer
    cycles = tuple(cycle for _, cycle in sorted(
        node_cycles(result.tree, layer, result.archive, result.vass).items()))
    vexp = result.report.variable_exponents
    bounded = tuple(x for x in result.vass.variables if vexp[x] is not None)
    growing = tuple(x for x in result.vass.variables if vexp[x] is None)
    cert = ExponentialCertificate(cycles, bounded, growing)
    problem = check_certificate(result.vass, cert)
    if problem is not None:
        raise CertificateError(problem)
    return cert


def check_certificate(v: Vass, cert: ExponentialCertificate) -> Optional[str]:
    """None if the certificate is valid, else a description of the violation."""
    if sorted(cert.bounded + cert.growing) != sorted(v.variables):
        return "bounded/growing sets do not partition the variables"
    if set(cert.bounded) & set(cert.growing):
        return "bounded and growing sets overlap"
    dim = v.dimension
    index = {x: i for i, x in enumerate(v.variables)}
    totals = [0] * dim
    for c in cert.cycles:
        if not c.is_cycle:
            return "certificate member is not a cycle"
        value = c.value(dim)
        for x in cert.bounded:
            if value[index[x]] < 0:
                return f"cycle decreases bounded variable {x}"
        for i in range(dim):
            totals[i] += value[i]
    for x in cert.growing:
        if totals[index[x]] < 1:
            return f"summed cycle values do not grow variable {x}"
    return None
