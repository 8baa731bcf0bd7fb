"""Checkable lower-bound certificates.

For a polynomial analysis outcome this module builds, for any scale
parameter N, one concrete executable path realizing every lower bound at
once: at least N^e instances of each transition with exponent e, and a
final valuation reaching N^e on each variable with exponent e, from an
initial valuation of size O(N).

The construction follows the layer tree.  Every node carries one fixed
cycle: the Eulerian circuit of the multi-cycle counts of the layer where it
first appears, checked once to be positive and balanced on the node; a
covering cycle for the root.  `_Builder.path` nests N-fold repetitions:
for target layer l a node at layer l gives its cycle.  Above l, inside its
span a node's path is its next layer's path N times, then its cycle; only
at its last layer is its cycle cut at its children, each child's path
repeated N times in its slot.  The root's path is the layer's path, which
executes.  The slots alone form the pre-path; it only picks the repetition
constant k so that each layer's phase executes from an O(N) valuation, so
it is kept as a summary, never built.  The witness is each layer's path
repeated N * k times.  Paths are programs, never flat lists: cycles and cut
segments are the leaves, and `Repeat(count, parts)`, its parts `count`
times, nests them.  Each node records its length, instance counts, start,
end, net effect e and per-counter minimal prefix sum m <= 0 when built, by
`_then` and `_times`.  A path runs from v exactly when v + m >= 0, ending at
v + e, so building and verifying cost O(program size); the dump renders one
pass of each repeat and multiplies its text, so it costs about the bytes it writes.

For an exponential outcome the module extracts the per-node cycles of the
final layer together with the variable partition (bounded / still growing)
and checks the two growth conditions that force 2^Omega(N) complexity.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .analyzer import AnalysisResult, EXPONENTIAL, InternalInvariantError, LayerRecord, LayerTree, POLYNOMIAL
from .model import (
    Path,
    PrePath,
    Transition,
    Valuation,
    Vass,
    VassError,
    _out_edges,
    execute_path,
    min_initial_valuation,
    scc_decompose,  # unused here; the benchmark's tracer rebinds witness.scc_decompose
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _then(a, b):
    """The summary of path a, then path b: (e1 + e2, min(m1, e1 + m2))."""
    (e, m), (f, n) = a, b
    return tuple(map(add, e, f)), tuple([x if x < y else y for x, y in zip(m, map(add, e, n))])


def _times(r, a):
    """The summary of path a repeated r >= 1 times: (r * e, m + min(0, (r - 1) * e))."""
    e, m = a
    return tuple(r * x for x in e), tuple([y + (r - 1) * x if x < 0 else y for y, x in zip(m, e)])


class _Program:
    """A program node.  It reads like a PrePath (`len`, `start`, `end`,
    `anchor`, `instances`, `summary`); `steps` is the node itself, a lazy
    sequence of transitions that expands only what is read."""

    __slots__ = ("length", "counts", "effect", "low", "start", "end")
    steps = property(lambda self: self)
    anchor = property(lambda self: self.start)

    def __len__(self) -> int:
        if self.length > sys.maxsize:
            raise VassError(f"path of {self.length} steps is too long for len(); read .length")
        return self.length

    def __iter__(self) -> Iterator[Transition]:
        return (t for leaf in _leaves((self,)) for t in leaf.path.steps)

    def __getitem__(self, index: int | slice) -> Transition | tuple[Transition, ...]:
        if isinstance(index, slice):
            return tuple(islice(self, *index.indices(self.length)))
        if not -self.length <= index < self.length:
            raise IndexError("path index out of range")
        return next(islice(self, index % self.length, None))

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


class Repeat(_Program):
    """The non-empty parts in order, `count` >= 1 times.  The parts must be
    adjacent, and with `count` >= 2 they must form a cycle."""

    __slots__ = ("count", "parts")

    def __init__(self, count: int, parts: Sequence[_Program], dimension: int):
        self.count, self.parts = count, tuple(p for p in parts if p.length)
        if any(a.end != b.start for a, b in zip(self.parts, self.parts[1:])):
            raise InternalInvariantError("non-adjacent parts in a path")
        self.start, self.end = (self.parts[0].start, self.parts[-1].end) if self.parts else (None, None)
        if count > 1 and self.start != self.end:
            raise InternalInvariantError("repeated part of a path is not a cycle")
        summary, counts = ((0,) * dimension,) * 2, {}
        for p in self.parts:
            summary = _then(summary, (p.effect, p.low))
            for tid, c in p.counts.items():
                counts[tid] = counts.get(tid, 0) + count * c
        self.effect, self.low = _times(count, summary)
        self.counts, self.length = counts, count * sum(p.length for p in self.parts)


def _leaves(parts: Iterable[_Program], short: int = 0) -> Iterator[_Program]:
    """The leaves of `parts` in path order, by an explicit stack of iterators.
    A repeat's parts are walked in place, `count` times, unless `count` >= 2
    and one pass has fewer than `short` steps: then it is yielded whole."""
    stack = [iter(parts)]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif isinstance(node, Repeat) and (node.count == 1 or node.length >= short * node.count):
            stack.append(chain.from_iterable(repeat(node.parts, node.count)))
        else:
            yield node


def _text(node: Repeat) -> str:
    """The dump lines of one pass over the node's parts: each leaf's text, and
    each repeat of count >= 2 rendered as one pass, multiplied.  Only those
    recurse, each halving the length, so the depth is at most log2 of it."""
    pieces = []
    for part in _leaves(node.parts, node.length // node.count + 1):
        pieces.append(part.text if isinstance(part, Leaf) else _text(part) * part.count)
    return "".join(pieces)


@dataclass(frozen=True)
class WitnessPath:
    """A concrete executable path realizing the polynomial lower bounds."""

    n: int
    k: int
    path: _Program
    initial: Valuation
    final: Valuation
    envelope: int  # ceil(norm(initial) / n), the measured O(N) constant
    __hash__ = None  # compared by value; holds dicts, so never hashed

    def chunks(self, v: Vass) -> Iterator[str]:
        """The dump in pieces of at most about `piece` steps; a repeat with a
        pass shorter than a piece renders it once by `_text` and multiplies it."""
        piece = 8192
        yield (f"witness N={self.n} k={self.k}\ninit "
               + " ".join(str(self.initial[x]) for x in v.variables) + "\n")
        for node in _leaves((self.path,), piece):
            if isinstance(node, Repeat):
                text = _text(node)
                per_piece = piece // max(node.length // node.count, 1)
                yield from repeat(text * per_piece, node.count // per_piece)
                yield text * (node.count % per_piece)
            else:
                yield node.text
        yield ("instances " + " ".join(
            f"{t.tid}={self.path.counts.get(t.tid, 0)}" for t in v.transitions)
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
    """Eulerian circuit over a balanced multigraph, one edge copy per count
    (Hierholzer's algorithm on an explicit stack).

    Each state keeps one iterator over its edge copies in transition-id
    order, each edge repeated `count` times, so at every state the copies
    of lower-id edges are taken first and the circuit is deterministic."""
    copies: dict[str, list[Iterator[Transition]]] = {}
    for t in sorted(edges, key=lambda t: t.tid):
        copies.setdefault(t.src, []).append(repeat(t, counts.get(t.tid, 0)))
    out = {s: chain.from_iterable(its) for s, its in copies.items()}
    stack: list[tuple[str, Optional[Transition]]] = [(start, None)]
    reversed_circuit: list[Transition] = []
    while stack:
        state, via = stack[-1]
        chosen = next(out.get(state, iter(())), None)
        if chosen is None:
            stack.pop()
            if via is not None:
                reversed_circuit.append(via)
        else:
            stack.append((chosen.dst, chosen))
    if len(reversed_circuit) != sum(max(counts.get(t.tid, 0), 0) for t in edges):
        raise InternalInvariantError("multigraph is not connected on its support")
    return reversed_circuit[::-1]


def _tree_path(parent: Mapping[str, Transition], src: str, dst: str) -> list[Transition]:
    """The path from src to dst in the BFS tree `parent` rooted at src."""
    steps = []
    while dst != src:
        steps.append(parent[dst])
        dst = parent[dst].src
    return steps[::-1]


def _levels(out_edges: Mapping[str, list[Transition]], src: str,
            parent: dict[str, Transition]) -> Iterator[list[str]]:
    """BFS levels from src, nearest first, out-edges in list order; each
    state's first-reaching transition goes into `parent`, empty at the call,
    before its level is yielded, and each level is expanded lazily."""
    level = [src]
    while level:
        yield level
        nxt = []
        for s in level:
            for t in out_edges[s]:
                if t.dst != src and t.dst not in parent:
                    parent[t.dst] = t
                    nxt.append(t.dst)
        level = nxt


def covering_cycle(v: Vass) -> Path:
    """A cycle through every transition of a connected VASS at least once.

    Greedy: from the lexicographically least state, repeatedly walk a
    shortest connecting path to the source of the not-yet-used transition
    nearest by BFS distance (ties by id), take it, and finally close back
    to the start.  Each step's BFS stops at the first level with an unused
    out-edge, the closing one at the level holding the start."""
    if not v.transitions:
        anchor = v.states[0] if v.states else None
        return Path((), anchor)
    start = v.states[0]
    out_edges = _out_edges(v)
    unused = {t.tid for t in v.transitions}
    steps: list[Transition] = []
    current = start
    while unused:
        parent: dict[str, Transition] = {}
        for level in _levels(out_edges, current, parent):
            t = min((t for s in level for t in out_edges[s] if t.tid in unused),
                    key=lambda t: t.tid, default=None)
            if t is not None:
                break
        else:
            raise VassError("VASS is not connected; no covering cycle exists")
        hop = _tree_path(parent, current, t.src) + [t]
        steps.extend(hop)
        unused.difference_update(h.tid for h in hop)
        current = t.dst
    parent = {}
    if not any(start in level for level in _levels(out_edges, current, parent)):
        raise VassError("VASS is not connected; no covering cycle exists")
    steps.extend(_tree_path(parent, current, start))
    return Path(tuple(steps), anchor=start)


def node_cycles(tree: LayerTree, layer: int,
                archive: Sequence[LayerRecord], v: Vass) -> dict[int, Path]:
    """The fixed cycle of every node occupying the given layer.

    Layer 0 is the root and gets a covering cycle.  A deeper node is one
    strongly connected component, and its cycle is the Eulerian circuit, from
    its least state, of the counts of the iteration that materialized it,
    restricted to its transitions; nodes spanning several layers (skipped
    layers) reuse the same cycle.  The counts are checked once to be >= 1 on
    every transition of the node and balanced at every state of it."""
    if layer == 0:
        return {tree.root.nid: covering_cycle(v)}
    records = {rec.layer: rec for rec in archive}
    result: dict[int, Path] = {}
    for node in tree.nodes_at(layer):
        mu = records[node.first_layer].mu
        counts = {t.tid: mu.get(t.tid, 0) for t in node.vass.transitions}
        flow = dict.fromkeys(node.vass.states, 0)
        for t in node.vass.transitions:
            flow[t.src] -= counts[t.tid]
            flow[t.dst] += counts[t.tid]
        if any(c < 1 for c in counts.values()) or any(flow.values()):
            raise InternalInvariantError(f"node {node.nid} counts are not positive and balanced")
        result[node.nid] = Path(tuple(_euler_cycle(node.vass.states[0], node.vass.transitions, counts)))
    return result


class _Builder:
    """The fixed node cycles of one analysis result at scale parameter N, as
    leaves, each built once, and the layers' paths made of them.  Above the
    target, inside its span a node's path is its next layer's path N times,
    then its cycle; only at its last layer is the cycle cut at its children,
    each child's path N times in its slot."""

    def __init__(self, result: AnalysisResult, n: int):
        self.tree, self.n, self.dimension = result.tree, n, result.vass.dimension
        self.max_layer = result.tree.max_layer()
        self.leaves: dict[int, Leaf] = {}
        for layer in sorted({node.first_layer for node in self.tree.nodes}):
            cycles = node_cycles(self.tree, layer, result.archive, result.vass)
            self.leaves.update((nid, Leaf(c, self.dimension)) for nid, c in cycles.items())
        self.cuts: dict[int, tuple[list[Leaf], list[int]]] = {}

    def cut(self, nid: int) -> tuple[list[Leaf], list[int]]:
        """The node's cycle split at the first occurrence of each child's
        start state: the segments, and the children in that order.  Cached."""
        if nid not in self.cuts:
            cycle = self.leaves[nid].path
            states, positioned = [cycle.start] + [t.dst for t in cycle.steps], []
            for child in self.tree.node(nid).children:
                start = self.leaves[child].start
                if start not in states:
                    raise InternalInvariantError(f"child start state {start} not on parent cycle")
                positioned.append((states.index(start), child))
            positioned.sort()
            bounds = [0] + [pos for pos, _ in positioned] + [len(cycle)]
            self.cuts[nid] = ([Leaf(Path(cycle.steps[a:b]), self.dimension)
                               for a, b in zip(bounds, bounds[1:])],
                              [child for _, child in positioned])
        return self.cuts[nid]

    def path(self, target: int) -> tuple[list[_Program], tuple[tuple[int, ...], tuple[int, ...]]]:
        """The parts of the root's path for the target layer, in order, and
        the summary of its pre-path, the slots alone, from one children-first
        pass over the nodes (a child's nid exceeds its parent's).  At the
        target a node's path is its cycle; each path is a list of parts."""
        paths = {}
        for node in reversed(self.tree.nodes):
            if node.first_layer > target:
                continue
            leaf = self.leaves[node.nid]
            if node.last_layer >= target:
                parts, pre = [leaf], (leaf.effect, leaf.low)
            else:
                segments, order = self.cut(node.nid)
                parts, pre = [segments[0]], ((0,) * self.dimension,) * 2
                for child, segment in zip(order, segments[1:]):
                    inner, inner_pre = paths.pop(child)
                    parts += [Repeat(self.n, inner, self.dimension), segment]
                    pre = _then(pre, _times(self.n, inner_pre))
            for _ in range(node.first_layer, min(target, node.last_layer)):
                parts, pre = [Repeat(self.n, parts, self.dimension), leaf], _times(self.n, pre)
            paths[node.nid] = (parts, pre)
        return paths[self.tree.root.nid]


def choose_k(lows: Mapping[int, Sequence[int]], vexp: Mapping[str, Optional[int]],
             v: Vass, n: int) -> int:
    """Smallest k >= 1 such that each layer's (>= 1) minimal prefix sums
    `lows[layer]` are covered by the valuation k * N^min(vexp(x), layer)."""
    return max([1] + [_ceil_div(-m, n ** min(vexp[x], layer))
                      for layer, low in lows.items() if layer >= 1
                      for x, m in zip(v.variables, low)])


def build_witness(result: AnalysisResult, n: int) -> WitnessPath:
    """Construct the lower-bound path for scale parameter n.

    The recorded initial valuation is the pointwise-minimal valuation from
    which the path executes, raised where necessary so the final valuation
    meets every N^vexp threshold (the raise never exceeds the O(N) initial
    envelope the construction guarantees)."""
    if result.report.status != POLYNOMIAL:
        raise VassError("witness paths exist only for polynomial status")
    if n < 1:
        raise VassError("scale parameter must be >= 1")
    v = result.vass
    if not v.transitions:
        empty = Leaf(Path((), anchor=v.states[0] if v.states else None), v.dimension)
        zero = Valuation.zero(v.variables)
        return WitnessPath(n, 1, empty, zero, zero, 0)

    builder = _Builder(result, n)
    paths = [builder.path(layer) for layer in range(builder.max_layer + 1)]
    k = choose_k({layer: _times(n, pre)[1] for layer, (_, pre) in enumerate(paths)},
                 result.report.variable_exponents, v, n)
    path = Repeat(1, [Repeat(n * k, parts, v.dimension) for parts, _ in paths], v.dimension)

    base = min_initial_valuation(v, path)
    initial_val = Valuation({x: max(base[x], n ** result.report.variable_exponents[x] - e)
                             for x, e in zip(v.variables, path.effect)})
    final = execute_path(v, initial_val, path)
    if final is None:
        raise InternalInvariantError("constructed path does not execute from its initial valuation")
    envelope = _ceil_div(initial_val.norm(), n)
    return WitnessPath(n, k, path, initial_val, final, envelope)


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
        raise VassError("certificate exists only for exponential status")
    layer = result.report.exponential_layer
    cycles = tuple(cycle for _, cycle in sorted(
        node_cycles(result.tree, layer, result.archive, result.vass).items()))
    vexp = result.report.variable_exponents
    bounded = tuple(x for x in result.vass.variables if vexp[x] is not None)
    growing = tuple(x for x in result.vass.variables if vexp[x] is None)
    cert = ExponentialCertificate(cycles, bounded, growing)
    problem = check_certificate(result.vass, cert)
    if problem is not None:
        raise InternalInvariantError(problem)
    return cert


def check_certificate(v: Vass, cert: ExponentialCertificate) -> Optional[str]:
    """None if the certificate is valid, else a description of the violation."""
    if sorted(cert.bounded + cert.growing) != sorted(v.variables):
        return "bounded/growing sets do not partition the variables"
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
