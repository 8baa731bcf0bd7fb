"""Core data model for vector addition systems with states (VASS).

A VASS is a finite directed graph whose transitions carry integer update
vectors over a fixed list of counter variables.  Executions move along
transitions, adding the update to the current valuation; a step is only
allowed if every counter stays non-negative.

This module provides the immutable model types, the line-based text format,
strongly-connected-component decomposition, and path execution semantics.
It also holds the package's shared state-graph index `_out_edges`, each
state's outgoing transitions, which the oracle's search and the witness's
covering cycle walk.  All types are immutable after construction and
every operation here is a pure function.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class VassError(Exception):
    """Base class for errors raised by this package."""


class VassSyntaxError(VassError):
    """Malformed VASS file; carries 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NotConnectedError(VassError):
    """Raised by operations that require a connected VASS."""

    def __init__(self, source: str, target: str):
        super().__init__(f"no path from state '{source}' to state '{target}'")
        self.pair = (source, target)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"-?[0-9]+\Z")
_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class Transition:
    """One transition: source state, integer update vector, target state.

    Transitions carry a stable integer id (file order) so that analysis
    output can reference them deterministically.
    """

    tid: int
    src: str
    update: tuple[int, ...]
    dst: str

    def triple(self) -> tuple[str, tuple[int, ...], str]:
        return (self.src, self.update, self.dst)

    def __str__(self) -> str:
        upd = " ".join(str(c) for c in self.update)
        return f"{self.src} -> {self.dst} : {upd}"


@dataclass(frozen=True)
class Vass:
    """A vector addition system with states.

    `variables` is the declared variable order (it fixes vector indexing),
    `states` is kept sorted, and `transitions` is kept in id order.
    """

    variables: tuple[str, ...]
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise VassError("duplicate variable names")
        if len(set(self.states)) != len(self.states):
            raise VassError("duplicate state names")
        if tuple(sorted(self.states)) != self.states:
            raise VassError("states must be sorted")
        state_set = set(self.states)
        seen: set[tuple] = set()
        by_id: dict[int, Transition] = {}
        for t in self.transitions:
            if t.src not in state_set or t.dst not in state_set:
                raise VassError(f"transition {t} mentions an undeclared state")
            if len(t.update) != len(self.variables):
                raise VassError(f"transition {t} has update arity {len(t.update)}, "
                                f"expected {len(self.variables)}")
            if t.triple() in seen:
                raise VassError(f"duplicate transition {t}")
            if t.tid in by_id:
                raise VassError(f"duplicate transition id {t.tid}")
            seen.add(t.triple())
            by_id[t.tid] = t
        object.__setattr__(self, "_by_id", by_id)

    @staticmethod
    def from_triples(variables: Sequence[str],
                     triples: Iterable[tuple[str, Sequence[int], str]],
                     extra_states: Iterable[str] = ()) -> "Vass":
        """Build a VASS from (src, update, dst) triples, assigning ids in order."""
        transitions = tuple(
            Transition(i, src, tuple(int(c) for c in update), dst)
            for i, (src, update, dst) in enumerate(triples)
        )
        states = set(extra_states)
        for t in transitions:
            states.add(t.src)
            states.add(t.dst)
        return Vass(tuple(variables), tuple(sorted(states)), transitions)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def transition(self, tid: int) -> Transition:
        return self._by_id[tid]

    def restrict(self, states: Iterable[str], transitions: Iterable[Transition]) -> "Vass":
        """Sub-VASS on the given states/transitions; ids and variables are kept."""
        return Vass(self.variables, tuple(sorted(set(states))),
                    tuple(sorted(transitions, key=lambda t: t.tid)))


class Valuation(Mapping[str, int]):
    """An assignment of non-negative integers to variable names."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, int]):
        for name, value in entries.items():
            if value < 0:
                raise VassError(f"negative valuation entry {name} = {value}")
        object.__setattr__(self, "_entries", dict(entries))

    def __getitem__(self, key: str) -> int:
        return self._entries[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._entries.items()))
        return f"Valuation({inner})"

    def norm(self) -> int:
        """Maximum entry (the max-norm); 0 for the empty valuation."""
        return max(self._entries.values(), default=0)

    def as_vector(self, variables: Sequence[str]) -> tuple[int, ...]:
        return tuple(self._entries.get(x, 0) for x in variables)

    @staticmethod
    def zero(variables: Sequence[str]) -> "Valuation":
        return Valuation({x: 0 for x in variables})

    @staticmethod
    def from_vector(variables: Sequence[str], vector: Sequence[int]) -> "Valuation":
        return Valuation(dict(zip(variables, vector)))


@dataclass(frozen=True)
class PrePath:
    """A finite transition sequence without the state-adjacency requirement.

    `anchor` names the start state of an empty sequence, so degenerate
    cycles still know where they live.
    """

    steps: tuple[Transition, ...]
    anchor: Optional[str] = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def start(self) -> Optional[str]:
        if self.steps:
            return self.steps[0].src
        return self.anchor

    @property
    def end(self) -> Optional[str]:
        if self.steps:
            return self.steps[-1].dst
        return self.anchor

    def value(self, dimension: int) -> tuple[int, ...]:
        """Component-wise sum of all updates."""
        return self.summary(dimension)[0]

    def summary(self, dimension: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The net effect and the per-counter minimal prefix sum (<= 0; the
        empty prefix counts), from one walk over the steps."""
        running = [0] * dimension
        lowest = [0] * dimension
        for t in self.steps:
            for i, c in enumerate(t.update):
                running[i] += c
                if running[i] < lowest[i]:
                    lowest[i] = running[i]
        return tuple(running), tuple(lowest)

    def instances(self) -> Counter:
        """Number of occurrences of each transition id."""
        return Counter(t.tid for t in self.steps)


@dataclass(frozen=True)
class Path(PrePath):
    """A PrePath whose consecutive steps are state-adjacent."""

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if a.dst != b.src:
                raise VassError(f"non-adjacent steps: {a} then {b}")

    @property
    def is_cycle(self) -> bool:
        return self.start == self.end


def parse_vass(text: str) -> Vass:
    """Parse the VASS text format.

    Format (UTF-8, line based): `#` starts a comment, blank lines are
    ignored, the first significant line is `vars <name>+`, and every
    further significant line is `<src> -> <dst> : <int>{n}` with n integers
    in declared variable order.  States are implicit.
    """
    variables: Optional[tuple[str, ...]] = None
    triples: list[tuple[str, tuple[int, ...], str]] = []
    seen: set[tuple[str, tuple[int, ...], str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        found = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not found:
            continue
        tokens, cols = zip(*found)  # each token and its 1-based column
        if variables is None:
            if tokens[0] != "vars":
                raise VassSyntaxError("expected 'vars' declaration", lineno, cols[0])
            if len(tokens) < 2:
                raise VassSyntaxError("at least one variable required", lineno, len(line) + 1)
            names = tokens[1:]
            for i, name in enumerate(names):
                if not _IDENT.match(name):
                    raise VassSyntaxError(f"bad variable name '{name}'", lineno, cols[1 + i])
                if name in names[:i]:
                    raise VassSyntaxError(f"duplicate variable '{name}'", lineno, cols[1 + i])
            variables = tuple(names)
            continue

        if len(tokens) < 4:
            raise VassSyntaxError("expected '<src> -> <dst> : <updates>'", lineno)
        src, arrow, dst, colon = tokens[0], tokens[1], tokens[2], tokens[3]
        if not _IDENT.match(src):
            raise VassSyntaxError(f"bad state name '{src}'", lineno, cols[0])
        if arrow != "->":
            raise VassSyntaxError(f"unknown relation token '{arrow}'", lineno, cols[1])
        if not _IDENT.match(dst):
            raise VassSyntaxError(f"bad state name '{dst}'", lineno, cols[2])
        if colon != ":":
            raise VassSyntaxError(f"expected ':' before updates, got '{colon}'", lineno, cols[3])
        numbers = tokens[4:]
        if len(numbers) != len(variables):
            raise VassSyntaxError(
                f"expected {len(variables)} updates, got {len(numbers)}", lineno)
        update = []
        for i, num in enumerate(numbers):
            if not _INT.match(num):
                raise VassSyntaxError(f"bad integer '{num}'", lineno, cols[4 + i])
            try:
                update.append(int(num))
            except ValueError:  # beyond the interpreter's integer digit limit
                raise VassSyntaxError(f"integer with {len(num.lstrip('-'))} digits is too long",
                                      lineno, cols[4 + i]) from None
        triple = (src, tuple(update), dst)
        if triple in seen:
            raise VassSyntaxError(f"duplicate transition '{src} -> {dst}'", lineno)
        seen.add(triple)
        triples.append(triple)

    if variables is None:
        raise VassSyntaxError("missing 'vars' declaration", 1)
    return Vass.from_triples(variables, triples)


def serialize_vass(v: Vass) -> str:
    """Canonical text form: vars line, then transitions sorted by (src, dst, update)."""
    out = ["vars " + " ".join(v.variables)]
    for t in sorted(v.transitions, key=lambda t: (t.src, t.dst, t.update)):
        out.append(str(t))
    return "\n".join(out) + "\n"


def _out_edges(v: Vass) -> dict[str, list[Transition]]:
    """Each state's outgoing transitions, in the id order of `v.transitions`."""
    out: dict[str, list[Transition]] = {s: [] for s in v.states}
    for t in v.transitions:
        out[t.src].append(t)
    return out


def unconnected_pair(v: Vass) -> Optional[tuple[str, str]]:
    """The first state s that does not reach every state, and the first
    state that s does not reach; or None.  Unless the first state misses
    some state, and so is s, it reaches every state; then a state reaches
    every state just when it reaches the first, and s misses the first."""
    if len(v.states) < 2:
        return None
    first = v.states[0]
    succ = {s: [t.dst for t in ts] for s, ts in _out_edges(v).items()}
    reached = set(_finish_order(succ, [first], set()))
    missed = next((u for u in v.states if u not in reached), None)
    if missed is not None:
        return first, missed
    pred: dict[str, list[str]] = {s: [] for s in v.states}
    for t in v.transitions:
        pred[t.dst].append(t.src)
    reaching = set(_finish_order(pred, [first], set()))
    s = next((u for u in v.states if u not in reaching), None)
    return None if s is None else (s, first)


def validate_connected(v: Vass) -> bool:
    """True iff every ordered state pair is joined by a path (vacuous for <= 1 state)."""
    return unconnected_pair(v) is None


def _finish_order(adjacent: Mapping[str, list[str]], roots: Iterable[str], seen: set[str]) -> list[str]:
    """The states reachable from `roots` and not in `seen`, in the order a
    depth-first walk finishes them; each is added to `seen`.  The walk keeps
    (state, iterator over its neighbours) pairs on an explicit stack."""
    order, stack = [], [(None, iter(roots))]  # a pseudo-state whose neighbours are the roots
    while stack:
        state, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(adjacent[child])))
                break
        else:
            stack.pop()
            order.append(state)
    return order[:-1]


def scc_decompose(states: Iterable[str], transitions: Iterable[Transition]) -> list[tuple[tuple[str, ...], tuple[Transition, ...]]]:
    """Maximal strongly connected sub-VASSs with at least one transition.

    Returns (sorted states, transitions in id order) pairs, ordered by the
    smallest contained state name.  Kosaraju-Sharir, linear in states plus
    transitions: a walk along the edges records the states' finish order,
    and walks against the edges, from each state in reverse finish order,
    collect the states each reaches first as one component under it as
    leader.  Every walk keeps an explicit stack (`_finish_order`).
    """
    succ: dict[str, list[str]] = {s: [] for s in sorted(set(states))}
    pred: dict[str, list[str]] = {s: [] for s in succ}
    trans = sorted((t for t in transitions if t.src in succ and t.dst in succ), key=lambda t: t.tid)
    for t in trans:
        succ[t.src].append(t.dst)
        pred[t.dst].append(t.src)
    leader: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    seen: set[str] = set()
    for root in reversed(_finish_order(succ, succ, set())):
        if root not in seen:
            members[root] = _finish_order(pred, (root,), seen)
            leader.update(dict.fromkeys(members[root], root))
    internal: dict[str, list[Transition]] = {}
    for t in trans:
        if leader[t.src] == leader[t.dst]:
            internal.setdefault(leader[t.src], []).append(t)
    return sorted((tuple(sorted(members[root])), tuple(ts)) for root, ts in internal.items())


def execute_path(v: Vass, start: Valuation, p: PrePath) -> Optional[Valuation]:
    """Final valuation of running p from start, or None if a counter would go
    negative: exactly when start plus p's minimal prefix sum does, so no step
    is replayed.  `p` is a PrePath or a witness path program."""
    effect, lowest = p.summary(v.dimension)
    vector = start.as_vector(v.variables)
    if any(s + m < 0 for s, m in zip(vector, lowest)):
        return None
    return Valuation.from_vector(v.variables, tuple(s + e for s, e in zip(vector, effect)))


def min_initial_valuation(v: Vass, p: PrePath) -> Valuation:
    """The pointwise-minimal valuation from which p executes."""
    return Valuation.from_vector(v.variables, tuple(-m for m in p.summary(v.dimension)[1]))
