"""Brute-force ground truth at desk scale.

Enumerates every configuration reachable from any state with any initial
valuation inside the {0..N} box and computes exact suprema: longest trace
length, maximal reachable value of a variable, or maximal instance count of
a transition.  One depth-first walk, on an explicit stack of iterators,
visits the configurations, each on the stack until it finishes and its
longest-path value is memoized.  A reached configuration without that value
that covers, componentwise, one with the same state on the stack, itself
included, closes a cycle with non-negative effect, which pumps forever
(Dickson's lemma, the Karp-Miller test): an infinite trace exists, and all
three metrics report the NONTERMINATING sentinel.  A configuration cycle is
the equal case, the only one that a finite reachable set can show.

Enumeration is exact, never sampled.  The walk admits at most `budget`
configurations and raises BudgetExceededError on the next one, instead of
silently truncating.
"""

from __future__ import annotations

from itertools import product
from operator import le
from typing import Callable, Optional, Union

from .model import Transition, Vass, VassError, _out_edges

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(VassError):
    """More configurations are reachable than the budget admits."""


class _Nonterminating:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NONTERMINATING"


NONTERMINATING = _Nonterminating()

MetricResult = Union[int, _Nonterminating]


def _walk(v: Vass, n: int, step_weight: Callable[[Transition], int],
          node_value: Optional[Callable[[tuple[int, ...]], int]],
          budget: int) -> MetricResult:
    """Walk every configuration reachable from the {0..n} box, depth first.

    Returns NONTERMINATING when a configuration covers one on the stack;
    otherwise the maximum of `node_value` over every reached valuation when
    it is given, else the maximal step-weighted path value over all roots.
    Each stack frame is [configuration, weight of the move that reached it,
    iterator over its (weight, successor) moves, best value so far], and
    `on_stack` holds each state's valuations on the stack.  A reached
    configuration is on the stack or, finished, has its value in `best`."""
    if n < 0:
        raise VassError("scale parameter must be >= 0")
    if budget < 0:
        raise VassError("oracle budget must be >= 0")
    out_edges = _out_edges(v)

    def moves(state: str, vec: tuple[int, ...]):
        for t in out_edges[state]:
            nxt = tuple(a + b for a, b in zip(vec, t.update))
            if all(c >= 0 for c in nxt):
                yield step_weight(t), (t.dst, nxt)

    roots = ((0, (s, vec)) for s in v.states for vec in product(range(n + 1), repeat=v.dimension))
    best: dict[tuple, int] = {}
    on_stack: dict[str, list[tuple[int, ...]]] = {s: [] for s in v.states}
    stack: list[list] = [[None, 0, roots, 0]]  # a pseudo-configuration whose moves reach the roots
    while stack:
        frame = stack[-1]
        for weight, nxt in frame[2]:
            if nxt in best:
                frame[3] = max(frame[3], weight + best[nxt])
                continue
            state, vec = nxt
            if any(all(map(le, low, vec)) for low in on_stack[state]):
                return NONTERMINATING
            if len(best) + len(stack) > budget:  # reached so far, plus the pseudo-frame
                raise BudgetExceededError(f"more than {budget} configurations reachable")
            on_stack[state].append(vec)
            stack.append([nxt, weight, moves(*nxt), 0])
            break
        else:
            cfg, weight, _, value = stack.pop()
            if stack:
                on_stack[cfg[0]].pop()
                best[cfg] = value
                stack[-1][3] = max(stack[-1][3], weight + value)
    if node_value is None:
        return value
    return max((node_value(vec) for _, vec in best), default=0)


def longest_trace(v: Vass, n: int, budget: int = DEFAULT_BUDGET) -> MetricResult:
    """Exact supremum of trace lengths over all initial states and all
    initial valuations with max-norm <= n."""
    return _walk(v, n, lambda t: 1, None, budget)


def max_instances(v: Vass, n: int, tid: int,
                  budget: int = DEFAULT_BUDGET) -> MetricResult:
    """Exact supremum of the number of occurrences of one transition."""
    if not any(t.tid == tid for t in v.transitions):
        raise VassError(f"unknown transition id {tid}")
    return _walk(v, n, lambda t: 1 if t.tid == tid else 0, None, budget)


def max_reachable(v: Vass, n: int, variable: str,
                  budget: int = DEFAULT_BUDGET) -> MetricResult:
    """Exact supremum of a variable's value over all reachable configurations."""
    if variable not in v.variables:
        raise VassError(f"unknown variable '{variable}'")
    idx = v.variables.index(variable)
    return _walk(v, n, lambda t: 0, lambda vec: vec[idx], budget)


def sweep(v: Vass, metric: str, n_values, budget: int = DEFAULT_BUDGET) -> list[tuple[int, str, MetricResult]]:
    """Rows (n, metric, value) for a range of scale parameters.

    `metric` is "longest", "var:<name>" or "trans:<id>" naming a variable
    or transition of `v`; any other metric, or a negative budget, raises
    VassError before any N is measured."""
    if budget < 0:
        raise VassError("oracle budget must be >= 0")
    kind, _, arg = metric.partition(":")
    if metric == "longest":
        measure = lambda n: longest_trace(v, n, budget)
    elif kind == "var" and arg in v.variables:
        measure = lambda n: max_reachable(v, n, arg, budget)
    elif kind == "trans" and arg in {str(t.tid) for t in v.transitions}:
        measure = lambda n: max_instances(v, n, int(arg), budget)
    else:
        raise VassError(f"unknown metric '{metric}'")
    return [(n, metric, measure(n)) for n in n_values]


def sweep_csv(rows) -> str:
    out = ["n,metric,value"]
    for n, metric, value in rows:
        out.append(f"{n},{metric},{value}")
    return "\n".join(out) + "\n"
