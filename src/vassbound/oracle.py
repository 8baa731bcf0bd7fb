"""Brute-force ground truth at desk scale.

Enumerates every configuration reachable from any state with any initial
valuation inside the {0..N} box and computes exact suprema: longest trace
length, maximal reachable value of a variable, or maximal instance count of
a transition.  Longest-path values are memoized over the configuration
graph; a configuration cycle means an infinite trace exists and all three
metrics report the NONTERMINATING sentinel.

Enumeration is exact, never sampled; exceeding the node budget raises
instead of silently truncating.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Optional, Union

from .model import Transition, Vass, VassError, _out_edges

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(VassError):
    """The reachable configuration space outgrew the node budget."""


class _Nonterminating:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NONTERMINATING"


NONTERMINATING = _Nonterminating()

MetricResult = Union[int, _Nonterminating]

_GRAY, _BLACK = 1, 2


class _CycleFound(Exception):
    pass


def _explore(v: Vass, n: int, step_weight: Callable[[Transition], int],
             node_value: Optional[Callable[[tuple[int, ...]], int]],
             budget: int) -> int:
    """Explore every configuration reachable from the {0..n} box.

    Returns the maximal step-weighted path value over all roots, or, when
    `node_value` is given, the maximum of that function over every visited
    valuation; raises _CycleFound on a configuration cycle."""
    out_edges = _out_edges(v)
    dim = v.dimension

    color: dict[tuple, int] = {}
    best: dict[tuple, int] = {}
    overall = 0

    def successors(state: str, vec: tuple[int, ...]):
        for t in out_edges[state]:
            nxt = tuple(a + b for a, b in zip(vec, t.update))
            if all(c >= 0 for c in nxt):
                yield t, (t.dst, nxt)

    for root_state in v.states:
        for root_vec in product(range(n + 1), repeat=dim):
            root = (root_state, root_vec)
            if root in color:
                overall = max(overall, best[root])
                continue
            stack: list[tuple[tuple, list, int, int]] = []

            def push(cfg):
                if len(color) > budget:
                    raise BudgetExceededError(
                        f"more than {budget} configurations reachable")
                color[cfg] = _GRAY
                succ = list(successors(*cfg))
                stack.append((cfg, succ, 0, 0))

            push(root)
            while stack:
                cfg, succ, idx, acc = stack.pop()
                if idx < len(succ):
                    t, nxt = succ[idx]
                    state = color.get(nxt)
                    if state == _GRAY:
                        raise _CycleFound()
                    if state == _BLACK:
                        acc = max(acc, step_weight(t) + best[nxt])
                        stack.append((cfg, succ, idx + 1, acc))
                    else:
                        stack.append((cfg, succ, idx + 1, acc))
                        push(nxt)
                else:
                    color[cfg] = _BLACK
                    best[cfg] = max(acc, 0)
                    if stack:
                        prev_cfg, prev_succ, prev_idx, prev_acc = stack.pop()
                        t, _ = prev_succ[prev_idx - 1]
                        prev_acc = max(prev_acc, step_weight(t) + best[cfg])
                        stack.append((prev_cfg, prev_succ, prev_idx, prev_acc))
            overall = max(overall, best[root])

    if node_value is not None:
        peak = 0
        for (state, vec) in color:
            peak = max(peak, node_value(vec))
        return peak
    return overall


def _metric(v: Vass, n: int, step_weight, node_value, budget) -> MetricResult:
    if n < 0:
        raise VassError("scale parameter must be >= 0")
    if budget < 0:
        raise VassError("oracle budget must be >= 0")
    try:
        return _explore(v, n, step_weight, node_value, budget)
    except _CycleFound:
        return NONTERMINATING


def longest_trace(v: Vass, n: int, budget: int = DEFAULT_BUDGET) -> MetricResult:
    """Exact supremum of trace lengths over all initial states and all
    initial valuations with max-norm <= n."""
    return _metric(v, n, lambda t: 1, None, budget)


def max_instances(v: Vass, n: int, tid: int,
                  budget: int = DEFAULT_BUDGET) -> MetricResult:
    """Exact supremum of the number of occurrences of one transition."""
    if not any(t.tid == tid for t in v.transitions):
        raise VassError(f"unknown transition id {tid}")
    return _metric(v, n, lambda t: 1 if t.tid == tid else 0, None, budget)


def max_reachable(v: Vass, n: int, variable: str,
                  budget: int = DEFAULT_BUDGET) -> MetricResult:
    """Exact supremum of a variable's value over all reachable configurations."""
    if variable not in v.variables:
        raise VassError(f"unknown variable '{variable}'")
    idx = v.variables.index(variable)
    return _metric(v, n, lambda t: 0, lambda vec: vec[idx], budget)


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
