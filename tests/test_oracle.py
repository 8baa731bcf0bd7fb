"""Oracle layer: exact brute-force metrics and their sentinel behavior."""

import pathlib
import random
import sys
from itertools import product

import pytest

from vassbound import (
    NONTERMINATING,
    BudgetExceededError,
    Path,
    Valuation,
    Vass,
    VassError,
    analyze,
    execute_path,
    longest_trace,
    max_instances,
    max_reachable,
    parse_vass,
)
from vassbound.analyzer import EXPONENTIAL, POLYNOMIAL
from vassbound.oracle import DEFAULT_BUDGET, sweep, sweep_csv
from conftest import perturbed_family, random_connected_vass, without_deep_recursion

# Exact values for the running example, cross-checked against the
# independent recursive search below for the small parameters.
V_RUN_LONGEST = {0: 1, 1: 17, 2: 78, 3: 215, 4: 460}


def reference_metric(v, n, step_weight=lambda t: 1, node_value=None):
    """Independent memoized recursive search: the maximal step-weighted
    path value over every root in the {0..n} box, or the maximum of
    `node_value` over every reachable valuation when it is given, or
    NONTERMINATING when a configuration covers, componentwise, one with the
    same state on the current path (a configuration cycle is the equal
    case)."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200000)
    memo = {}
    on_path = []

    class Cycle(Exception):
        pass

    def explore(cfg):
        if cfg in memo:
            return memo[cfg]
        state, vec = cfg
        if any(s == state and all(a <= b for a, b in zip(u, vec)) for s, u in on_path):
            raise Cycle()
        on_path.append(cfg)
        best = 0
        for t in v.transitions:
            if t.src != state:
                continue
            nxt = tuple(a + b for a, b in zip(vec, t.update))
            if all(c >= 0 for c in nxt):
                best = max(best, step_weight(t) + explore((t.dst, nxt)))
        on_path.pop()
        memo[cfg] = best
        return best

    try:
        longest = max((explore((s, vec))
                       for s in v.states
                       for vec in product(range(n + 1), repeat=v.dimension)),
                      default=0)
    except Cycle:
        return NONTERMINATING
    finally:
        sys.setrecursionlimit(limit)
    if node_value is None:
        return longest
    return max((node_value(vec) for _, vec in memo), default=0)


def reference_sweep(v, n):
    """{metric: reference value} for `longest`, every variable and every
    transition of `v`, in the metric names `sweep` takes."""
    refs = {"longest": reference_metric(v, n)}
    for i, x in enumerate(v.variables):
        refs[f"var:{x}"] = reference_metric(
            v, n, lambda t: 0, lambda vec, i=i: vec[i])
    for t in v.transitions:
        refs[f"trans:{t.tid}"] = reference_metric(
            v, n, lambda u, tid=t.tid: 1 if u.tid == tid else 0)
    return refs


def doubling_pump_path(v, n, rounds):
    """Alternate draining the two pump loops; each round roughly triples
    the counter total, starting from (n, n)."""
    by_pair = {(t.src, t.dst): t for t in v.transitions}
    loop1, loop2 = by_pair[("s1", "s1")], by_pair[("s2", "s2")]
    forward, backward = by_pair[("s1", "s2")], by_pair[("s2", "s1")]
    steps = []
    x = y = n
    for _ in range(rounds):
        while x > 0:
            steps.append(loop1)
            x -= 1
            y += 2
        steps.append(forward)
        while y > 0:
            steps.append(loop2)
            y -= 1
            x += 2
        steps.append(backward)
    return Path(tuple(steps), anchor="s1")


def check_against_reference(v, n, budget=DEFAULT_BUDGET):
    """The oracle agrees with the reference search on every metric of `v`
    at scale n: values, and NONTERMINATING on a configuration cycle."""
    for metric, expected in reference_sweep(v, n).items():
        assert sweep(v, metric, [n], budget) == [(n, metric, expected)], metric


class TestLongestTrace:
    def test_running_example_regression(self, v_run):
        for n, expected in V_RUN_LONGEST.items():
            assert longest_trace(v_run, n) == expected

    def test_agrees_with_reference_search(self, v_run):
        for n in range(4):
            check_against_reference(v_run, n)

    def test_agrees_with_reference_on_random_models(self):
        """Every pair is decided within the budget: an unbounded run shows
        as a covering pair on the stack long before it outgrows it."""
        rng = random.Random(2310)
        outcomes = []
        for _ in range(100):
            v = random_connected_vass(rng)
            for n in range(3):
                outcomes.append(longest_trace(v, n, 300) is NONTERMINATING)
                check_against_reference(v, n, 300)
        assert (len(outcomes), sum(outcomes)) == (300, 219)  # checks, NONTERMINATING among them

    def test_reference_restores_recursion_limit(self, v_run):
        limit = sys.getrecursionlimit()
        reference_metric(v_run, 1)
        assert sys.getrecursionlimit() == limit


    def test_monotone_in_scale(self, v_run):
        values = [longest_trace(v_run, n) for n in range(5)]
        assert values == sorted(values)

    def test_no_executable_step_gives_zero(self):
        v = Vass.from_triples(["x"], [("s1", (-5,), "s1")])
        assert longest_trace(v, 4) == 0

    def test_zero_update_loop_is_nonterminating(self):
        v = Vass.from_triples(["x"], [("s1", (0,), "s1")])
        assert longest_trace(v, 1) is NONTERMINATING

    def test_doubling_is_nonterminating(self, doubling):
        assert longest_trace(doubling, 2) is NONTERMINATING

    def test_unbounded_run_without_configuration_cycle_is_nonterminating(self):
        """`s -> s : 1` reaches infinitely many configurations and none
        twice; each step covers the one before it, so every metric is
        NONTERMINATING at once.  A budget of 100 is checked first, so that a
        walk that misses the pair fails fast instead of filling the default
        budget."""
        v = Vass.from_triples(["x"], [("s", (1,), "s")])
        for budget in (100, DEFAULT_BUDGET):
            for n in range(3):
                for metric in ("longest", "var:x", "trans:0"):
                    assert sweep(v, metric, [n], budget) == [(n, metric, NONTERMINATING)]

    def test_budget_guard(self, v_run):
        with pytest.raises(BudgetExceededError):
            longest_trace(v_run, 3, budget=10)

    def test_budget_admits_exactly_budget_configurations(self, v_run):
        # running.vass reaches 58 configurations from the {0..1} box
        with pytest.raises(BudgetExceededError,
                           match="more than 57 configurations reachable"):
            longest_trace(v_run, 1, budget=57)
        assert longest_trace(v_run, 1, budget=58) == 17

    def test_zero_budget_refuses_any_state(self):
        v = Vass.from_triples(["x"], [("s1", (-1,), "s1")])
        with pytest.raises(BudgetExceededError):
            longest_trace(v, 0, budget=0)


    def test_deep_chain_needs_no_recursion(self):
        v = Vass.from_triples(["x"], [(f"s{i:04d}", (0,), f"s{i + 1:04d}")
                                      for i in range(5000)])
        assert without_deep_recursion(longest_trace, v, 0) == 5000
        assert without_deep_recursion(max_instances, v, 0, 4999) == 1


class TestOtherMetrics:
    def test_never_increased_variable_caps_at_scale(self):
        v = Vass.from_triples(["a", "b"], [("s1", (-1, 0), "s1")])
        assert max_reachable(v, 3, "a") == 3
        assert max_reachable(v, 3, "b") == 3

    def test_max_reachable_growth(self, v_run):
        values = [max_reachable(v_run, n, "z") for n in range(1, 5)]
        assert values == sorted(values)
        assert values[-1] >= 4 ** 2

    def test_max_instances_linear_transition(self, v_run):
        values = [max_instances(v_run, n, 8) for n in range(1, 5)]
        assert values == sorted(values)
        assert all(v >= n for n, v in zip(range(1, 5), values))
        assert all(v <= 20 * n for n, v in zip(range(1, 5), values))

    def test_max_instances_cubic_transition(self, v_run):
        values = [max_instances(v_run, n, 1) for n in range(1, 5)]
        assert values == sorted(values)

    def test_max_instances_rejects_unknown_transition(self, v_run):
        with pytest.raises(VassError, match="unknown transition id 99"):
            max_instances(v_run, 1, 99)

    def test_max_reachable_rejects_unknown_variable(self, v_run):
        with pytest.raises(VassError, match="unknown variable 'q'"):
            max_reachable(v_run, 1, "q")


class TestPumping:
    def test_doubling_pump_reaches_exponential_length(self, doubling):
        for n in range(2, 7):
            path = doubling_pump_path(doubling, n, rounds=n)
            assert execute_path(
                doubling, Valuation({"x": n, "y": n}), path) is not None
            assert len(path) >= 2 ** n

    def test_terminating_exponential_sample_has_finite_traces(self):
        """An exponential verdict on a model whose every run terminates: no
        cycle of it has a non-negative effect on all counters."""
        sample = pathlib.Path(__file__).resolve().parent.parent / "samples"
        v = parse_vass((sample / "terminating_exponential.vass").read_text())
        assert analyze(v).report.status == EXPONENTIAL
        assert [longest_trace(v, n) for n in range(4)] == [1, 14, 59, 184]


class TestGrowthConsistency:
    """Doubling the scale parameter multiplies the exact longest trace by
    about 2^k for claimed overall exponent k; a loose factor guards the
    upper-bound direction (the witness paths already pin the lower one)."""

    def check_growth(self, v, lo, hi, budget=400000):
        result = analyze(v)
        assert result.report.status == POLYNOMIAL
        k = result.report.complexity_exponent
        small = longest_trace(v, lo, budget)
        big = longest_trace(v, hi, budget)
        assert big <= small * (hi / lo) ** k * 3, (k, small, big)
        return k, small, big

    def test_running_example_growth(self, v_run):
        k, small, big = self.check_growth(v_run, 3, 6)
        assert k == 3
        assert big >= small * 2  # clearly superlinear

    def test_quadratic_family_growth(self):
        from conftest import v_family

        k, small, big = self.check_growth(v_family(1), 4, 8)
        assert k == 2
        assert big >= small * 3  # clearly superlinear, consistent with N^2

    def test_random_polynomial_growth(self):
        rng = random.Random(616)
        checked = 0
        sampled = 0
        while checked < 20 and sampled < 3000:
            sampled += 1
            v = random_connected_vass(rng, max_vars=2, max_states=3,
                                      max_transitions=5)
            if analyze(v).report.status != POLYNOMIAL:
                continue
            try:
                self.check_growth(v, 3, 6)
            except BudgetExceededError:
                continue
            checked += 1
        assert checked == 20

    def test_perturbed_family_growth(self):
        # The exponent-2 draws of `perturbed_family` have layer trees
        # several layers deep, unlike the random models above.
        rng = random.Random(1)
        models = [v for v in (perturbed_family(rng) for _ in range(300))
                  if analyze(v).report.complexity_exponent == 2]
        assert len(models) == 18
        for v in models:
            _, small, big = self.check_growth(v, 3, 6)
            assert big >= small * 2  # clearly superlinear


class TestPolynomialMeansTerminating:
    def test_random_polynomial_cases_never_nonterminating(self):
        rng = random.Random(321)
        checked = 0
        for _ in range(60):
            v = random_connected_vass(rng)
            result = analyze(v)
            if result.report.status != POLYNOMIAL:
                continue
            try:
                value = longest_trace(v, 1, budget=200000)
            except BudgetExceededError:
                continue
            assert value is not NONTERMINATING
            checked += 1
        assert checked >= 10


class TestSweep:
    def test_csv_rows(self, v_run):
        rows = sweep(v_run, "var:z", range(1, 4))
        text = sweep_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "n,metric,value"
        assert len(lines) == 4
        values = [int(line.split(",")[2]) for line in lines[1:]]
        assert values == sorted(values)

    def test_nonterminating_sentinel_row(self):
        v = Vass.from_triples(["x"], [("s1", (0,), "s1")])
        text = sweep_csv(sweep(v, "longest", [1]))
        assert text.splitlines()[1] == "1,longest,NONTERMINATING"

    def test_negative_budget_rejected_before_any_n(self, v_run):
        with pytest.raises(VassError, match="oracle budget must be >= 0"):
            sweep(v_run, "longest", [], budget=-1)
