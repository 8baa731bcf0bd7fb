"""Acceptance suite: one check per exit criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

All tolerances are exact except where a check is explicitly a bounded-ratio
property; those bounds are stated inline.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from vassbound import (
    NONTERMINATING,
    BudgetExceededError,
    Valuation,
    analyze,
    build_extended_system,
    build_witness,
    check_certificate,
    execute_path,
    exponential_certificate,
    longest_trace,
    verify_witness,
)
from vassbound.analyzer import EXPONENTIAL, POLYNOMIAL
from vassbound.cli import _render_text_report
from vassbound.exactlp import lp_feasible, satisfies
from vassbound.model import scc_decompose
from conftest import (
    CertifiedSolution,
    dense,
    max_strict_set,
    perturbed_family,
    random_connected_vass,
    ranking_problem,
    v_family,
)
import test_exactlp
from test_exactlp import random_homogeneous
from test_oracle import doubling_pump_path

RANDOM_SUITE_SIZE = 200
LP_SUITE_SIZE = 500


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def random_suite():
    """200 random connected VASSs (<= 3 vars, <= 6 transitions, updates in
    [-2, 2]) analyzed with the skip optimization both on and off."""
    rng = random.Random(20240601)
    suite = []
    for _ in range(RANDOM_SUITE_SIZE):
        v = random_connected_vass(rng, max_vars=3, max_transitions=6, span=2)
        suite.append((v, analyze(v, skip_optimization=True),
                      analyze(v, skip_optimization=False)))
    return suite


def test_criterion_1_running_example_exact(v_run):
    started = time.perf_counter()
    result = analyze(v_run)
    elapsed = time.perf_counter() - started
    expected_texp = {0: 3, 1: 3, 2: 3, 3: 3, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1}
    ok = (result.report.status == POLYNOMIAL
          and result.report.variable_exponents == {"x": 1, "y": 1, "z": 2}
          and result.report.transition_exponents == expected_texp
          and result.report.complexity_exponent == 3
          and elapsed < 1.0)
    assert report(1, ok, f"exponent 3, runtime {elapsed:.3f}s")
    assert result.report.variable_exponents == {"x": 1, "y": 1, "z": 2}
    assert result.report.transition_exponents == expected_texp
    assert result.report.complexity_exponent == 3
    assert elapsed < 1.0


def test_criterion_2_family_exact():
    timings = {}
    for nu in (1, 2, 3):
        v = v_family(nu)
        started = time.perf_counter()
        result = analyze(v)
        timings[nu] = time.perf_counter() - started
        vexp = result.report.variable_exponents
        for i in range(1, nu + 1):
            assert vexp[f"x{i}1"] == 2 ** (i - 1)
            assert vexp[f"x{i}2"] == 2 ** (i - 1)
        texp = {(t.src, t.dst): result.report.transition_exponents[t.tid]
                for t in v.transitions}
        for i in range(1, nu + 1):
            assert texp[(f"s{i}1", f"s{i}1")] == 2 ** i
            assert texp[(f"s{i}2", f"s{i}2")] == 2 ** i
            assert texp[(f"s{i}1", f"s{i}2")] == 2 ** (i - 1)
            assert texp[(f"s{i}2", f"s{i}1")] == 2 ** (i - 1)
            if i < nu:
                assert texp[(f"s{i}1", f"s{i+1}1")] == 2 ** (i - 1)
                assert texp[(f"s{i+1}2", f"s{i}2")] == 2 ** (i - 1)
    ok = timings[3] < 5.0
    assert report(2, ok, f"three family sizes exact, largest in {timings[3]:.2f}s")
    assert timings[3] < 5.0


def test_criterion_3_exponential_detection(doubling):
    result = analyze(doubling)
    assert result.report.status == EXPONENTIAL
    cert = exponential_certificate(result)
    assert check_certificate(doubling, cert) is None
    assert cert.growing == ("x", "y")
    oracle_evidence = []
    for n in range(2, 7):
        value = longest_trace(doubling, n, budget=500000)
        # A configuration cycle means the supremum is infinite, which
        # dominates 2^n; the pumping path below adds finite evidence.
        unbounded = value is NONTERMINATING
        pump = doubling_pump_path(doubling, n, rounds=n)
        executed = execute_path(doubling, Valuation({"x": n, "y": n}), pump)
        oracle_evidence.append(
            (unbounded or value >= 2 ** n)
            and executed is not None and len(pump) >= 2 ** n)
    ok = all(oracle_evidence)
    assert report(3, ok, "certificate valid, growth >= 2^N confirmed for N=2..6")
    assert all(oracle_evidence)


def _replay_dichotomy(v, result):
    """Re-derive each iteration's extended update matrix and check the
    value-level dichotomy: every variable copy has a strictly positive
    ranking coefficient or a strictly positive multi-cycle update, and every
    alive transition strictly decreases the ranking or appears in the
    multi-cycle; never both."""
    vexp = {x: None for x in v.variables}
    for record in result.archive:
        sys = build_extended_system(v, result.tree, record.layer, vexp)
        assert sys.var_ext == record.var_ext
        mu = record.mu
        r, z = record.ranking.r, record.ranking.z
        d_ext, flow = dense(sys)
        for row, ve in zip(d_ext, sys.var_ext):
            mu_gain = sum(c * mu[t.tid] for c, t in zip(row, sys.transitions))
            assert (r[ve] > 0) != (mu_gain >= 1), (ve, r[ve], mu_gain)
        for j, t in enumerate(sys.transitions):
            drop = sum(row[j] * r[ve] for row, ve in
                       zip(d_ext, sys.var_ext))
            drop += sum(row[j] * z[s] for row, s in
                        zip(flow, sys.states))
            assert drop <= 0
            assert (drop < 0) != (mu[t.tid] >= 1), (t.tid, drop, mu[t.tid])
        for x in record.new_variable_bounds:
            vexp[x] = record.layer


def test_criterion_4_dichotomy_on_random_suite(random_suite):
    iterations = 0
    for v, result, _ in random_suite:
        _replay_dichotomy(v, result)
        iterations += len(result.archive)
    ok = len(random_suite) == RANDOM_SUITE_SIZE
    assert report(4, ok, f"{RANDOM_SUITE_SIZE} systems, "
                         f"{iterations} iterations, dichotomy exact")
    assert ok


def test_criterion_5_witness_validity(v_run, v2):
    """Executability, instance thresholds and final-value thresholds are
    exact.  The linear-envelope clause checks the recorded integer envelope
    constant: the exact ratio |initial|/N may approach its linear limit from
    below (it does for the two-block family), so stabilization of the
    rounded constant is the meaningful monotone quantity."""
    details = []
    for name, v in (("running example", v_run), ("two-block family", v2)):
        result = analyze(v)
        envelopes = {}
        ratios = {}
        for n in range(1, 7):
            w = build_witness(result, n)
            verification = verify_witness(v, w, result.report)
            assert verification.passed, f"{name} N={n}:\n" + verification.dump()
            envelopes[n] = w.envelope
            ratios[n] = Fraction(w.initial.norm(), n)
        for n in (3, 4, 5):
            assert envelopes[n + 1] <= envelopes[n], (name, envelopes)
        for n in (4, 5, 6):
            assert ratios[n] <= envelopes[3], (name, ratios)
        details.append(f"{name}: envelope {envelopes[6]}N")
    assert report(5, True, "; ".join(details))


def test_criterion_6_witness_length_within_same_scale_oracle(v_run):
    """Compares the witness length against the longest trace whose initial
    valuation is bounded by the same N.  The construction guarantees an
    initial envelope of c*N for a constant c > 1 (c is about 30 here), and
    a path from a c*N-bounded valuation can be, and is, longer than every
    trace from an N-bounded valuation, so this comparison fails for every N;
    it is kept in its stated form deliberately.  The sound matched-bound
    comparison (length <= longest trace from |initial|-bounded valuations)
    holds by the executability check of criterion 5 but is vacuous, and the
    |initial|-sized box is far beyond exhaustive enumeration."""
    result = analyze(v_run)
    lengths = {n: len(build_witness(result, n).path) for n in range(1, 5)}
    bounds = {n: longest_trace(v_run, n) for n in range(1, 5)}
    ok = all(lengths[n] <= bounds[n] for n in range(1, 5))
    report("6 (witness length vs same-N longest trace)", ok,
           "; ".join(f"N={n}: {lengths[n]} vs {bounds[n]}" for n in range(1, 5)))
    assert ok, (f"witness lengths {lengths} exceed the same-N longest traces "
                f"{bounds}; see the docstring for why this cannot hold")


def test_criterion_6_cubic_ratio_band(v_run):
    ratios = []
    for n in range(1, 5):
        value = longest_trace(v_run, n)
        ratios.append(Fraction(value, n ** 3))
    band = max(ratios) / min(ratios)
    ok = band <= 4
    assert report("6 (cubic ratio band)", ok,
                  f"ratios {[f'{float(r):.2f}' for r in ratios]}, "
                  f"spread {float(band):.2f} <= 4")
    assert band <= 4


def test_criterion_7_exponent_and_iteration_caps(random_suite):
    for v, result, _ in random_suite:
        n, m = v.dimension, len(v.transitions)
        exponents = list(result.report.variable_exponents.values())
        exponents += list(result.report.transition_exponents.values())
        for e in exponents:
            if e is not None:
                assert 1 <= e <= 2 ** n, (e, n)
        assert result.iterations <= n * m, (result.iterations, n, m)
    assert report(7, True, "all exponents <= 2^n, iterations <= n*m")


def test_criterion_8_skip_optimization_equivalence(random_suite):
    for v, on, off in random_suite:
        assert on.report.to_json(v) == off.report.to_json(v)
    assert report(8, True, f"{RANDOM_SUITE_SIZE} byte-identical report pairs")


def test_skip_optimization_keeps_stall_layer_and_text_report(random_suite, doubling):
    # The JSON report has no exponential layer and no certificate: compare
    # those through the layer itself and the text report.
    pairs = [(on, off) for _, on, off in random_suite]
    pairs.append((analyze(doubling, skip_optimization=True),
                  analyze(doubling, skip_optimization=False)))
    for on, off in pairs:
        assert on.report.exponential_layer == off.report.exponential_layer
        assert _render_text_report(on) == _render_text_report(off)
    assert sum(on.report.status == EXPONENTIAL for on, _ in pairs) == 138


def test_perturbed_family_models_agree_and_verify(monkeypatch):
    """Polynomial models with trees several layers deep: 300 seeded draws of
    `perturbed_family`, whose polynomial ones have exponents 2, 4 and 8.  On
    each, skipping on and off give the same text and JSON report and split
    every layer as the reference does, the witnesses at N = 1 and 2 verify,
    and each dump's `instances` line is a recount of its step lines.  Every
    ranking solve of every draw passes the exact dual-certificate check:
    these are the seeded systems of layer >= 2 with shifted sign rows."""
    import vassbound.analyzer as analyzer_mod

    solves, solve = [], analyzer_mod.max_strict_set

    def certified(columns, nx, nr):
        solution = solve(columns, nx, nr)
        p = ranking_problem(columns, nx, nr)
        solution_view = CertifiedSolution(p.variables, *solution)
        test_exactlp.TestDualCertificate.assert_certified(p, solution_view)
        solves.append(nr)
        return solution

    monkeypatch.setattr(analyzer_mod, "max_strict_set", certified)
    rng = random.Random(1)
    exponents, shapes = Counter(), set()
    for v in (perturbed_family(rng) for _ in range(300)):
        on = analyze(v)
        if on.report.status != POLYNOMIAL:
            continue
        off = analyze(v, skip_optimization=False)
        assert _render_text_report(on) == _render_text_report(off)
        assert on.report.to_json(v) == off.report.to_json(v)
        _assert_reference_split(on)
        _assert_reference_split(off)
        for n in (1, 2):
            witness = build_witness(on, n)
            verification = verify_witness(v, witness, on.report)
            assert verification.passed, verification.dump()
            lines = witness.dump(v).splitlines()
            recount = Counter(int(line) for line in lines[2:-2])
            assert lines[-2] == "instances " + " ".join(
                f"{t.tid}={recount[t.tid]}" for t in v.transitions)
        exponents[on.report.complexity_exponent] += 1
        shapes.add(tuple((node.parent, node.first_layer, node.last_layer, len(node.vass.states))
                         for node in on.tree.nodes))
    assert exponents == {2: 18, 4: 41, 8: 50}
    assert len(shapes) == 7
    assert len(solves) == 1497


def test_perturbed_family_certificates_on_deep_stall_layers():
    """The exponential draws of the same 300 `perturbed_family` models stall
    at layers up to 12.  Each gets a certificate from the node cycles of its
    stall layer, which `check_certificate` accepts, and skipping on and off
    give the same text report, certificate included."""
    rng = random.Random(1)
    stall_layers, cycles = Counter(), Counter()
    for v in (perturbed_family(rng) for _ in range(300)):
        on = analyze(v)
        if on.report.status != EXPONENTIAL:
            continue
        cert = exponential_certificate(on)
        assert check_certificate(v, cert) is None
        assert _render_text_report(on) == _render_text_report(analyze(v, skip_optimization=False))
        stall_layers[on.report.exponential_layer] += 1
        cycles[len(cert.cycles)] += 1
    assert sum(stall_layers.values()) == 191
    assert stall_layers == {1: 112, 2: 43, 3: 14, 4: 4, 6: 8, 8: 2, 12: 8}
    assert cycles == {1: 184, 2: 7}


def _assert_reference_split(result):
    """Each layer step's children are the split it replaces: for every node
    of layer - 1, in order, `restrict` over the components that
    `scc_decompose` finds in the node's states and kept transitions."""
    tree, v = result.tree, result.vass
    for rec in result.archive:
        children: list[int] = []
        for node in tree.nodes_at(rec.layer - 1):
            kept = [t for t in node.vass.transitions if t.tid not in rec.ranking.ranked]
            assert [tree.node(c).vass for c in node.children] == \
                [v.restrict(s, ts) for s, ts in scc_decompose(node.vass.states, kept)]
            children += node.children
        assert tuple(children) == rec.new_nodes


def test_carried_nodes_match_the_reference_split(random_suite, v_run, doubling):
    layers = 0
    for skip in (True, False):
        results = [on if skip else off for _, on, off in random_suite]
        results += [analyze(v, skip_optimization=skip)
                    for v in [v_run, doubling] + [v_family(nu) for nu in range(1, 7)]]
        for result in results:
            _assert_reference_split(result)
            layers += len(result.archive)
    assert report("split", True, f"{layers} layers split as scc_decompose + restrict")


def test_criterion_9_exact_lp_soundness():
    rng = random.Random(424242)
    for _ in range(LP_SUITE_SIZE):
        problem = random_homogeneous(rng)
        solution = max_strict_set(problem)
        values = solution.vector(problem.variables)
        assert satisfies(problem, values)
        assert all(value >= 0 for value in values)
        for i in sorted(problem.strict_candidates):
            row = problem.rows[i]
            slack = sum(c * values[j] for j, c in row.coeffs.items())
            if i in solution.strict_set:
                assert slack >= row.rhs + 1
            else:
                assert lp_feasible(problem, (i,)) is None
    assert report(9, True, f"{LP_SUITE_SIZE} problems, exact rational checks")
