"""Metamorphic relations of the verdict: renamings, a split transition,
scaled updates and an unused variable.

The Theta(N^k) verdict is a property of the VASS up to names and order.
Shuffling the variables, renaming the states or reordering the
transitions permutes every position the analysis keys on: the columns and
rows of each layer's LPs, the order of the SCC split, the key under which
a repeated layer system reuses its solve.  The status and every exponent,
mapped through the renaming, must stay the same.

Splitting a transition s -> s' with update u into s -> m (update u) and
m -> s' (update 0) through a fresh state m changes no run's counter
values: every run through m alternates the two halves, so each half runs
exactly as often as the original did, and m is alive exactly when the
original was.  Both halves must get the original's exponent, and every
other exponent must stay.

Multiplying every update by c > 0 scales every d_ext row by c and keeps
the flow rows.  The multi-cycle cone c d_ext mu >= 0 is the cone
d_ext mu >= 0, with the same rows positive at each point; the ranking
systems correspond through (r, z) -> (r, c z), whose transition rows are
c times the original's and whose r >= 0 rows are the same.  So every
iteration finds the same maximal strict sets, the same tree grows, and
equal systems stay equal, so the same solves are reused.  The whole
report but the updates is the same, exponential verdicts included:
status, every exponent, `exponential_layer` and the layer audits.

A variable that no transition touches has an all-zero row in every
layer's d_ext.  The multi-cycle row 0 >= 0 is never strict.  The ranking
solutions are the old ones times any r >= 0 on its copies, so its root
copy goes strict at layer 1 and it gets exponent 1, while every other
strict set stays.  Its sums 1 + e(t) add no layer to the skip and no
sum to the stall check: a transition ranked at layer 1 needs a strict r
(z alone ranks nothing in a strongly connected VASS), so if any layer
after 1 runs, some variable already has exponent 1; and if none runs,
nothing is bounded and nothing is ranked.  So the same layers run, and
status, every other exponent and `exponential_layer` stay, exponential
verdicts included.

For each polynomial variant, its witness at N = 2 must pass
`verify_witness`; its dump is not compared.

The models are the acceptance suite's 200 random models, 100 wider random
models, `v_family(1..4)`, the two samples and the first 100 of the 300
seed-1 draws of `perturbed_family`, whose polynomial ones have layer trees
several layers deep and exponents 2, 4 and 8.
"""

import random
from collections import Counter

import pytest

from vassbound import Vass, analyze, build_witness, verify_witness
from vassbound.analyzer import POLYNOMIAL
from conftest import load_sample, perturbed_batch, random_connected_vass, suite_models, v_family

PERTURBED_DRAWS = 100


def _models() -> list[Vass]:
    models = list(suite_models())
    rng = random.Random(7)
    models += [random_connected_vass(rng, max_vars=4, max_states=5, max_transitions=9, span=2)
               for _ in range(100)]
    models += [v_family(nu) for nu in range(1, 5)]
    models += [load_sample("running"), load_sample("doubling")]
    models += perturbed_batch(1, 300)[:PERTURBED_DRAWS]
    return models


MODELS = _models()


@pytest.fixture(scope="module")
def verdicts():
    return [analyze(v).report for v in MODELS]


def test_perturbed_draws_reach_deep_exponents(verdicts):
    exponents = Counter(report.complexity_exponent for report in verdicts[-PERTURBED_DRAWS:]
                        if report.status == POLYNOMIAL)
    assert exponents == {2: 7, 4: 13, 8: 12}


def _renamed(v: Vass, rng: random.Random, relation: str) -> tuple[Vass, list[int]]:
    """`v` under the relation, and the new id of each transition."""
    variables = list(v.variables)
    order = list(range(len(v.transitions)))
    state = {s: s for s in v.states}
    if relation in ("variables", "all"):
        rng.shuffle(variables)
    if relation in ("states", "all"):
        fresh = [f"r{k:02d}" for k in range(len(v.states))]
        rng.shuffle(fresh)
        state = dict(zip(v.states, fresh))
    if relation in ("transitions", "all"):
        rng.shuffle(order)
    column = {x: j for j, x in enumerate(v.variables)}
    triples = []
    for tid in order:
        t = v.transitions[tid]
        triples.append((state[t.src], [t.update[column[x]] for x in variables], state[t.dst]))
    new_id = [0] * len(order)
    for position, tid in enumerate(order):
        new_id[tid] = position
    return Vass.from_triples(variables, triples), new_id


@pytest.mark.parametrize("relation", ["variables", "states", "transitions", "all"])
def test_renaming_keeps_the_verdict(verdicts, relation):
    rng = random.Random(f"rename-{relation}")
    for v, report in zip(MODELS, verdicts):
        renamed, new_id = _renamed(v, rng, relation)
        got = analyze(renamed).report
        assert got.status == report.status
        assert got.complexity_exponent == report.complexity_exponent
        assert got.variable_exponents == report.variable_exponents
        assert got.transition_exponents == {
            new_id[tid]: e for tid, e in report.transition_exponents.items()}


def test_split_transition_halves_keep_its_exponent(verdicts):
    rng = random.Random("split")
    for v, report in zip(MODELS, verdicts):
        t = rng.choice(v.transitions)
        triples = [u.triple() for u in v.transitions]
        triples[t.tid] = (t.src, t.update, "m_split")
        triples.append(("m_split", (0,) * v.dimension, t.dst))
        got = analyze(Vass.from_triples(v.variables, triples)).report
        assert got.status == report.status
        assert got.complexity_exponent == report.complexity_exponent
        assert got.variable_exponents == report.variable_exponents
        second = len(v.transitions)
        assert got.transition_exponents == {**report.transition_exponents,
                                            second: report.transition_exponents[t.tid]}


def _assert_witness_verifies(result):
    if result.report.status == POLYNOMIAL:
        verification = verify_witness(result.vass, build_witness(result, 2), result.report)
        assert verification.passed, verification.dump()


@pytest.mark.parametrize("c", [2, 3])
def test_scaled_updates_keep_the_report(verdicts, c):
    for v, report in zip(MODELS, verdicts):
        triples = [(t.src, tuple(c * a for a in t.update), t.dst) for t in v.transitions]
        result = analyze(Vass.from_triples(v.variables, triples))
        got = result.report
        assert got.status == report.status
        assert got.complexity_exponent == report.complexity_exponent
        assert got.variable_exponents == report.variable_exponents
        assert got.transition_exponents == report.transition_exponents
        assert got.exponential_layer == report.exponential_layer
        assert got.layers == report.layers
        _assert_witness_verifies(result)


def test_unused_variable_gets_exponent_one(verdicts):
    for v, report in zip(MODELS, verdicts):
        triples = [(t.src, (*t.update, 0), t.dst) for t in v.transitions]
        result = analyze(Vass.from_triples((*v.variables, "unused"), triples))
        got = result.report
        assert got.status == report.status
        assert got.complexity_exponent == report.complexity_exponent
        assert got.variable_exponents == {**report.variable_exponents, "unused": 1}
        assert got.transition_exponents == report.transition_exponents
        assert got.exponential_layer == report.exponential_layer
        _assert_witness_verifies(result)
