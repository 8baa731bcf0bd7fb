"""Metamorphic relations of the verdict: renamings and a split transition.

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

The models are the acceptance suite's 200 random models, 100 wider random
models, `v_family(1..4)` and the two samples.
"""

import pathlib
import random

import pytest

from vassbound import Vass, analyze, parse_vass
from conftest import random_connected_vass, v_family

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def _models() -> list[Vass]:
    rng = random.Random(20240601)
    models = [random_connected_vass(rng, max_vars=3, max_transitions=6, span=2)
              for _ in range(200)]
    rng = random.Random(7)
    models += [random_connected_vass(rng, max_vars=4, max_states=5, max_transitions=9, span=2)
               for _ in range(100)]
    models += [v_family(nu) for nu in range(1, 5)]
    models += [parse_vass((SAMPLES / name).read_text()) for name in ("running.vass", "doubling.vass")]
    return models


MODELS = _models()


@pytest.fixture(scope="module")
def verdicts():
    return [analyze(v).report for v in MODELS]


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
