"""Orders of growth, pinned by exact work counts.

A family of models is analyzed at three sizes, each twice the last, while
module-level wrappers count deterministic work.  The counts are pinned
exactly, and so is their order of growth: a count that grows linearly
about doubles from one size to the next, a quadratic one about
quadruples, so a quadratic wall shows here long before any timing would.
Nothing is timed, so nothing is flaky.

The long ring: S states q0 .. q(S-1) in one cycle whose steps drain x and
y in turn, and a `1 -1` self-loop on every 7th state.  It is polynomial
with exponent 1 and takes one iteration.  Its layer system stores only
the non-zeros of each transition's column: a step's one update and its
two flow entries, a self-loop's two updates.  Its ranking solve's
eliminations (`exactlp._eliminate` calls) grow linearly too.
"""

import math

import vassbound.analyzer as analyzer_mod
from vassbound import Vass, analyze, exactlp
from vassbound.analyzer import POLYNOMIAL

RING_SIZES = (250, 500, 1000)


def long_ring(states: int) -> Vass:
    steps = [(f"q{i}", (-1, 0) if i % 2 == 0 else (0, -1), f"q{(i + 1) % states}")
             for i in range(states)]
    loops = [(f"q{i}", (1, -1), f"q{i}") for i in range(0, states, 7)]
    return Vass.from_triples(["x", "y"], steps + loops)


def test_long_ring_work_is_linear(monkeypatch):
    """Per ring size, the stored column entries of the one layer system
    that `analyze` builds, and its `_eliminate` calls."""
    build, eliminate = analyzer_mod.build_extended_system, exactlp._eliminate
    entries, eliminations = [], []

    def built(*args):
        sys = build(*args)
        entries.append(sum(map(len, sys.columns)))
        return sys

    def counted(*args):
        eliminations[-1] += 1
        return eliminate(*args)

    monkeypatch.setattr(analyzer_mod, "build_extended_system", built)
    monkeypatch.setattr(exactlp, "_eliminate", counted)
    for states in RING_SIZES:
        eliminations.append(0)
        result = analyze(long_ring(states))
        assert result.report.status == POLYNOMIAL and result.report.complexity_exponent == 1
        assert result.iterations == 1
    assert entries == [3 * s + 2 * math.ceil(s / 7) for s in RING_SIZES] == [822, 1644, 3286]
    assert eliminations == [665, 1326, 2647]
    for counts in (entries, eliminations):
        assert all(1.9 < b / a < 2.1 for a, b in zip(counts, counts[1:]))
