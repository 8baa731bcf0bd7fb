"""Orders of growth, pinned by exact work counts.

A family of models is analyzed at three sizes, each twice the last, while
module-level wrappers count deterministic work.  The counts are pinned
exactly, and so is their order of growth: a count that grows linearly
about doubles from one size to the next, a quadratic one about
quadruples, so a quadratic wall shows here long before any timing would.
Nothing is timed, so nothing is flaky.

The long ring (`conftest.long_ring`, S states in one cycle with a
self-loop on every 7th) is polynomial with exponent 1 and takes one
iteration.  Its layer system stores only the non-zeros of each
transition's column: a step's one update and its two flow entries, a
self-loop's two updates.  Its ranking solve's eliminations
(`exactlp._eliminate` calls) grow linearly too, and so do the state
lookups of its covering cycle's BFS, which stops at each greedy step's
goal level instead of searching the whole ring.

`v_family(nu)` has layer trees 2^nu - 1 layers deep, but skipping the
layers where nothing changes keeps its iterations, (nu^2 + nu + 2) / 2,
and tree nodes, (3 nu^2 + nu + 2) / 2, quadratic in nu.
"""

import math

import vassbound.analyzer as analyzer_mod
import vassbound.witness as witness_mod
from conftest import log_calls, long_ring, v_family
from vassbound import analyze, covering_cycle, exactlp
from vassbound.analyzer import POLYNOMIAL

RING_SIZES = (250, 500, 1000)


def test_long_ring_work_is_linear(monkeypatch):
    """Per ring size, the stored column entries of the one layer system
    that `analyze` builds, and its `_eliminate` calls."""
    eliminate, eliminations = exactlp._eliminate, []

    def counted(*args):
        eliminations[-1] += 1
        return eliminate(*args)

    built = log_calls(monkeypatch, analyzer_mod, "build_extended_system")
    monkeypatch.setattr(exactlp, "_eliminate", counted)
    for states in RING_SIZES:
        eliminations.append(0)
        result = analyze(long_ring(states))
        assert result.report.status == POLYNOMIAL and result.report.complexity_exponent == 1
        assert result.iterations == 1
    entries = [sum(map(len, sys.columns)) for _, sys in built]
    assert entries == [3 * s + 2 * math.ceil(s / 7) for s in RING_SIZES] == [822, 1644, 3286]
    assert eliminations == [665, 1326, 2647]
    for counts in (entries, eliminations):
        assert all(1.9 < b / a < 2.1 for a, b in zip(counts, counts[1:]))


def test_long_ring_covering_cycle_bfs_is_linear(monkeypatch):
    """Per ring size, the state lookups in the out-edge index that
    `covering_cycle` makes."""
    out_edges, lookups = witness_mod._out_edges, []

    class Counted(dict):
        def __getitem__(self, state):
            lookups[-1] += 1
            return super().__getitem__(state)

    monkeypatch.setattr(witness_mod, "_out_edges", lambda v: Counted(out_edges(v)))
    for states in RING_SIZES:
        lookups.append(0)
        ring = long_ring(states)
        # One lap, one self-loop at a time seven steps apart, then home.
        assert covering_cycle(ring).instances() == {
            t.tid: 1 if t.src == t.dst else 2 for t in ring.transitions}
    assert lookups == [781, 1569, 3137]
    assert all(1.9 < b / a < 2.1 for a, b in zip(lookups, lookups[1:]))


def test_v_family_analysis_size():
    """Per nu, the iterations, tree nodes and deepest layer of `analyze`."""
    sizes = []
    for nu in (4, 8, 12):
        result = analyze(v_family(nu))
        sizes.append((result.iterations, len(result.tree.nodes), result.tree.max_layer()))
        assert 2 * result.iterations == nu ** 2 + nu + 2
        assert 2 * len(result.tree.nodes) == 3 * nu ** 2 + nu + 2
        assert result.tree.max_layer() == 2 ** nu - 1
    assert sizes == [(11, 27, 15), (37, 101, 255), (79, 223, 4095)]
