"""The witness path as a repetition program: every node's summary against
its flat expansion, the dump against the lazy steps, construction and dump
without per-layer recursion, scale parameters far beyond any flat path, a
dump streamed in bounded pieces, and the work one witness build and one
dump do."""

import inspect
import sys
import tracemalloc
from collections import Counter
from itertools import chain

import pytest

from vassbound import (InternalInvariantError, PrePath, VassError, analyze, build_witness,
                       verify_witness)
from vassbound.analyzer import POLYNOMIAL
from vassbound.model import Path
from vassbound.witness import Leaf, Repeat, _Builder
from conftest import load_sample, prepath_steps, suite_models, v_family


def _nodes(program):
    """Every node of the program once (leaves are shared between parts)."""
    seen, stack = {}, [program]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, Repeat):
                stack.extend(node.parts)
    return list(seen.values())


def _flat(node):
    """The node's steps, expanded by this test's own recursion."""
    if isinstance(node, Repeat):
        return list(chain.from_iterable(map(_flat, node.parts))) * node.count
    assert isinstance(node, Leaf)
    return list(node.path.steps)


def _check_summaries(v, program):
    """Length, net effect, minimal prefix, instance counts, start and end of
    every node, each against a plain walk over the node's flat expansion."""
    nonzero = {t.tid: [(i, c) for i, c in enumerate(t.update) if c] for t in v.transitions}
    for node in _nodes(program):
        steps = _flat(node)
        running, lowest = [0] * v.dimension, [0] * v.dimension
        for t in steps:
            for i, c in nonzero[t.tid]:
                running[i] += c
                if running[i] < lowest[i]:
                    lowest[i] = running[i]
        assert node.length == len(steps)
        assert node.effect == tuple(running)
        assert node.low == tuple(lowest)
        assert node.counts == dict(Counter(t.tid for t in steps))
        if steps:
            assert (node.start, node.end) == (steps[0].src, steps[-1].dst)


def test_summaries_match_flat_expansion():
    cases = []
    for v in suite_models():
        result = analyze(v)
        if result.report.status == POLYNOMIAL:
            cases += [(v, result, n) for n in (1, 2, 3)]
    for nu in range(1, 5):
        v = v_family(nu)
        result = analyze(v)
        cases += [(v, result, n) for n in (1, 2)]
    assert len(cases) == 197
    for v, result, n in cases:
        witness = build_witness(result, n).path  # holds every layer's path
        _check_summaries(v, witness)
        steps = _flat(witness)
        assert all(a.dst == b.src for a, b in zip(steps, steps[1:]))
        assert list(witness.steps) == steps
        builder = _Builder(result, n)
        for layer in range(builder.max_layer + 1):
            reference = PrePath(tuple(prepath_steps(builder, layer)))
            assert builder.path(layer)[1] == reference.summary(v.dimension)


def test_lazy_steps_read_like_a_tuple():
    v = load_sample("running")
    path = build_witness(analyze(v), 2).path
    flat = tuple(path.steps)
    assert len(path.steps) == len(flat) == len(path)
    assert path.steps[:4] == flat[:4]
    assert path.steps[5:40:3] == flat[5:40:3]
    assert path.steps[-1:] == flat[-1:] and path.steps[17:18] == flat[17:18]
    for v, n in ((v_family(3), 3), (v_family(2), 16), (load_sample("running"), 16)):
        witness = build_witness(analyze(v), n)  # the lazy steps do not go through `_text`
        lines = witness.dump(v).splitlines(keepends=True)
        assert lines[2:-2] == [f"{t.tid}\n" for t in witness.path.steps]


def test_lazy_steps_take_an_integer_index():
    v = load_sample("running")
    path = build_witness(analyze(v), 2).path
    flat = tuple(path.steps)
    assert path.steps[0] == flat[0] and path.steps[17] == flat[17]
    assert path.steps[-1] == flat[-1] and path.steps[-len(flat)] == flat[0]
    for index in (len(flat), -len(flat) - 1):
        with pytest.raises(IndexError):
            path.steps[index]


def _predicted_repeats(tree):
    """`Repeat` builds of one witness, from the layer tree alone.  Take
    L = max layer.  A node spanning layers f..l is its own next-layer part at
    layers f..l-1 and has its children as parts at layer l; each part is one
    `Repeat` for every target deeper than that layer.  Each target adds its
    N * k repeat, and the witness one count-1 node."""
    top = tree.max_layer()
    return sum(sum(top - layer for layer in range(node.first_layer, node.last_layer))
               + (top - node.last_layer) * len(node.children)
               for node in tree.nodes) + (top + 1) + 1


def _predicted_leaves(tree):
    """`Leaf` builds of one witness, from the layer tree alone: one cycle
    leaf per node, and the segments of its cut at its children, one more
    than it has children, for each node that ends above the deepest layer."""
    top = tree.max_layer()
    return len(tree.nodes) + sum(len(node.children) + 1
                                 for node in tree.nodes if node.last_layer < top)


def test_witness_build_work_on_the_family(monkeypatch):
    """Program nodes built by `build_witness(analyze(v_family(nu)), 1)` for
    nu = 1..7, pinned and checked against `_predicted_leaves` and
    `_predicted_repeats`: one cycle leaf per node, one build per target
    layer, the pre-path kept as a summary and one cut per node, at its
    children.  A second construction path shows here, without timing."""
    built = Counter()
    for cls in (Leaf, Repeat):
        def counted(self, *args, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    leaves, repeats = [], []
    for nu in range(1, 8):
        built.clear()
        result = analyze(v_family(nu))
        build_witness(result, 1)
        assert built["Leaf"] == _predicted_leaves(result.tree)
        assert built["Repeat"] == _predicted_repeats(result.tree)
        leaves.append(built["Leaf"])
        repeats.append(built["Repeat"])
    assert sum(leaves[:6]) == 441
    assert repeats == [5, 20, 83, 341, 1385, 5585, 22433]


def test_first_layers_partition_the_tree_nodes():
    """`_Builder` takes each node's cycle from the layer the node starts at,
    so the nodes of its distinct first layers must partition the tree, each
    node once: every node of a layer shares its span.  Checked on the
    acceptance suite's 200 models, v_family(1..7) and both samples, with
    skipping on and off."""
    models = [*suite_models(), *map(v_family, range(1, 8)), load_sample("running"),
              load_sample("doubling")]
    trees = [analyze(v, skip_optimization=skip).tree for v in models for skip in (True, False)]
    for tree in trees:
        firsts = sorted({node.first_layer for node in tree.nodes})
        listed = [node.nid for layer in firsts for node in tree.nodes_at(layer)]
        assert sorted(listed) == list(range(len(tree.nodes)))
    assert len(trees) == 418


def _running_leaves():
    """Leaves of single `running.vass` transitions, by id."""
    v = load_sample("running")
    return v, {t.tid: Leaf(Path((t,)), v.dimension) for t in v.transitions}


def test_parts_must_be_adjacent():
    v, leaf = _running_leaves()  # 4 is s2 -> s1, 0 is s1 -> s1, 1 is s2 -> s2
    Repeat(1, [leaf[4], leaf[0]], v.dimension)
    for count in (1, 2):
        with pytest.raises(InternalInvariantError, match="non-adjacent parts in a path"):
            Repeat(count, [leaf[4], leaf[1]], v.dimension)


def test_repeated_parts_must_form_a_cycle():
    v, leaf = _running_leaves()  # 4 is s2 -> s1, 5 is s1 -> s2
    for parts in ([leaf[4]], [leaf[4], leaf[0]]):
        Repeat(1, parts, v.dimension)
        with pytest.raises(InternalInvariantError, match="repeated part of a path is not a cycle"):
            Repeat(2, parts, v.dimension)
    assert Repeat(3, [leaf[4], leaf[5]], v.dimension).length == 6


def test_witness_dump_work_on_the_family(monkeypatch):
    """`Leaf.text` reads while dumping `v_family(1..4)` at N = 2 and
    `samples/running.vass` at N = 8, pinned: each repeated body shorter than
    a piece is rendered once and multiplied, not expanded leaf by leaf."""
    cases = [(v_family(nu), 2) for nu in range(1, 5)] + [(load_sample("running"), 8)]
    witnesses = [(v, build_witness(analyze(v), n)) for v, n in cases]
    slot, reads = Leaf.text, []

    def counted(self):
        reads[-1] += 1
        return slot.__get__(self, Leaf)
    monkeypatch.setattr(Leaf, "text", property(counted))
    for v, witness in witnesses:
        reads.append(0)
        for _ in witness.chunks(v):
            pass
    assert reads == [5, 27, 112, 13595, 15]


def test_deep_family_needs_no_recursion_per_layer():
    """The 63-layer `v_family(6)` at N = 1 builds, verifies and dumps, and
    `v_family(4)` at N = 2 (11.8 MB, streamed and only measured) dumps, under
    a recursion limit far below the number of layers."""
    cases = [(v_family(6), 1), (v_family(4), 2)]
    results = [analyze(v) for v, _ in cases]
    assert results[0].tree.max_layer() == 63
    limit, runs = sys.getrecursionlimit(), []
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        for (v, n), result in zip(cases, results):
            witness = build_witness(result, n)
            runs.append((witness, verify_witness(v, witness, result.report),
                         [len(chunk) for chunk in witness.chunks(v)]))
    finally:
        sys.setrecursionlimit(limit)
    for witness, verification, sizes in runs:
        assert verification.passed, verification.dump()
        assert sum(sizes[1:-1]) == sum(  # the step lines, from the instance counts
            c * len(f"{tid}\n") for tid, c in witness.path.counts.items())
    assert sum(runs[0][2]) == len(runs[0][0].dump(cases[0][0]))
    assert sum(runs[1][2]) == 11_777_878


def test_million_fold_scale_builds_and_verifies():
    """N = 10**6: about 2 * 10**19 steps, far beyond any flat path; only
    the program's summaries are read."""
    v = load_sample("running")
    result = analyze(v)
    n = 10 ** 6
    witness = build_witness(result, n)
    verification = verify_witness(v, witness, result.report)
    assert verification.passed, verification.dump()
    names = {c.name for c in verification.checks}
    assert {f"instances[{t.tid}]" for t in v.transitions} <= names
    assert {f"final[{x}]" for x in v.variables} <= names
    assert witness.path.length > 10 ** 19
    for tid, e in result.report.transition_exponents.items():
        assert witness.path.counts[tid] >= n ** e
    for x, e in result.report.variable_exponents.items():
        assert witness.final[x] >= n ** e


def test_len_past_sys_maxsize_names_the_length():
    """`len()` returns at most sys.maxsize.  Past it, a program raises
    VassError naming `.length`, which stays exact."""
    witness = build_witness(analyze(load_sample("running")), 10 ** 6)
    assert witness.path.length == 20_000_260_000_180_000_000 > sys.maxsize
    for program in (witness.path, witness.path.steps):
        with pytest.raises(VassError, match=r"20000260000180000000 steps .*\.length"):
            len(program)


def _streamed_peak(v, result, n):
    witness = build_witness(result, n)
    tracemalloc.start()
    try:
        for _ in witness.chunks(v):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_dump_memory_does_not_grow_with_n():
    v = load_sample("running")
    result = analyze(v)
    small, large = _streamed_peak(v, result, 8), _streamed_peak(v, result, 64)
    assert large < 2 * small, (small, large)
