"""Witness layer: cycle extraction, path construction, verification,
and exponential certificates."""

import dataclasses
import random
from collections import Counter

import pytest

from vassbound import (
    InternalInvariantError,
    Path,
    PrePath,
    Valuation,
    Vass,
    analyze,
    build_witness,
    check_certificate,
    choose_k,
    covering_cycle,
    execute_path,
    exponential_certificate,
    min_initial_valuation,
    node_cycles,
    verify_witness,
)
from vassbound.witness import Repeat, WitnessPath, _Builder, _euler_cycle
from vassbound.model import VassError
from conftest import (
    load_sample, long_ring, perturbed_batch, prepath_steps, random_connected_vass, suite_models,
    v_family, without_deep_recursion,
)

# The per-layer multi-cycle solution worked out by hand for the running
# example's first iteration: one unit of each boundary move, four pump
# steps per loop pair, total update (0, 0, 2).
HAND_MU = {0: 1, 1: 4, 2: 4, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 0, 9: 0}


class TestMultiCycleExtraction:
    # HAND_MU's two components: its support splits into these two SCCs.
    COMPONENTS = (("s1", (0, 1, 4, 5)), ("s3", (2, 3, 6, 7)))

    def hand_cycles(self, v):
        return [Path(tuple(_euler_cycle(start, [v.transition(tid) for tid in tids], HAND_MU)))
                for start, tids in self.COMPONENTS]

    def test_hand_solution_gives_two_cycles(self, v_run):
        cycles = self.hand_cycles(v_run)
        assert all(c.is_cycle for c in cycles)
        by_start = {c.start: c for c in cycles}
        assert dict(by_start["s1"].instances()) == {0: 1, 1: 4, 4: 1, 5: 1}
        assert dict(by_start["s3"].instances()) == {2: 4, 3: 1, 6: 1, 7: 1}
        assert tuple(map(sum, zip(*(c.value(3) for c in cycles)))) == (0, 0, 2)

    def test_single_self_loop(self):
        v = Vass.from_triples(["x"], [("s1", (1,), "s1")])
        assert _euler_cycle("s1", v.transitions, {0: 1}) == list(v.transitions)

    def test_counts_match_exactly(self, v_run):
        instances = sum((c.instances() for c in self.hand_cycles(v_run)), Counter())
        assert dict(instances) == {t: c for t, c in HAND_MU.items() if c}

    def test_euler_order_takes_lower_ids_first_and_consecutively(self):
        """At each state the walk takes the copies of the lowest-id edge left
        first: a -> b -> a twice, then a -> c -> a, where it is stuck.  The
        edges left over (b's three self-loops, in a row) are spliced in at
        the last visit to b, as Hierholzer's algorithm backs up."""
        v = Vass.from_triples(["x"], [("a", (0,), "b"), ("b", (0,), "a"), ("a", (0,), "c"),
                                      ("c", (0,), "a"), ("b", (0,), "b")])
        circuit = _euler_cycle("a", v.transitions[::-1], {0: 2, 1: 2, 2: 1, 3: 1, 4: 3})
        assert [t.tid for t in circuit] == [0, 1, 0, 4, 4, 4, 1, 2, 3]

    def test_euler_rejects_a_support_in_two_pieces(self):
        v = Vass.from_triples(["x"], [("a", (0,), "b"), ("b", (0,), "a"),
                                      ("c", (0,), "d"), ("d", (0,), "c")])
        with pytest.raises(InternalInvariantError, match="not connected on its support"):
            _euler_cycle("a", v.transitions, {0: 1, 1: 1, 2: 1, 3: 1})

    def test_long_ring_and_large_counts_need_no_recursion(self):
        n = 5000
        states = [f"q{i:04d}" for i in range(n)]
        ring = Vass.from_triples(["x"], [(states[i], (1,), states[(i + 1) % n]) for i in range(n)])
        circuit = without_deep_recursion(_euler_cycle, "q0000", ring.transitions,
                                         {t.tid: 1 for t in ring.transitions})
        assert tuple(circuit) == ring.transitions
        pair = Vass.from_triples(["x"], [("a", (1,), "b"), ("b", (-1,), "a")])
        circuit = without_deep_recursion(_euler_cycle, "a", pair.transitions,
                                         {0: 100_000, 1: 100_000})
        assert tuple(circuit) == pair.transitions * 100_000


class TestCoveringCycle:
    def test_covers_every_transition(self, v_run):
        cycle = covering_cycle(v_run)
        assert cycle.is_cycle
        counts = cycle.instances()
        assert all(counts[t.tid] >= 1 for t in v_run.transitions)

    def test_deterministic(self, v_run):
        assert covering_cycle(v_run).steps == covering_cycle(v_run).steps

    def test_empty_vass(self):
        v = Vass.from_triples(["x"], [], extra_states=["s1"])
        cycle = covering_cycle(v)
        assert len(cycle) == 0 and cycle.start == "s1"


def _reference_connection(v, src, dst):
    """BFS path from src to dst over all transitions, per query."""
    if src == dst:
        return []
    parent = {}
    frontier = [src]
    seen = {src}
    while frontier:
        nxt = []
        for s in frontier:
            for t in v.transitions:
                if t.src == s and t.dst not in seen:
                    seen.add(t.dst)
                    parent[t.dst] = t
                    if t.dst == dst:
                        steps = []
                        cur = dst
                        while cur != src:
                            steps.append(parent[cur])
                            cur = parent[cur].src
                        return list(reversed(steps))
                    nxt.append(t.dst)
        frontier = nxt
    return None


def _reference_covering_steps(v):
    """The covering cycle's steps with one BFS per unused transition per
    greedy step, or None where no covering cycle exists."""
    start = v.states[0]
    unused = {t.tid: t for t in v.transitions}
    steps = []
    current = start
    while unused:
        best = None
        for t in sorted(unused.values(), key=lambda t: t.tid):
            hop = _reference_connection(v, current, t.src)
            if hop is not None and (best is None or (len(hop), t.tid) < best[0]):
                best = ((len(hop), t.tid), hop, t)
        if best is None:
            return None
        _, hop, t = best
        steps.extend(hop)
        steps.append(t)
        for h in hop + [t]:
            unused.pop(h.tid, None)
        current = t.dst
    back = _reference_connection(v, current, start)
    return None if back is None else tuple(steps + back)


def _covering_models():
    models = [*suite_models(), load_sample("running"), load_sample("doubling")]
    models += [v_family(k) for k in range(1, 5)]
    # Rings make long hops; perturbed families put several unused sources
    # in one BFS level.
    models += [long_ring(states) for states in (20, 40, 60)]
    models += perturbed_batch(7, 100)
    # Not strongly connected: s2 cannot get back to s1.
    models.append(Vass.from_triples(["x"], [("s1", (1,), "s2"), ("s2", (0,), "s2")]))
    return models


def test_covering_cycle_matches_per_transition_bfs():
    for v in _covering_models():
        expected = _reference_covering_steps(v)
        if expected is None:
            with pytest.raises(VassError, match="not connected"):
                covering_cycle(v)
        else:
            assert covering_cycle(v).steps == expected


def test_covering_cycle_stops_where_no_unused_transition_is_reachable():
    # From s1 the greedy walk cannot reach s2's loop: it raises with that
    # loop still unused, before any closing walk.
    v = Vass.from_triples(["x"], [("s1", (0,), "s1"), ("s2", (0,), "s2")])
    with pytest.raises(VassError) as caught:
        covering_cycle(v)
    assert str(caught.value) == "VASS is not connected; no covering cycle exists"
    assert caught.traceback[-1].locals["unused"] == {1}


class TestNodeCycles:
    def test_layer_zero_is_covering_cycle(self, v_run):
        result = analyze(v_run)
        cycles = node_cycles(result.tree, 0, result.archive, v_run)
        counts = cycles[0].instances()
        assert all(counts[t.tid] >= 1 for t in v_run.transitions)

    def test_layer_one_matches_archived_solution(self, v_run):
        result = analyze(v_run)
        cycles = node_cycles(result.tree, 1, result.archive, v_run)
        mu = result.archive[0].mu
        for node in result.tree.nodes_at(1):
            expected = {t.tid: mu[t.tid] for t in node.vass.transitions}
            assert dict(cycles[node.nid].instances()) == expected
            assert cycles[node.nid].start == node.vass.states[0]

    def test_deepest_layer_single_loops(self, v_run):
        result = analyze(v_run)
        cycles = node_cycles(result.tree, 2, result.archive, v_run)
        assert len(cycles) == 4
        for node in result.tree.nodes_at(2):
            assert set(t.tid for t in cycles[node.nid].steps) == \
                {t.tid for t in node.vass.transitions}

    @staticmethod
    def with_layer_one_counts(v, change):
        """node_cycles at layer 1 of v, with the layer's counts (tid -> count)
        replaced by `change(counts)` in a copy of its record, and those counts."""
        result = analyze(v)
        rec = result.archive[0]
        assert rec.layer == 1
        counts = change(dict(rec.mu))
        joint = tuple(counts[tid] for tid in rec.u)
        archive = [dataclasses.replace(rec, joint=lambda: joint)] + result.archive[1:]
        return node_cycles(result.tree, 1, archive, v), counts

    @pytest.mark.parametrize("change", [
        lambda mu: {**mu, 1: 0},
        lambda mu: {**mu, 4: mu[4] + 1},
        lambda mu: {**mu, 5: mu[5] - 2},
    ], ids=["self-loop-to-zero", "unbalanced", "move-to-zero"])
    def test_counts_not_positive_and_balanced_are_rejected(self, v_run, change):
        with pytest.raises(InternalInvariantError, match="not positive and balanced"):
            self.with_layer_one_counts(v_run, change)

    def test_balanced_change_on_a_self_loop_builds(self, v_run):
        cycles, counts = self.with_layer_one_counts(v_run, lambda mu: {**mu, 0: mu[0] + 3})
        for node in analyze(v_run).tree.nodes_at(1):
            cycle = cycles[node.nid]
            assert cycle.is_cycle and cycle.start == node.vass.states[0]
            assert dict(cycle.instances()) == {t.tid: counts[t.tid] for t in node.vass.transitions}

    def test_node_transitions_have_positive_counts(self):
        """Below the root, each transition of a node counts at least 1 in the
        record of the node's first layer: it survived that layer's ranking,
        and the joint solve tightens every survivor's mu(t) >= 1.  So no
        node's cycle is empty."""
        models = [*suite_models(), load_sample("running"), load_sample("doubling")]
        models += [v_family(k) for k in range(1, 7)]
        checked = 0
        for v in models:
            result = analyze(v)
            records = {rec.layer: rec for rec in result.archive}
            for node in result.tree.nodes:
                if node.first_layer >= 1:
                    counts = records[node.first_layer].mu
                    assert all(counts.get(t.tid, 0) >= 1 for t in node.vass.transitions)
                    checked += 1
        assert checked > 0


class TestChooseK:
    def test_trivially_executable_gives_one(self, v_run):
        taus = {1: PrePath((), anchor="s1").summary(v_run.dimension)[1]}
        assert choose_k(taus, {"x": 1, "y": 1, "z": 2}, v_run, 3) == 1

    def test_arithmetic_example(self):
        # A pre-path with pointwise-minimal start (0, 4, 1) at layer 1 and
        # N = 2 needs k = max(ceil(0/2), ceil(4/2), ceil(1/2)) = 2.
        v = Vass.from_triples(["a", "b", "c"], [("s1", (0, -4, -1), "s1")])
        tau = PrePath((v.transitions[0],))
        assert min_initial_valuation(v, tau) == {"a": 0, "b": 4, "c": 1}
        k = choose_k({1: tau.summary(v.dimension)[1]}, {"a": 1, "b": 1, "c": 2}, v, 2)
        assert k == 2

    def test_constant_across_scales(self, v_run, v2):
        for v in (v_run, v2):
            result = analyze(v)
            ks = {build_witness(result, n).k for n in range(2, 9)}
            assert len(ks) == 1


class TestBuildWitness:
    def test_running_example_thresholds(self, v_run):
        result = analyze(v_run)
        w = build_witness(result, 3)
        verification = verify_witness(v_run, w, result.report)
        assert verification.passed, verification.dump()
        for tid in (0, 1, 2, 3):
            assert w.path.counts[tid] >= 27
        for tid in (4, 5, 6, 7):
            assert w.path.counts[tid] >= 9
        assert w.path.counts[8] >= 3 and w.path.counts[9] >= 3
        assert w.final["z"] >= 9

    def test_scale_one_is_trivially_covering(self, v_run):
        result = analyze(v_run)
        w = build_witness(result, 1)
        assert verify_witness(v_run, w, result.report).passed
        assert all(w.path.counts[t.tid] >= 1 for t in v_run.transitions)

    def test_second_block_loop_quartic(self, v2):
        result = analyze(v2)
        w = build_witness(result, 2)
        loop_ids = [t.tid for t in v2.transitions
                    if t.src == t.dst == "s21"]
        assert w.path.counts[loop_ids[0]] >= 2 ** 4

    def test_rejects_exponential_input(self, doubling):
        with pytest.raises(VassError, match="only for polynomial status"):
            build_witness(analyze(doubling), 3)

    def test_rejects_non_positive_scale(self, v_run):
        with pytest.raises(VassError, match="scale parameter must be >= 1"):
            build_witness(analyze(v_run), 0)

    def test_dump_format(self, v_run):
        result = analyze(v_run)
        w = build_witness(result, 2)
        lines = w.dump(v_run).splitlines()
        assert lines[0] == f"witness N=2 k={w.k}"
        assert lines[1].startswith("init ")
        assert lines[-2].startswith("instances ")
        assert lines[-1].startswith("final ")
        ids = [int(s) for s in lines[2:-2]]
        assert len(ids) == len(w.path)


class TestVerifyWitness:
    def test_starved_initial_fails_execution(self, v_run):
        result = analyze(v_run)
        w = build_witness(result, 2)
        starved = dict(w.initial)
        starved["z"] = 0
        broken = WitnessPath(w.n, w.k, w.path, Valuation(starved), w.final, w.envelope)
        verification = verify_witness(v_run, broken, result.report)
        assert not verification.passed
        assert any(c.name == "executes" and not c.passed
                   for c in verification.checks)

    def test_truncated_path_fails_instance_threshold(self, v_run):
        result = analyze(v_run)
        w = build_witness(result, 2)
        stub = Path(w.path.steps[:4], anchor=w.path.anchor)
        final = execute_path(v_run, w.initial, stub)
        broken = WitnessPath(w.n, w.k, stub, w.initial, final, w.envelope)
        verification = verify_witness(v_run, broken, result.report)
        failed = [c.name for c in verification.checks if not c.passed]
        assert any(name.startswith("instances[") for name in failed)


class TestLayerPrePaths:
    def check_tau_properties(self, v, n):
        result = analyze(v)
        builder = _Builder(result, n)
        vexp = result.report.variable_exponents
        for layer in range(1, builder.max_layer + 1):
            tau = PrePath(tuple(prepath_steps(builder, layer)) * n)
            counts = tau.instances()
            for node in result.tree.nodes_at(layer):
                for t in node.vass.transitions:
                    assert counts[t.tid] >= n ** (layer + 1)
            value = tau.value(v.dimension)
            for i, x in enumerate(v.variables):
                if vexp[x] <= layer:
                    assert value[i] >= 0
                else:
                    assert value[i] >= n ** (layer + 1)

    def test_tau_properties_running_example(self, v_run):
        for n in (2, 3):
            self.check_tau_properties(v_run, n)

    def test_tau_properties_family(self, v2):
        for n in (2, 3):
            self.check_tau_properties(v2, n)

    def test_interleaving_preserves_instance_counts(self, v_run):
        result = analyze(v_run)
        builder = _Builder(result, 3)

        def path(layer):
            return PrePath(tuple(Repeat(1, builder.path(layer)[0], v_run.dimension).steps))

        for layer in range(1, builder.max_layer + 1):
            merged = path(layer)
            parts = PrePath(tuple(prepath_steps(builder, layer)))
            previous = path(layer - 1)
            assert merged.instances() == parts.instances() + previous.instances()

    def test_repeated_prepath_executes_from_scaled_valuation(self, v_run):
        result = analyze(v_run)
        builder = _Builder(result, 2)
        sigma = PrePath(tuple(prepath_steps(builder, 1)))
        base = min_initial_valuation(v_run, sigma)
        value = sigma.value(v_run.dimension)
        for d in (1, 2, 3):
            scaled = {x: (base[x] if value[i] >= 0 else d * base[x])
                      for i, x in enumerate(v_run.variables)}
            repeated = PrePath(sigma.steps * d, anchor=sigma.anchor)
            assert execute_path(v_run, Valuation(scaled), repeated) is not None


class TestRandomWitnesses:
    def test_random_polynomial_systems_all_verify(self):
        rng = random.Random(31337)
        verified = 0
        sampled = 0
        while verified < 40 and sampled < 2000:
            sampled += 1
            v = random_connected_vass(rng)
            result = analyze(v)
            if result.report.status != "polynomial":
                continue
            verified += 1
            for n in (1, 2, 3):
                w = build_witness(result, n)
                verification = verify_witness(v, w, result.report)
                assert verification.passed, verification.dump()
        assert verified == 40

    def test_deep_family_with_virtual_layer(self):
        from conftest import v_family

        v = v_family(3)
        result = analyze(v)
        # The deepest bound lands at layer 8, one relevant layer is skipped.
        assert result.tree.max_layer() == 7
        for n in (2, 3):
            w = build_witness(result, n)
            assert verify_witness(v, w, result.report).passed
        loop_ids = [t.tid for t in v.transitions if t.src == t.dst == "s31"]
        assert w.path.counts[loop_ids[0]] >= 3 ** 8

    def test_random_exponential_systems_have_valid_certificates(self):
        rng = random.Random(777000)
        checked = 0
        sampled = 0
        while checked < 40 and sampled < 2000:
            sampled += 1
            v = random_connected_vass(rng)
            result = analyze(v)
            if result.report.status != "exponential":
                continue
            checked += 1
            cert = exponential_certificate(result)
            assert check_certificate(v, cert) is None
        assert checked == 40


class TestExponentialCertificate:
    def test_doubling_certificate(self, doubling):
        result = analyze(doubling)
        cert = exponential_certificate(result)
        assert cert.bounded == ()
        assert cert.growing == ("x", "y")
        totals = [0, 0]
        for c in cert.cycles:
            for i, val in enumerate(c.value(2)):
                totals[i] += val
        assert totals[0] >= 1 and totals[1] >= 1
        assert check_certificate(doubling, cert) is None

    def test_terminating_exponential_sample_certificate(self):
        v = load_sample("terminating_exponential")
        cert = exponential_certificate(analyze(v))
        assert (cert.bounded, cert.growing) == (("z",), ("x", "y"))
        assert check_certificate(v, cert) is None

    def test_tampered_certificate_detected(self, doubling):
        result = analyze(doubling)
        cert = exponential_certificate(result)
        # A cycle that drains x cannot serve a certificate that calls x
        # bounded, and a zero-gain set cannot be called growing.
        drain = Path((doubling.transition(0),))  # value (-1, 2)
        bad_bounded = type(cert)((drain,), ("x",), ("y",))
        assert "decreases" in check_certificate(doubling, bad_bounded)
        zero = Path((doubling.transition(2), doubling.transition(3)))
        no_gain = type(cert)((zero,), ("x",), ("y",))
        assert "grow" in check_certificate(doubling, no_gain)
        partition = "bounded/growing sets do not partition the variables"
        bad_partition = type(cert)(cert.cycles, ("x",), ("x", "y"))
        assert check_certificate(doubling, bad_partition) == partition
        missing = type(cert)(cert.cycles, ("x",), ())
        assert check_certificate(doubling, missing) == partition
        move = Path((doubling.transition(2),))  # s1 -> s2
        not_a_cycle = type(cert)((move,), (), ("x", "y"))
        assert check_certificate(doubling, not_a_cycle) == "certificate member is not a cycle"

    def test_zero_loop_certificate_has_empty_growing_set(self):
        v = Vass.from_triples(["x"], [("s1", (0,), "s1"), ("s1", (-1,), "s1")])
        result = analyze(v)
        cert = exponential_certificate(result)
        assert cert.growing == ()
        assert cert.bounded == ("x",)
        assert check_certificate(v, cert) is None

    def test_rejects_polynomial_input(self, v_run):
        with pytest.raises(VassError, match="only for exponential status"):
            exponential_certificate(analyze(v_run))

    def test_dump_format(self, doubling):
        cert = exponential_certificate(analyze(doubling))
        lines = cert.dump().splitlines()
        assert lines[0] == "exponential-certificate"
        assert lines[1] == "U: "
        assert lines[2] == "W: x y"
        assert lines[3].startswith("cycle: s1 ")
