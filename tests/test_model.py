"""Model layer: parsing, the extended system's matrices, SCCs, and execution
semantics."""

import random
import time

import pytest

from vassbound import (
    LayerTree,
    Path,
    PrePath,
    Transition,
    Valuation,
    Vass,
    VassError,
    VassSyntaxError,
    analyze,
    build_extended_system,
    execute_path,
    min_initial_valuation,
    parse_vass,
    scc_decompose,
    serialize_vass,
    unconnected_pair,
    validate_connected,
)
from conftest import SAMPLES, dense, random_connected_vass, without_deep_recursion

# Update and flow matrices of the running example's first iteration, rows
# x/y/z resp. s1..s4, columns in file order.
EXPECTED_D = (
    (-1, 1, -1, 1, 0, 0, 0, 0, -1, 0),
    (1, -1, 1, -1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 1, -1, -1, -1, -1, -1, 0, 0),
)
EXPECTED_F = (
    (0, 0, 0, 0, 1, -1, 0, 0, -1, 0),
    (0, 0, 0, 0, -1, 1, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 1, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0, -1),
)


def first_system(v):
    """The first iteration's extended system: every transition alive, one
    root copy per variable."""
    tree = LayerTree()
    tree.add(v, None, 0)
    return build_extended_system(v, tree, 1, {x: None for x in v.variables})


def replayed_systems(v):
    """Every executed iteration's extended system, rebuilt from the archive."""
    result = analyze(v)
    vexp = {x: None for x in v.variables}
    for record in result.archive:
        sys = build_extended_system(v, result.tree, record.layer, vexp)
        assert tuple(t.tid for t in sys.transitions) == record.u
        yield sys
        for x in record.new_variable_bounds:
            vexp[x] = record.layer


def column(rows, j):
    return tuple(row[j] for row in rows)


def path_of(v, tids, anchor=None):
    return Path(tuple(v.transition(t) for t in tids), anchor=anchor)


class TestParsing:
    def test_running_example(self, v_run):
        assert v_run.dimension == 3
        assert v_run.states == ("s1", "s2", "s3", "s4")
        assert len(v_run.transitions) == 10
        assert v_run.transitions[0].update == (-1, 1, -1)
        assert v_run.transitions[9].triple() == ("s4", (0, 0, 0), "s2")

    def test_vars_only(self):
        v = parse_vass("vars x\n")
        assert v.dimension == 1
        assert v.states == ()
        assert v.transitions == ()

    def test_duplicate_transition_rejected(self):
        text = "vars x\ns1 -> s2 : 1\ns1 -> s2 : 1\n"
        with pytest.raises(VassSyntaxError, match="duplicate transition"):
            parse_vass(text)

    def test_parallel_transitions_with_different_updates_allowed(self):
        v = parse_vass("vars x\ns1 -> s2 : 1\ns1 -> s2 : 2\n")
        assert len(v.transitions) == 2

    def test_duplicate_variable_rejected(self):
        with pytest.raises(VassSyntaxError, match="duplicate variable"):
            parse_vass("vars x x\n")

    def test_arity_mismatch(self):
        with pytest.raises(VassSyntaxError, match="expected 2 updates"):
            parse_vass("vars x y\ns1 -> s2 : 1\n")

    def test_unknown_relation_token(self):
        err = None
        try:
            parse_vass("vars x\ns1 => s2 : 1\n")
        except VassSyntaxError as e:
            err = e
        assert err is not None and "unknown relation token" in str(err)
        assert err.line == 2 and err.column == 4

    @pytest.mark.parametrize("text, message, line, column", [
        ("vars x y x\n", "duplicate variable 'x'", 1, 10),
        ("vars\tx\x1fy \tx\n", "duplicate variable 'x'", 1, 11),
        ("vars x y z\ns -> s : 1 1 1x\n", "bad integer '1x'", 2, 14),
        ("vars x y\ns -> s : 11 1x\n", "bad integer '1x'", 2, 13),
        ("vars x\ns -> s -> 1\n", "expected ':' before updates, got '->'", 2, 8),
    ])
    def test_error_columns_with_repeated_tokens(self, text, message, line, column):
        # A repeated token is placed at its own occurrence, not at an earlier one.
        with pytest.raises(VassSyntaxError) as caught:
            parse_vass(text)
        assert (str(caught.value), caught.value.line, caught.value.column) == \
            (f"line {line}, column {column}: {message}", line, column)

    @pytest.mark.parametrize("text, message, line, column", [
        ("", "missing 'vars' declaration", 1, 1),
        ("# only a comment\n", "missing 'vars' declaration", 1, 1),
        ("vars  # nothing declared\n", "at least one variable required", 1, 5),
        ("vars x 1y\n", "bad variable name '1y'", 1, 8),
        ("vars x\n1s -> s2 : 1\n", "bad state name '1s'", 2, 1),
        ("vars x\ns1 -> 2s : 1\n", "bad state name '2s'", 2, 7),
        ("vars x\ns1 -> s2\n", "expected '<src> -> <dst> : <updates>'", 2, 1),
        ("vars x\ns1 -> s1 : \u0663\n", "bad integer '\u0663'", 2, 12),
        ("vars x\ns1 -> s2 : -\uff11\n", "bad integer '-\uff11'", 2, 12),
    ], ids=["empty", "comment-only", "vars-alone", "variable-name", "source-name",
            "target-name", "short-line", "arabic-indic-digit", "fullwidth-digit"])
    def test_error_message_and_position(self, text, message, line, column):
        # Integers are ASCII digits only: `int` alone would read other
        # Unicode decimal digits too.
        with pytest.raises(VassSyntaxError) as caught:
            parse_vass(text)
        assert (str(caught.value), caught.value.line, caught.value.column) == \
            (f"line {line}, column {column}: {message}", line, column)

    def test_bad_integer(self):
        with pytest.raises(VassSyntaxError, match="bad integer"):
            parse_vass("vars x\ns1 -> s2 : one\n")

    def test_missing_colon(self):
        with pytest.raises(VassSyntaxError, match="expected ':'"):
            parse_vass("vars x\ns1 -> s2 1\n")

    def test_missing_vars_line(self):
        with pytest.raises(VassSyntaxError, match="expected 'vars'"):
            parse_vass("s1 -> s2 : 1\n")

    def test_comments_and_blank_lines_ignored(self, v_run):
        noisy = "\n# header\n\n" + (SAMPLES / "running.vass").read_text().replace(
            "s1 -> s2 : 0 0 -1", "s1 -> s2 : 0 0 -1  # mid comment")
        assert parse_vass(noisy) == v_run

    def test_serialize_is_canonical_fixpoint(self, v_run):
        once = serialize_vass(v_run)
        assert serialize_vass(parse_vass(once)) == once
        assert once.splitlines()[0] == "vars x y z"
        body = once.splitlines()[1:]
        assert body == sorted(body)

    def test_roundtrip_preserves_content_on_randoms(self):
        rng = random.Random(5)
        for _ in range(30):
            v = random_connected_vass(rng)
            w = parse_vass(serialize_vass(v))
            assert w.variables == v.variables
            assert w.states == v.states
            assert sorted(t.triple() for t in w.transitions) == \
                sorted(t.triple() for t in v.transitions)


class TestVassChecks:
    @pytest.mark.parametrize("variables, states, transitions, message", [
        (("x", "x"), (), (), "duplicate variable names"),
        (("x",), ("s", "s"), (), "duplicate state names"),
        (("x",), ("t", "s"), (), "states must be sorted"),
        (("x",), ("s",), ((0, "s", (1,), "t"),),
         "transition s -> t : 1 mentions an undeclared state"),
        (("x",), ("s",), ((0, "s", (1, 2), "s"),),
         "transition s -> s : 1 2 has update arity 2, expected 1"),
        (("x",), ("s",), ((0, "s", (1,), "s"), (1, "s", (1,), "s")),
         "duplicate transition s -> s : 1"),
        (("x",), ("s",), ((0, "s", (1,), "s"), (0, "s", (2,), "s")),
         "duplicate transition id 0"),
    ], ids=["variables", "states", "unsorted", "undeclared", "arity", "transition", "id"])
    def test_invalid_model_is_rejected(self, variables, states, transitions, message):
        with pytest.raises(VassError) as caught:
            Vass(variables, states, tuple(Transition(*t) for t in transitions))
        assert str(caught.value) == message


class TestConnectivity:
    def test_running_example_connected(self, v_run):
        assert validate_connected(v_run)

    def test_single_state_vacuous(self):
        v = Vass.from_triples(["x"], [], extra_states=["s1"])
        assert validate_connected(v)

    def test_one_way_edge_not_connected(self):
        v = Vass.from_triples(["x"], [("s1", (0,), "s2")])
        assert not validate_connected(v)
        assert unconnected_pair(v) == ("s1", "s2") or unconnected_pair(v) == ("s2", "s1")

    def test_unconnected_pair_is_the_first_in_state_order(self):
        """The pair is the first state, in sorted order, whose forward reach
        misses a state, and the first state it misses."""
        def reference(v):
            for s in v.states:
                reach, todo = {s}, [s]
                while todo:
                    here = todo.pop()
                    for t in v.transitions:
                        if t.src == here and t.dst not in reach:
                            reach.add(t.dst)
                            todo.append(t.dst)
                missed = [s2 for s2 in v.states if s2 not in reach]
                if missed:
                    return (s, missed[0])
            return None

        rng = random.Random(7)
        outcomes = set()
        for _ in range(300):
            states = [f"q{i}" for i in range(rng.randint(1, 6))]
            triples = {(rng.choice(states), (0,), rng.choice(states))
                       for _ in range(rng.randint(0, 2 * len(states)))}
            v = Vass.from_triples(["x"], sorted(triples), extra_states=states)
            expected = reference(v)
            assert unconnected_pair(v) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_long_ring_needs_no_pairwise_search(self):
        """A 3,000-state ring is found connected by its one component; with
        one edge cut, the pair is still the first in state order."""
        n = 3000
        ring = [(f"q{i:04d}", (0,), f"q{(i + 1) % n:04d}") for i in range(n)]
        assert unconnected_pair(Vass.from_triples(["x"], ring)) is None
        cut = Vass.from_triples(["x"], ring[:1499] + ring[1500:])  # no q1499 -> q1500
        assert unconnected_pair(cut) == ("q0000", "q1500")

    def test_ring_with_a_sink_needs_no_search_per_state(self):
        """Every state of a 3,000-state ring reaches a sink z through a0000,
        so the pair is z and the first ring state.  The state order alone
        would search from each of the 3,000 ring states first."""
        n = 3000
        ring = [(f"a{i:04d}", (0,), f"a{(i + 1) % n:04d}") for i in range(n)]
        v = Vass.from_triples(["x"], ring + [("a0000", (0,), "z")])
        start = time.perf_counter()
        assert unconnected_pair(v) == ("z", "a0000")
        assert time.perf_counter() - start < 0.5


class TestMatrices:
    def test_update_matrix_running_example(self, v_run):
        sys = first_system(v_run)
        assert sys.var_ext == (("x", 0), ("y", 0), ("z", 0))
        assert tuple(t.tid for t in sys.transitions) == tuple(range(10))
        assert dense(sys)[0] == EXPECTED_D

    def test_flow_matrix_running_example(self, v_run):
        sys = first_system(v_run)
        assert sys.states == ("s1", "s2", "s3", "s4")
        assert dense(sys)[1] == EXPECTED_F

    def test_self_loop_column_is_zero(self, v_run):
        sys = first_system(v_run)
        assert column(dense(sys)[1], 0) == (0, 0, 0, 0)

    def test_chain_columns(self):
        v = Vass.from_triples(["x"], [("s1", (1,), "s2"), ("s2", (1,), "s3")])
        sys = first_system(v)
        for tid in (0, 1):
            col = column(dense(sys)[1], tid)
            assert sorted(col) == [-1, 0, 1]

    def test_update_columns_match_declared_updates(self):
        rng = random.Random(6)
        for _ in range(25):
            v = random_connected_vass(rng, max_vars=2)
            sys = first_system(v)
            assert sys.transitions == v.transitions
            d_ext, _ = dense(sys)
            for j, t in enumerate(sys.transitions):
                assert column(d_ext, j) == t.update

    def test_flow_column_property_on_randoms(self):
        rng = random.Random(7)
        for _ in range(25):
            v = random_connected_vass(rng)
            for sys in replayed_systems(v):
                _, flow = dense(sys)
                for j, t in enumerate(sys.transitions):
                    col = column(flow, j)
                    if t.src == t.dst:
                        assert all(c == 0 for c in col)
                    else:
                        assert sorted(col) == [-1] * 1 + [0] * (len(col) - 2) + [1]
                        assert col[sys.states.index(t.src)] == -1
                        assert col[sys.states.index(t.dst)] == 1


class TestSccDecomposition:
    def test_running_example_split(self, v_run):
        kept = [t for t in v_run.transitions if t.tid not in (8, 9)]
        sccs = scc_decompose(v_run.states, kept)
        assert [states for states, _ in sccs] == [("s1", "s2"), ("s3", "s4")]
        assert [tuple(t.tid for t in trans) for _, trans in sccs] == \
            [(0, 1, 4, 5), (2, 3, 6, 7)]

    def test_acyclic_graph_has_no_components(self):
        v = Vass.from_triples(["x"], [("s1", (0,), "s2")])
        assert scc_decompose(v.states, v.transitions) == []

    def test_running_example_intact_is_single_component(self, v_run):
        sccs = scc_decompose(v_run.states, v_run.transitions)
        assert len(sccs) == 1
        assert sccs[0][0] == v_run.states
        assert len(sccs[0][1]) == 10

    def test_component_properties_on_randoms(self):
        rng = random.Random(8)
        for _ in range(40):
            v = random_connected_vass(rng, max_states=5, max_transitions=8)
            drop = {t.tid for t in v.transitions if rng.random() < 0.4}
            kept = [t for t in v.transitions if t.tid not in drop]
            sccs = scc_decompose(v.states, kept)
            seen = set()
            for states, transitions in sccs:
                assert transitions
                assert not (seen & set(states))
                seen.update(states)
                sub = v.restrict(states, transitions)
                assert validate_connected(sub)

    def test_matches_reachability_closure_oracle(self):
        # Independent definition: states are equivalent when each reaches
        # the other; a class is kept when it has an internal transition.
        def closure_sccs(states, transitions):
            states = sorted(set(states))
            reach = {s: {s} for s in states}
            changed = True
            while changed:
                changed = False
                for t in transitions:
                    for s in states:
                        if t.src in reach[s] and t.dst not in reach[s]:
                            reach[s].add(t.dst)
                            changed = True
            classes = []
            for s in states:
                comp = tuple(sorted(u for u in states
                                    if u in reach[s] and s in reach[u]))
                internal = tuple(t for t in sorted(transitions,
                                                   key=lambda t: t.tid)
                                 if t.src in comp and t.dst in comp)
                if internal and comp not in [c for c, _ in classes]:
                    classes.append((comp, internal))
            classes.sort(key=lambda pair: pair[0][0])
            return classes

        rng = random.Random(11)
        for _ in range(30):
            v = random_connected_vass(rng, max_states=5, max_transitions=8)
            drop = {t.tid for t in v.transitions if rng.random() < 0.5}
            kept = [t for t in v.transitions if t.tid not in drop]
            assert scc_decompose(v.states, kept) == closure_sccs(v.states, kept)
        # Arbitrary digraphs, disconnected ones and isolated states included.
        component_counts = set()
        for _ in range(150):
            states = [f"s{i}" for i in range(rng.randint(1, 9))]
            triples = [(rng.choice(states), (i,), rng.choice(states))
                       for i in range(rng.randint(0, 20))]
            v = Vass.from_triples(["x"], triples, extra_states=states)
            expected = closure_sccs(v.states, v.transitions)
            assert scc_decompose(v.states, v.transitions) == expected
            component_counts.add(min(len(expected), 2))
        assert component_counts == {0, 1, 2}

    def test_long_chain_and_ring_need_no_recursion(self):
        n = 5000
        states = [f"q{i:04d}" for i in range(n)]
        chain = Vass.from_triples(["x"], [(states[i], (0,), states[i + 1]) for i in range(n - 1)])
        ring = Vass.from_triples(["x"], [(states[i], (0,), states[(i + 1) % n]) for i in range(n)])
        assert without_deep_recursion(scc_decompose, chain.states, chain.transitions) == []
        assert without_deep_recursion(scc_decompose, ring.states, ring.transitions) == \
            [(ring.states, ring.transitions)]


class TestExecution:
    def test_pump_cycle_from_hand_checked_valuation(self, v_run):
        # Prefix sums worked out by hand over the seven updates.
        cycle = path_of(v_run, [5, 1, 1, 1, 1, 4, 0])
        final = execute_path(v_run, Valuation({"x": 0, "y": 4, "z": 1}), cycle)
        assert final == {"x": 3, "y": 1, "z": 2}

    def test_empty_path_is_identity(self, v_run):
        start = Valuation({"x": 2, "y": 0, "z": 5})
        assert execute_path(v_run, start, Path((), anchor="s1")) == start

    def test_forced_negative_fails(self):
        v = Vass.from_triples(["x", "y", "z"], [("s1", (0, 0, -1), "s1")])
        out = execute_path(v, Valuation.zero(v.variables), path_of(v, [0]))
        assert out is None

    def test_min_initial_of_pump_cycle(self, v_run):
        cycle = path_of(v_run, [5, 1, 1, 1, 1, 4, 0])
        assert min_initial_valuation(v_run, cycle) == {"x": 0, "y": 4, "z": 1}

    def test_min_initial_empty_and_positive(self, v_run):
        assert min_initial_valuation(v_run, Path((), anchor="s1")) == \
            {"x": 0, "y": 0, "z": 0}
        v = Vass.from_triples(["a", "b"], [("s1", (1, 1), "s1")])
        assert min_initial_valuation(v, path_of(v, [0])) == {"a": 0, "b": 0}

    def test_execution_iff_at_least_min_initial(self):
        rng = random.Random(9)
        for _ in range(40):
            v = random_connected_vass(rng)
            state = rng.choice(v.states)
            steps = []
            for _ in range(rng.randint(0, 12)):
                options = [t for t in v.transitions if t.src == state]
                if not options:
                    break
                t = rng.choice(options)
                steps.append(t)
                state = t.dst
            p = Path(tuple(steps), anchor=v.states[0])
            low = min_initial_valuation(v, p)
            final = execute_path(v, low, p)
            assert final is not None
            assert final == {x: low[x] + d for x, d in
                             zip(v.variables, p.value(v.dimension))}
            for x in v.variables:
                if low[x] > 0:
                    poorer = dict(low)
                    poorer[x] -= 1
                    assert execute_path(v, Valuation(poorer), p) is None

    def test_length_equals_instance_total(self, v_run):
        p = path_of(v_run, [5, 1, 1, 4, 0, 8, 2, 2, 7])
        assert len(p) == sum(p.instances().values())

    def test_path_requires_adjacency(self, v_run):
        with pytest.raises(VassError, match="non-adjacent"):
            path_of(v_run, [0, 1])

    def test_prepath_allows_non_adjacency(self, v_run):
        p = PrePath(tuple(v_run.transition(t) for t in [0, 1]))
        assert p.value(3) == (0, 0, 0)

    def test_valuation_rejects_negative(self):
        with pytest.raises(VassError, match="negative"):
            Valuation({"x": -1})
