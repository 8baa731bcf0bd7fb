"""Seeded inputs of the benchmark's workloads and the references that every
job's output is checked against.

The benchmark writes plain `.vass` files; the program under test sees only
those files.  Nothing here imports `vassbound` or the repository's tests:
the generators mirror `v_family` and `random_connected_vass` from
`tests/conftest.py` call for call, and the output checks use plain integer
arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent

# The random pool: model i is the i-th draw of the tier-1 generator from
# `random.Random(POOL_SEED)`, so the first SUITE_SIZE models are exactly the
# tier-1 random suite.  The workload seed picks which SUITE_SIZE models of
# the pool a run analyzes; POOL_SEED itself picks the tier-1 suite.  Every
# pool model has a recorded report, so any seed's suite is checked
# byte for byte.
POOL_SEED = 20240601
POOL_SIZE = 1000
SUITE_SIZE = 200
# Never used while the benchmark or a change is being tuned: a claimed gain
# is confirmed on this seed as well (choosing-metrics section 6.3).
HELD_OUT_SEED = 7919

EXPECTED_SUITE = HERE / "expected_suite.json"

WITNESS_RUNNING_NS = (8, 16, 24, 32)
WITNESS_FAMILY_NS = (8, 12, 16)


@dataclass(frozen=True)
class Model:
    """A VASS as the benchmark knows it: transition i is the i-th line."""

    name: str
    variables: tuple[str, ...]
    triples: tuple[tuple[str, tuple[int, ...], str], ...]

    def text(self) -> str:
        lines = ["vars " + " ".join(self.variables)]
        for src, update, dst in self.triples:
            lines.append(f"{src} -> {dst} : " + " ".join(str(c) for c in update))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return short_digest(self.text())


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_model(name: str, text: str) -> Model:
    """Read the `vars` line and the transition lines of a `.vass` text."""
    variables: Optional[tuple[str, ...]] = None
    triples = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if variables is None:
            variables = tuple(tokens[1:])
            continue
        triples.append((tokens[0], tuple(int(c) for c in tokens[4:]), tokens[2]))
    return Model(name, variables or (), tuple(triples))


def family_model(nu: int) -> Model:
    """`v_family(nu)`: chained pump/drain blocks, exponents up to 2^nu."""
    variables = []
    for i in range(1, nu + 1):
        variables += [f"x{i}1", f"x{i}2"]
    index = {x: j for j, x in enumerate(variables)}

    def upd(**kw):
        u = [0] * len(variables)
        for name, value in kw.items():
            u[index[name]] = value
        return tuple(u)

    triples = []
    for i in range(1, nu + 1):
        triples.append((f"s{i}1", upd(**{f"x{i}1": -1}), f"s{i}2"))
        triples.append((f"s{i}2", upd(), f"s{i}1"))
        loop = {f"x{i}1": -1, f"x{i}2": 1}
        if i < nu:
            loop[f"x{i+1}1"] = 1
            loop[f"x{i+1}2"] = 1
        triples.append((f"s{i}1", upd(**loop), f"s{i}1"))
        triples.append((f"s{i}2", upd(**{f"x{i}1": 1, f"x{i}2": -1}), f"s{i}2"))
        if i < nu:
            triples.append((f"s{i}1", upd(**{f"x{i}1": -1}), f"s{i+1}1"))
            triples.append((f"s{i+1}2", upd(), f"s{i}2"))
    return Model(f"family{nu}", tuple(variables), tuple(triples))


def _strongly_connected(triples) -> bool:
    states = {s for src, _, dst in triples for s in (src, dst)}
    succ = {s: set() for s in states}
    pred = {s: set() for s in states}
    for src, _, dst in triples:
        succ[src].add(dst)
        pred[dst].add(src)

    def reach(start, edges):
        seen, todo = {start}, [start]
        while todo:
            for nxt in edges[todo.pop()] - seen:
                seen.add(nxt)
                todo.append(nxt)
        return seen

    start = min(states)
    return reach(start, succ) == states and reach(start, pred) == states


def random_model(rng: random.Random, name: str) -> Model:
    """One draw of `random_connected_vass(rng, max_vars=3, max_states=4,
    max_transitions=6, span=2)`, consuming the generator identically."""
    while True:
        nvars = rng.randint(1, 3)
        nstates = rng.randint(1, 4)
        states = [f"s{i}" for i in range(nstates)]
        triples = []
        seen = set()
        for _ in range(rng.randint(1, 6)):
            src = rng.choice(states)
            dst = rng.choice(states)
            update = tuple(rng.randint(-2, 2) for _ in range(nvars))
            if (src, update, dst) in seen:
                continue
            seen.add((src, update, dst))
            triples.append((src, update, dst))
        if triples and _strongly_connected(triples):
            return Model(name, tuple(f"x{i}" for i in range(nvars)), tuple(triples))


def random_pool() -> list[Model]:
    rng = random.Random(POOL_SEED)
    return [random_model(rng, f"random{i:04d}") for i in range(POOL_SIZE)]


def suite_indices(seed: int, costs: list[int]) -> list[int]:
    """The pool models a run analyzes: the tier-1 suite for POOL_SEED, else
    one model drawn from each of SUITE_SIZE strata of the pool ordered by
    recorded cost, so that every seed's suite asks for about the same work."""
    if seed == POOL_SEED:
        return list(range(SUITE_SIZE))
    rng = random.Random(seed)
    order = sorted(range(POOL_SIZE), key=lambda i: (costs[i], i))
    stride = POOL_SIZE // SUITE_SIZE
    return sorted(rng.choice(order[k:k + stride]) for k in range(0, POOL_SIZE, stride))


# ---------------------------------------------------------------- references

@dataclass(frozen=True)
class Exponents:
    variables: dict[str, int]
    transitions: dict[int, int]
    complexity: int


def family_exponents(model: Model, nu: int) -> Exponents:
    """The closed form of `test_criterion_2_family_exact`."""
    vexp = {}
    for i in range(1, nu + 1):
        vexp[f"x{i}1"] = vexp[f"x{i}2"] = 2 ** (i - 1)
    by_pair = {}
    for i in range(1, nu + 1):
        by_pair[(f"s{i}1", f"s{i}1")] = by_pair[(f"s{i}2", f"s{i}2")] = 2 ** i
        by_pair[(f"s{i}1", f"s{i}2")] = by_pair[(f"s{i}2", f"s{i}1")] = 2 ** (i - 1)
        if i < nu:
            by_pair[(f"s{i}1", f"s{i+1}1")] = 2 ** (i - 1)
            by_pair[(f"s{i+1}2", f"s{i}2")] = 2 ** (i - 1)
    texp = {tid: by_pair[(src, dst)] for tid, (src, _, dst) in enumerate(model.triples)}
    return Exponents(vexp, texp, max(texp.values()))


# README and acceptance criterion 1.
RUNNING_EXPONENTS = Exponents(
    {"x": 1, "y": 1, "z": 2},
    {0: 3, 1: 3, 2: 3, 3: 3, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1},
    3)


def _exp(value) -> Optional[int]:
    return None if value in ("inf", None) else int(value)


def check_json_report(output: str, ref: Exponents) -> Optional[str]:
    report = json.loads(output)
    got = Exponents({x: _exp(e) for x, e in report["variables"].items()},
                    {t["id"]: _exp(t["exp"]) for t in report["transitions"]},
                    _exp(report["complexity_exponent"]))
    return None if got == ref else f"exponents {got} differ from {ref}"


def check_text_report(output: str, ref: Exponents) -> Optional[str]:
    """Exponents of a default `analyze` text report."""
    vexp, texp, complexity, section = {}, {}, None, None
    for line in output.splitlines():
        if line.startswith("complexity exponent: "):
            complexity = _exp(line.split(": ", 1)[1])
        elif line.endswith("bounds:"):
            section = line
        elif line.startswith("  ") and section == "variable bounds:":
            name, bound = line.strip().split(": N^")
            vexp[name] = _exp(bound)
        elif line.startswith("  [") and section == "transition bounds:":
            tid = int(line.strip()[1:].split("]", 1)[0])
            texp[tid] = _exp(line.rsplit(": N^", 1)[1])
    got = Exponents(vexp, texp, complexity)
    return None if got == ref else f"exponents {got} differ from {ref}"


def check_exponential(output: str) -> Optional[str]:
    first = output.split("\n", 1)[0]
    return None if first == "status: exponential" else f"reported {first!r}"


def check_digest(output: str, expected: str) -> Optional[str]:
    got = short_digest(output)
    return None if got == expected else f"report digest {got} != recorded {expected}"


def replay_witness(output: str, model: Model, n: int, ref: Exponents) -> Optional[str]:
    """Re-execute a `witness --check` dump with plain integer arithmetic.

    Checks that the path stays non-negative from the dumped initial
    valuation, reaches the dumped final valuation, fires every transition
    at least N^e times and ends with every variable at least N^e, with e
    taken from the reference, not from the program."""
    lines = iter(output.splitlines())
    header = next(lines, "")
    if not header.startswith(f"witness N={n} "):
        return f"bad header {header!r}"
    init = next(lines, "")
    if not init.startswith("init "):
        return f"bad init line {init!r}"
    values = [int(c) for c in init.split()[1:]]
    updates = [update for _, update, _ in model.triples]
    counts = [0] * len(updates)
    line = ""
    for line in lines:
        if not line.isdigit():
            break
        tid = int(line)
        counts[tid] += 1
        for i, c in enumerate(updates[tid]):
            values[i] += c
            if values[i] < 0:
                return f"variable {model.variables[i]} negative after step {sum(counts)}"
    if not line.startswith("instances "):
        return f"bad instances line {line[:60]!r}"
    final = next(lines, "")
    if final.split()[1:] != [str(v) for v in values]:
        return "dumped final valuation differs from the replay"
    for tid, e in ref.transitions.items():
        if counts[tid] < n ** e:
            return f"transition {tid} fired {counts[tid]} < N^{e} times"
    for i, x in enumerate(model.variables):
        if values[i] < n ** ref.variables[x]:
            return f"final {x} = {values[i]} < N^{ref.variables[x]}"
    return None


# ------------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Job:
    """One CLI invocation; `{model}` in argv is replaced by the model's path."""

    model: Model
    argv: tuple[str, ...]
    check: Callable[[str], Optional[str]]

    def args(self, workdir: Path) -> list[str]:
        path = str(workdir / f"{self.model.name}.vass")
        return [path if a == "{model}" else a for a in self.argv]


def load_sample(root: Path, name: str) -> Model:
    return parse_model(name, (root / "samples" / f"{name}.vass").read_text(encoding="utf-8"))


def analyze_family_jobs(root: Path, seed: int) -> list[Job]:
    jobs = []
    for nu in range(1, 6):
        model = family_model(nu)
        ref = family_exponents(model, nu)
        jobs.append(Job(model, ("analyze", "--json", "{model}"),
                        lambda out, ref=ref: check_json_report(out, ref)))
    return jobs


def analyze_suite_jobs(root: Path, seed: int) -> list[Job]:
    jobs = [
        Job(load_sample(root, "running"), ("analyze", "{model}"),
            lambda out: check_text_report(out, RUNNING_EXPONENTS)),
        Job(load_sample(root, "doubling"), ("analyze", "{model}"), check_exponential),
    ]
    expected = json.loads(EXPECTED_SUITE.read_text(encoding="utf-8"))["models"]
    pool = random_pool()
    for i in suite_indices(seed, [cost for _, _, cost in expected]):
        model_digest, report_digest, _ = expected[i]
        if pool[i].digest() != model_digest:
            raise RuntimeError(f"pool model {i} differs from the recorded one")
        jobs.append(Job(pool[i], ("analyze", "{model}"),
                        lambda out, d=report_digest: check_digest(out, d)))
    return jobs


def witness_sweep_jobs(root: Path, seed: int) -> list[Job]:
    running = load_sample(root, "running")
    family2 = family_model(2)
    cases = [(running, n, RUNNING_EXPONENTS) for n in WITNESS_RUNNING_NS]
    cases += [(family2, n, family_exponents(family2, 2)) for n in WITNESS_FAMILY_NS]
    return [Job(model, ("witness", "--check", "--n", str(n), "{model}"),
                lambda out, m=model, n=n, ref=ref: replay_witness(out, m, n, ref))
            for model, n, ref in cases]


WORKLOADS = {
    "analyze-family": analyze_family_jobs,
    "analyze-suite": analyze_suite_jobs,
    "witness-sweep": witness_sweep_jobs,
}
