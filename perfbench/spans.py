"""Spans around calls into the program's layers, recorded from outside.

A traced pass rebinds each traced function at the module attribute through
which the program looks it up (`vassbound.analyzer.max_strict_set` is the
name `analyze` calls, `vassbound.exactlp.lp_feasible` the one
`max_strict_set` calls), records one span per call in memory and restores
the original attributes afterwards.  Nothing under `src/` changes.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


def _lp_note(args, result) -> dict:
    problem = args[0]
    bits = 0
    if result is not None:
        for value in result.assignment.values():
            bits = max(bits, value.numerator.bit_length(), value.denominator.bit_length())
    return {"infeasible": result is None, "rows": len(problem.rows),
            "cols": len(problem.variables), "bits": bits}


def _analyze_note(args, result) -> dict:
    return {"iterations": result.iterations, "tree_nodes": len(result.tree.nodes)}


def _witness_note(args, result) -> dict:
    return {"path_steps": len(result.path.steps)}


# (owner, attribute, span name, note taken from arguments and return value).
# The owner is the module, or `module:Class`, in whose namespace the
# program looks the name up; one span name may be bound in several owners.
TRACE_POINTS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("vassbound.cli", "main", "cli.main", None),
    ("vassbound.cli", "parse_vass", "model.parse_vass", None),
    ("vassbound.cli", "analyze", "analyzer.analyze", _analyze_note),
    ("vassbound.cli", "build_witness", "witness.build_witness", _witness_note),
    ("vassbound.cli", "verify_witness", "witness.verify_witness", None),
    ("vassbound.cli", "exponential_certificate", "witness.exponential_certificate", None),
    ("vassbound.analyzer", "unconnected_pair", "model.unconnected_pair", None),
    ("vassbound.analyzer", "build_extended_system", "analyzer.build_extended_system", None),
    ("vassbound.analyzer", "solve_layer", "analyzer.solve_layer", None),
    ("vassbound.analyzer", "max_strict_set", "exactlp.max_strict_set", None),
    ("vassbound.analyzer", "scale_to_integer", "exactlp.scale_to_integer", None),
    ("vassbound.analyzer", "scc_decompose", "model.scc_decompose", None),
    ("vassbound.exactlp", "lp_feasible", "exactlp.lp_feasible", _lp_note),
    ("vassbound.witness", "scc_decompose", "model.scc_decompose", None),
    ("vassbound.witness", "node_cycles", "witness.node_cycles", None),
    ("vassbound.witness", "covering_cycle", "witness.covering_cycle", None),
    ("vassbound.witness", "execute_path", "model.execute_path", None),
    ("vassbound.witness", "min_initial_valuation", "model.min_initial_valuation", None),
    ("vassbound.witness:WitnessPath", "dump", "witness.dump", None),
)

# Printed per-layer metrics, in order, with units.  `BENCHMARK.json` lists
# the same names.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("exactlp.lp_feasible.calls", "count"),
    ("exactlp.lp_feasible.s", "s"),
    ("exactlp.lp_feasible.infeasible_ratio", "ratio"),
    ("exactlp.max_strict_set.calls", "count"),
    ("exactlp.max_strict_set.s", "s"),
    ("exactlp.max_strict_set.self_s", "s"),
    ("exactlp.scale_to_integer.s", "s"),
    ("exactlp.max_rows", "count"),
    ("exactlp.max_cols", "count"),
    ("exactlp.max_solution_bits", "bits"),
    ("analyzer.analyze.calls", "count"),
    ("analyzer.analyze.s", "s"),
    ("analyzer.analyze.self_s", "s"),
    ("analyzer.iterations", "count"),
    ("analyzer.tree_nodes", "count"),
    ("analyzer.lp_solves_per_iteration", "ratio"),
    ("analyzer.build_extended_system.s", "s"),
    ("analyzer.solve_layer.s", "s"),
    ("analyzer.solve_layer.self_s", "s"),
    ("model.parse_vass.s", "s"),
    ("model.unconnected_pair.s", "s"),
    ("model.scc_decompose.calls", "count"),
    ("model.scc_decompose.s", "s"),
    ("model.execute_path.calls", "count"),
    ("model.execute_path.s", "s"),
    ("model.min_initial_valuation.calls", "count"),
    ("model.min_initial_valuation.s", "s"),
    ("witness.build_witness.s", "s"),
    ("witness.build_witness.self_s", "s"),
    ("witness.node_cycles.s", "s"),
    ("witness.covering_cycle.s", "s"),
    ("witness.verify_witness.s", "s"),
    ("witness.exponential_certificate.s", "s"),
    ("witness.path_steps", "count"),
    ("witness.dump.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.coverage_p50", "ratio"),
    ("trace.coverage_min", "ratio"),
)

# Counts of work and their ratios, which must repeat exactly; the rest are
# times and shares of time.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS
                      if unit != "s" and not name.startswith("trace."))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: int
    note: Optional[dict]

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans while installed; `job` is set by the caller per job."""

    spans: list[Span] = field(default_factory=list)
    job: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                        self.job, None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result
        return traced

    def install(self) -> None:
        for owner_path, attr, name, note in TRACE_POINTS:
            module, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _children(spans: list[Span]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return covered


def layer_metrics(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the trace.overhead_s
    figure, which needs the untraced passes too)."""
    covered = _children(spans)
    seconds: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, float] = {"infeasible": 0, "rows": 0, "cols": 0, "bits": 0,
                               "iterations": 0, "tree_nodes": 0, "path_steps": 0}
    coverage = []
    for span, child in zip(spans, covered):
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        self_seconds[span.name] = self_seconds.get(span.name, 0.0) + span.seconds - child
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in (span.note or {}).items():
            if key in ("rows", "cols", "bits"):
                notes[key] = max(notes[key], value)
            else:
                notes[key] += value
        if span.name == "cli.main":
            coverage.append(child / span.seconds)

    lp_calls = calls.get("exactlp.lp_feasible", 0)
    iterations = notes["iterations"]
    m = {}
    for name, _ in LAYER_METRICS:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            m[name] = calls.get(layer, 0)
        elif what == "s":
            m[name] = seconds.get(layer, 0.0)
        elif what == "self_s":
            m[name] = self_seconds.get(layer, 0.0)
    m.update({
        "exactlp.lp_feasible.infeasible_ratio": notes["infeasible"] / lp_calls if lp_calls else 0.0,
        "exactlp.max_rows": notes["rows"],
        "exactlp.max_cols": notes["cols"],
        "exactlp.max_solution_bits": notes["bits"],
        "analyzer.iterations": iterations,
        "analyzer.tree_nodes": notes["tree_nodes"],
        "analyzer.lp_solves_per_iteration": lp_calls / iterations if iterations else 0.0,
        "witness.path_steps": notes["path_steps"],
        "cli.output_bytes": output_bytes,
        "trace.coverage_p50": statistics.median(coverage),
        "trace.coverage_min": min(coverage),
    })
    return m
