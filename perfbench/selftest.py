"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's test run (the file name does not match
`test_*.py`): these tests pin the benchmark, and the count test pins the
program's work at the commit that introduced the benchmark.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import inputs
import run
import spans

ROOT = run.HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _jobs(workload, seed=inputs.POOL_SEED):
    return inputs.WORKLOADS[workload](ROOT, seed)


def _one_pass(tmp_path, jobs, tracer=None):
    """One pass over `jobs` with a fresh import; returns (pass, checker)."""
    _, cli = run.set_up(ROOT, jobs, tmp_path / "models")
    checker = run.Checker(jobs)
    gauge = hostspeed.Gauge()
    return run.run_pass(cli, jobs, tmp_path / "models", checker, gauge, tracer), checker


def _smoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-suite",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_exactly_the_declared_metrics(trace, key):
    proc = _smoke("--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 202
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if trace == "0":
        assert "error_rate" in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_flipped_reference_raises_error_rate(monkeypatch, tmp_path):
    flipped = inputs.Exponents({**inputs.RUNNING_EXPONENTS.variables, "z": 1},
                               inputs.RUNNING_EXPONENTS.transitions, 3)
    monkeypatch.setattr(inputs, "RUNNING_EXPONENTS", flipped)
    result = run.measure(ROOT, "analyze-suite", inputs.POOL_SEED, 0, False,
                         tmp_path)
    assert result["failed"] == 1 and result["attempted"] == 202
    assert "running" in result["problems"][0]


@pytest.mark.parametrize("workload, index", [
    ("analyze-family", 1),   # JSON report against the closed form
    ("analyze-suite", 0),    # text report of running.vass
    ("witness-sweep", 0),    # witness replay, running.vass at N = 8
])
def test_each_check_rejects_a_flipped_exponent(tmp_path, workload, index):
    job = _jobs(workload)[index]
    _, checker = _one_pass(tmp_path, [job])
    assert checker.failures == []
    ref = (inputs.family_exponents(job.model, 2) if workload == "analyze-family"
           else inputs.RUNNING_EXPONENTS)
    bad = inputs.Exponents({**ref.variables, next(iter(ref.variables)): 3},
                           ref.transitions, ref.complexity)
    check = {
        "analyze-family": lambda out: inputs.check_json_report(out, bad),
        "analyze-suite": lambda out: inputs.check_text_report(out, bad),
        "witness-sweep": lambda out: inputs.replay_witness(out, job.model, 8, bad),
    }[workload]
    flipped_job = inputs.Job(job.model, job.argv, check)
    _, checker = _one_pass(tmp_path / "flipped", [flipped_job])
    assert len(checker.failures) == 1


def _counts(tmp_path, jobs) -> dict[int, dict[str, int]]:
    """One traced pass; per job: calls of every span name plus the summed
    note counts (iterations, path steps, infeasible solves)."""
    tracer = spans.Tracer()
    _one_pass(tmp_path, jobs, tracer)
    counts: dict[int, dict[str, int]] = {}
    for span in tracer.spans:
        job = counts.setdefault(span.job, {})
        job[span.name] = job.get(span.name, 0) + 1
        for key, value in (span.note or {}).items():
            if key not in ("rows", "cols", "bits"):
                job[key] = job.get(key, 0) + int(value)
    return counts


def test_counts_at_seed_commit_family(tmp_path):
    """Counts measured when the benchmark was introduced; a change that
    moves one fails here and quotes old and new counts."""
    counts = _counts(tmp_path, _jobs("analyze-family"))
    assert [counts[j]["iterations"] for j in range(5)] == [2, 4, 7, 11, 16]
    assert [counts[j]["exactlp.lp_feasible"] for j in range(5)] == [27, 100, 256, 531, 961]


def test_counts_at_seed_commit_suite_and_witness(tmp_path):
    counts = _counts(tmp_path / "suite", _jobs("analyze-suite"))
    assert counts[0]["exactlp.lp_feasible"] == 77      # running.vass
    assert counts[1]["exactlp.lp_feasible"] == 13      # doubling.vass
    random_jobs = [counts[j] for j in range(2, 202)]
    assert sum(c["exactlp.lp_feasible"] for c in random_jobs) == 2770
    assert sum(c["exactlp.max_strict_set"] for c in random_jobs) == 438
    assert sum(c["iterations"] for c in random_jobs) == 219

    running32 = [job for job in _jobs("witness-sweep") if "32" in job.argv]
    counts = _counts(tmp_path / "witness", running32)
    assert counts[0]["path_steps"] == 927_360


def test_counts_repeat_exactly_between_traced_runs(tmp_path):
    jobs = _jobs("analyze-suite")
    first = _counts(tmp_path / "a", jobs)
    second = _counts(tmp_path / "b", jobs)
    assert first == second


def test_seed_selects_suite_from_the_recorded_pool():
    expected = json.loads(inputs.EXPECTED_SUITE.read_text(encoding="utf-8"))
    costs = [cost for _, _, cost in expected["models"]]
    assert inputs.suite_indices(inputs.POOL_SEED, costs) == list(range(inputs.SUITE_SIZE))
    held_out = inputs.suite_indices(inputs.HELD_OUT_SEED, costs)
    assert held_out == inputs.suite_indices(inputs.HELD_OUT_SEED, costs)
    assert held_out != inputs.suite_indices(1, costs)
    assert len(set(held_out)) == inputs.SUITE_SIZE
    # Stratified by cost: every seed's suite asks for the same work within 2%.
    totals = [sum(costs[i] for i in inputs.suite_indices(seed, costs)) for seed in range(20)]
    assert max(totals) < 1.02 * min(totals)


def test_host_gauge_ignores_the_programs_collector_state(monkeypatch):
    """A program that changes the collector's thresholds or leaves a large
    heap behind must not change the divisor of its own times: no collection
    runs inside the kernel, and the collector is left as found."""
    collections, inside = [], []
    work = hostspeed._timed_work

    def watched_work():
        collections.clear()
        seconds = work()
        inside.append(len(collections))
        return seconds

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setattr(hostspeed, "_timed_work", watched_work)
    retained = [[i] for i in range(200_000)]
    thresholds = gc.get_threshold()
    gc.callbacks.append(count)
    try:
        for enabled, setting in ((True, (1, 1, 1)), (True, (700, 10, 10)), (False, (1, 1, 1))):
            gc.set_threshold(*setting)
            (gc.enable if enabled else gc.disable)()
            gauge = hostspeed.Gauge()
            gauge.owe(0.1)
            gauge.pay()
            assert gc.isenabled() == enabled and gc.get_threshold() == setting
            assert gauge.slowdown() > 0
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
        gc.enable()
    del retained
    assert len(inside) >= 3 and set(inside) == {0}
