"""End-to-end and per-layer benchmark of the `vassbound` command line.

    python3 perfbench/run.py --workload analyze-suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  A job is one `vassbound.cli.main(argv)` call made in-process with
stdout captured, so it covers argument parsing, loading, analysis,
rendering and any `--check`.  Jobs run one at a time in a closed loop from
a single client.  A pass runs every job of the workload once; passes repeat
until `--seconds` have gone by.  Every job's output is checked against a
reference outside the timed region.

`--trace 0` prints the end-to-end metrics, each the median over passes.
Times are normalized by the host's speed while they were taken (see
`hostspeed.py`); the table also prints them as measured.
`--trace 1` alternates untraced and traced passes, runs at least two traced
ones so that their counts can be compared, and prints the per-layer
metrics of the traced ones, plus the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 0 means every job passed its check; 1 means some did not; 2
means the run could not start (no program to import, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 15
# End-to-end metrics in print order with units (`BENCHMARK.json` lists the
# same names).  error_rate is printed in the table only: it is 0 on a
# correct program, and the JSON carries it as failed / attempted.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class SetupError(Exception):
    """The program or the workload's inputs are not there."""


def import_program(root: Path):
    """Import `vassbound.cli` afresh from `root/src` (module bodies re-run)."""
    for name in [n for n in sys.modules if n == "vassbound" or n.startswith("vassbound.")]:
        del sys.modules[name]
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        cli = importlib.import_module("vassbound.cli")
    except ImportError as err:
        raise SetupError(f"cannot import vassbound from {src}: {err}") from err
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SetupError(f"vassbound was imported from {cli.__file__}, not {src}")
    return cli


def write_model(path: Path, text: str) -> None:
    """Write `text` to `path` without first truncating the file to zero.

    Repeated set-ups rewrite the same files.  On ext4, truncating a file to
    zero and writing it again makes close() start writeback to disk, which
    ties set-up time to the disk's load; creating fresh files slows down
    with the file system's history.  Overwriting in place and then cutting
    the file to the new length leaves the same bytes without either."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def set_up(root: Path, jobs, workdir: Path):
    """One set-up: a fresh import of the program plus writing the model files."""
    started = perf_counter()
    cli = import_program(root)
    workdir.mkdir(parents=True, exist_ok=True)
    for model in {job.model.name: job.model for job in jobs}.values():
        write_model(workdir / f"{model.name}.vass", model.text())
    return perf_counter() - started, cli


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)
    output_bytes: int = 0
    spans: list = field(default_factory=list)
    # Per job: the index of the run's next kernel sample when the job ended.
    marks: list[int] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)

    def job_times(self, normalized: bool = True) -> list[float]:
        if not normalized:
            return self.times
        return [t / s for t, s in zip(self.times, self.slowdowns)]

    def wall(self, normalized: bool = True) -> float:
        return sum(self.job_times(normalized))

    def p50(self, normalized: bool = True) -> float:
        return statistics.median(self.job_times(normalized))

    def tail(self, normalized: bool = True) -> float:
        """Highest percentile with at least ten jobs beyond it; the slowest
        job when the pass has fewer than 11."""
        ordered = sorted(self.job_times(normalized))
        return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


@dataclass
class Checker:
    """Checks every distinct output of each job once; repeats of an output
    reuse its verdict by digest."""

    jobs: list
    verdicts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0

    def record(self, index: int, code, output: str, errors: str) -> None:
        self.attempted += 1
        job = self.jobs[index]
        if code != 0:
            error = f"exit code {code}: {errors.strip()[:200]}"
        else:
            key = (index, hashlib.sha256(output.encode("utf-8")).digest())
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = job.check(output)
                except Exception as exc:  # a malformed output fails its job
                    self.verdicts[key] = f"unreadable output: {exc!r}"
            error = self.verdicts[key]
        if error is not None:
            self.failures.append(f"{job.model.name} {' '.join(job.argv)}: {error}")


def run_pass(cli_module, jobs, workdir: Path, checker: Checker,
             gauge: hostspeed.Gauge, tracer: Optional[spans.Tracer] = None) -> Pass:
    """Run every job once; after each, pay the gauge its kernel share.
    Slowdowns are set later, once the samples after the last job exist."""
    result = Pass()
    if tracer is not None:
        tracer.install()
    try:
        for index, job in enumerate(jobs):
            argv = job.args(workdir)
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = index
            gc.collect()
            started = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_module.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code = "exception: " + traceback.format_exc(limit=-1).strip()
            result.times.append(perf_counter() - started)
            output = out.getvalue()
            result.output_bytes += len(output.encode("utf-8"))
            checker.record(index, code, output, err.getvalue())
            del out, output
            gc.collect()
            result.marks.append(len(gauge.samples))
            gauge.owe(result.times[-1])
            gauge.pay()
    finally:
        if tracer is not None:
            tracer.uninstall()
            result.spans = tracer.spans
    return result


def end_to_end(setups: list[float], setup_slowdown: float, passes: list[Pass],
               normalized: bool = True) -> dict[str, float]:
    """Medians over passes (set-ups), each time divided by the host's
    slowdown around its job (during the set-ups), or as measured."""
    return {
        "setup_s": statistics.median(setups) / (setup_slowdown if normalized else 1.0),
        "wall_s": statistics.median(p.wall(normalized) for p in passes),
        "job_p50_ms": 1000 * statistics.median(p.p50(normalized) for p in passes),
        "job_tail_ms": 1000 * statistics.median(p.tail(normalized) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict[str, float], list[str]]:
    """Medians over traced passes; counts must agree between all of them."""
    per_pass = [spans.layer_metrics(p.spans, p.output_bytes) for p in traced]
    problems = [f"count {name} differs between traced passes: "
                f"{[m[name] for m in per_pass]}"
                for name in spans.COUNT_METRICS
                if len({m[name] for m in per_pass}) > 1]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall() for p in traced)
        - statistics.median(p.wall() for p in untraced))
    return metrics, problems


def measure(root: Path, workload: str, seed: int, seconds: float, traced: bool,
            workdir: Path) -> dict:
    try:
        jobs = inputs.WORKLOADS[workload](root, seed)
    except OSError as err:
        raise SetupError(f"cannot read workload inputs: {err}") from err
    setups = []
    gauge = hostspeed.Gauge()
    models = workdir / "models"
    for _ in range(SETUP_REPEATS):
        gc.collect()
        elapsed, cli = set_up(root, jobs, models)
        setups.append(elapsed)
        gauge.sample()
    setup_slowdown = gauge.slowdown()
    checker = Checker(jobs)

    untraced: list[Pass] = []
    traced_passes: list[Pass] = []
    started = perf_counter()
    while True:
        if traced and len(untraced) > len(traced_passes):
            traced_passes.append(run_pass(cli, jobs, models, checker, gauge, spans.Tracer()))
        else:
            untraced.append(run_pass(cli, jobs, models, checker, gauge))
        # Two traced passes at least, so that their counts can be compared.
        done = not traced or len(traced_passes) >= 2
        if done and perf_counter() - started >= seconds:
            break
    passes = untraced + traced_passes
    for p in passes:
        p.slowdowns = [gauge.slowdown_at(mark) for mark in p.marks]

    problems = list(checker.failures)
    measured = {}
    if traced:
        metrics, count_problems = per_layer(untraced, traced_passes)
        problems += count_problems
        units = dict(spans.LAYER_METRICS)
    else:
        metrics = end_to_end(setups, setup_slowdown, untraced)
        measured = end_to_end(setups, setup_slowdown, untraced, normalized=False)
        units = dict(END_TO_END)
    return {
        "workload": workload, "seed": seed, "jobs_per_pass": len(jobs),
        "passes": len(passes), "setups": len(setups),
        "slowdown": gauge.slowdown(),
        "measured": measured,
        "problems": problems, "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']} of {result['jobs_per_pass']} jobs  "
          f"set-ups {result['setups']}  host slowdown {result['slowdown']:.3f}")
    for name, entry in result["metrics"].items():
        line = f"  {name:40s} {entry['value']:>16.6f} {entry['unit']}"
        if name in result["measured"] and name != "peak_rss_mb":
            line += f"  (measured {result['measured'][name]:.6f})"
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':40s} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} jobs failed)")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.POOL_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(root, args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print_report(result)
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
