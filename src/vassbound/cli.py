"""Command-line front end.

Commands: `analyze` (bound analysis, text or JSON report, optional layer
tree DOT export), `witness` (lower-bound path dump with optional
self-check), `oracle` (brute-force metrics as CSV), and `validate` (parse
and connectivity check).

Exit codes: 0 success, 1 parse or input/output error (a witness `--n`
below 1 included), 2 input not connected or a usage error from argparse (an
unknown flag, a malformed value such as `--n x`, no input path), 3 internal
invariant violation (a witness or certificate that fails its own self-check
included), failed witness check, or oracle budget exhaustion,
4 witness requested for an input with at-least-exponential complexity.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable, Optional, Sequence

from . import oracle as oracle_mod
from .analyzer import AnalysisResult, InternalInvariantError, POLYNOMIAL, _exp_value, analyze
from .model import (
    NotConnectedError,
    Vass,
    VassError,
    VassSyntaxError,
    parse_vass,
    unconnected_pair,
)
from .witness import build_witness, exponential_certificate, verify_witness

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_CONNECTED = 2
EXIT_INTERNAL = 3
EXIT_EXPONENTIAL_INPUT = 4

BUDGET_ENV = "VASSBOUND_ORACLE_BUDGET"


def _load(path: str) -> Vass:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise VassError(f"cannot read '{path}': {err.strerror}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # The lines before the byte, as `parse_vass` splits them; "x" stands for it.
        lines = (data[:err.start].decode("utf-8") + "x").splitlines()
        raise VassSyntaxError(f"bad UTF-8 byte 0x{data[err.start]:02x}",
                              len(lines), len(lines[-1]))
    return parse_vass(text)


def _write(path: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as err:
        raise VassError(f"cannot write '{path}': {err.strerror}")


def _render_text_report(result: AnalysisResult) -> str:
    report = result.report
    v = result.vass
    lines = [f"status: {report.status}"]
    if report.status == POLYNOMIAL:
        lines.append(f"complexity exponent: {report.complexity_exponent}")
    else:
        lines.append(f"stalled at layer: {report.exponential_layer}")
    lines.append("variable bounds:")
    for x, e in report.variable_exponents.items():
        lines.append(f"  {x}: N^{_exp_value(e)}")
    lines.append("transition bounds:")
    for tid, e in report.transition_exponents.items():
        lines.append(f"  [{tid}] {v.transition(tid)}: N^{_exp_value(e)}")
    if report.status != POLYNOMIAL:
        lines.append(exponential_certificate(result).dump().rstrip("\n"))
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    v = _load(args.input)
    result = analyze(v, skip_optimization=(args.skip_opt == "on"))
    if args.tree:
        _write(args.tree, [result.tree.to_dot()])
    if args.json:
        sys.stdout.write(result.report.to_json(v))
    else:
        sys.stdout.write(_render_text_report(result))
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.n < 1:
        raise VassError("scale parameter must be >= 1")
    v = _load(args.input)
    result = analyze(v)
    if result.report.status != POLYNOMIAL:
        print("input has at-least-exponential complexity; no polynomial witness",
              file=sys.stderr)
        return EXIT_EXPONENTIAL_INPUT
    witness = build_witness(result, args.n)
    if witness.path.length > sys.maxsize:
        raise VassError(f"the witness path has {witness.path.length} steps, too many to dump flat")
    if args.out:
        _write(args.out, witness.chunks(v))
    else:
        sys.stdout.writelines(witness.chunks(v))
    if args.check:
        verification = verify_witness(v, witness, result.report)
        sys.stdout.write(verification.dump())
        if not verification.passed:
            raise InternalInvariantError("witness verification failed")
    return EXIT_OK


def _parse_sweep(spec: str) -> range:
    lo, _, hi = spec.partition("..")
    try:
        ns = range(int(lo), int(hi) + 1)
    except ValueError:
        raise VassError(f"bad sweep range '{spec}'")
    if not ns:
        raise VassError(f"empty sweep range '{spec}'")
    return ns


def cmd_oracle(args) -> int:
    v = _load(args.input)
    budget = args.budget
    if budget is None:
        raw = os.environ.get(BUDGET_ENV, str(oracle_mod.DEFAULT_BUDGET))
        try:
            budget = int(raw)
        except ValueError:
            raise VassError(f"{BUDGET_ENV} is not an integer: '{raw}'")
    if budget < 0:  # checked before the range, so it is reported whatever the range
        raise VassError("oracle budget must be >= 0")
    if args.sweep:
        ns = _parse_sweep(args.sweep)
    else:
        ns = [args.n]
    rows = oracle_mod.sweep(v, args.metric, ns, budget)
    sys.stdout.write(oracle_mod.sweep_csv(rows))
    return EXIT_OK


def cmd_validate(args) -> int:
    v = _load(args.input)
    pair = unconnected_pair(v)
    if pair is not None:
        raise NotConnectedError(*pair)
    print(f"ok: {len(v.states)} states, {len(v.transitions)} transitions, "
          f"{v.dimension} variables")
    return EXIT_OK


# Built once per process: parsing leaves the parser as it was.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vassbound",
        description="Asymptotic variable and transition bounds for VASSs")
    from . import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute variable and transition bounds")
    p.add_argument("input")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--skip-opt", choices=["on", "off"], default="on",
                   help="layer skip optimization (default on)")
    p.add_argument("--tree", metavar="PATH", help="write the layer tree as DOT")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("witness", help="emit a lower-bound witness path")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True, help="scale parameter N >= 1")
    p.add_argument("--check", action="store_true",
                   help="verify the witness and fail on any violated check")
    p.add_argument("--out", metavar="PATH", help="write the dump to a file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("oracle", help="brute-force metrics over the {0..N} box")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single scale parameter")
    group.add_argument("--sweep", metavar="A..B", help="inclusive range of N values")
    p.add_argument("--metric", required=True,
                   help="'longest', 'var:<name>' or 'trans:<id>'")
    p.add_argument("--budget", type=int,
                   help=f"configuration budget (default {oracle_mod.DEFAULT_BUDGET}; "
                        f"env {BUDGET_ENV})")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="parse and check connectivity")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VassSyntaxError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except NotConnectedError as err:
        print(f"not connected: {err}", file=sys.stderr)
        return EXIT_NOT_CONNECTED
    except InternalInvariantError as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except oracle_mod.BudgetExceededError as err:
        print(f"oracle budget exceeded: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except VassError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:  # as in Python's `signal` docs, keep the flush at exit quiet
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
