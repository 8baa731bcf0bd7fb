"""Command-line interface: commands, exit codes, output determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

import vassbound
from vassbound import (BudgetExceededError, InternalInvariantError, NotConnectedError, VassError,
                       VassSyntaxError)
from vassbound.cli import _build_parser, main
from conftest import SAMPLES, load_sample

ROOT = SAMPLES.parent
RUNNING = str(SAMPLES / "running.vass")
DOUBLING = str(SAMPLES / "doubling.vass")
TERMINATING_EXPONENTIAL = str(SAMPLES / "terminating_exponential.vass")


@pytest.fixture()
def disconnected_file(tmp_path):
    path = tmp_path / "disconnected.vass"
    path.write_text("vars x\ns1 -> s2 : 1\n")
    return str(path)


class TestAnalyze:
    def test_json_report(self, capsys):
        assert main(["analyze", RUNNING, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "polynomial"
        assert data["complexity_exponent"] == 3
        assert data["variables"] == {"x": 1, "y": 1, "z": 2}

    def test_text_report(self, capsys):
        assert main(["analyze", RUNNING]) == 0
        out = capsys.readouterr().out
        assert "status: polynomial" in out
        assert "complexity exponent: 3" in out

    def test_exponential_with_certificate_summary(self, capsys):
        assert main(["analyze", DOUBLING]) == 0
        out = capsys.readouterr().out
        assert "status: exponential" in out
        assert "exponential-certificate" in out
        assert "W: x y" in out

    def test_failed_certificate_check_exits_3(self, monkeypatch, capsys):
        """The certificate's cycles come from the analysis itself, so one that
        fails its own check is an internal fault, not a missing certificate."""
        import vassbound.witness as witness_mod

        monkeypatch.setattr(witness_mod, "check_certificate",
                            lambda v, cert: "cycle decreases bounded variable x")
        assert main(["analyze", DOUBLING]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal invariant violation: cycle decreases bounded variable x\n"

    def test_terminating_exponential_sample(self, capsys):
        assert main(["analyze", TERMINATING_EXPONENTIAL]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:11] == [
            "status: exponential",
            "stalled at layer: 2",
            "variable bounds:",
            "  x: N^inf",
            "  y: N^inf",
            "  z: N^1",
            "transition bounds:",
            "  [0] s1 -> s1 : -1 2 0: N^inf",
            "  [1] s2 -> s2 : 1 -1 0: N^inf",
            "  [2] s1 -> s2 : 0 0 -1: N^1",
            "  [3] s2 -> s1 : 0 0 0: N^1",
        ]
        assert lines[11:14] == ["exponential-certificate", "U: z", "W: x y"]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.vass"
        bad.write_text("vars x\ns1 => s2 : 1\n")
        assert main(["analyze", str(bad)]) == 1
        assert "unknown relation token" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"vars x\ns1 -> s1 : \xff1\n",
        b"vars x\ns1 -> s1 : " + b"9" * 5000 + b"\n",
        "vars x\ns1 -> s1 : \u0663\n".encode(),
    ], ids=["not-utf8", "huge-integer", "non-ascii-digit"])
    def test_malformed_input_is_parse_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.vass"
        bad.write_bytes(content)
        assert main(["analyze", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("parse error:")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.vass")]) == 1

    def test_unreadable_file_is_error_without_position(self, tmp_path, capsys):
        path = tmp_path / "nope.vass"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: cannot read '{path}': No such file or directory\n"

    @pytest.mark.parametrize("content, line, column, byte", [
        (b"vars x\ns1 -> s1 : \xff1\n", 2, 12, 0xff),
        (b"vars x\r\n\xc3\xa9 -> s1 : 1\xfe\n", 2, 12, 0xfe),
        (b"vars x\r\xff\n", 2, 1, 0xff),
        (b"\xc0vars x\n", 1, 1, 0xc0),
    ], ids=["ascii-prefix", "multibyte-prefix", "after-carriage-return", "first-byte"])
    def test_non_utf8_byte_is_parse_error_at_its_position(self, tmp_path, capsys,
                                                          content, line, column, byte):
        # The column counts characters, and lines break where the parser breaks them.
        bad = tmp_path / "bad.vass"
        bad.write_bytes(content)
        assert main(["analyze", str(bad)]) == 1
        assert capsys.readouterr().err == \
            f"parse error: line {line}, column {column}: bad UTF-8 byte 0x{byte:02x}\n"

    def test_disconnected_exit_code_names_pair(self, disconnected_file, capsys):
        assert main(["analyze", disconnected_file]) == 2
        err = capsys.readouterr().err
        assert "s2" in err and "s1" in err

    def test_skip_opt_off_identical(self, capsys):
        assert main(["analyze", RUNNING, "--json"]) == 0
        default = capsys.readouterr().out
        assert main(["analyze", RUNNING, "--json", "--skip-opt", "off"]) == 0
        assert capsys.readouterr().out == default

    def test_byte_identical_reruns(self, capsys):
        main(["analyze", RUNNING, "--json"])
        first = capsys.readouterr().out
        main(["analyze", RUNNING, "--json"])
        assert capsys.readouterr().out == first

    def test_lp_failure_is_internal_error_exit_code(self, capsys, monkeypatch):
        import vassbound.analyzer as analyzer_mod
        from vassbound.exactlp import LpInternalError

        def broken_solver(columns, nx, nr):
            raise LpInternalError("simplex produced a non-solution")

        monkeypatch.setattr(analyzer_mod, "max_strict_set", broken_solver)
        assert main(["analyze", RUNNING]) == 3
        err = capsys.readouterr().err
        assert "internal invariant violation" in err and "non-solution" in err

    def test_tree_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "tree.dot"
        assert main(["analyze", RUNNING, "--tree", str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text().startswith("digraph")

    def test_unwritable_tree_path_is_error(self, tmp_path, capsys):
        dot = tmp_path / "missing" / "tree.dot"
        assert main(["analyze", RUNNING, "--tree", str(dot)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1


def outcome(argv, capsys):
    """Exit code, stdout and stderr of one `main` call; usage errors exit
    through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_repeated_calls_repeat_their_results(self, capsys):
        calls = [["analyze", RUNNING], ["analyze"],
                 ["analyze", RUNNING, "--json"],
                 ["witness", RUNNING, "--n", "2", "--check"],
                 ["witness", RUNNING, "--check"]]
        first = [outcome(argv, capsys) for argv in calls]
        assert [code for code, _, _ in first] == [0, 2, 0, 0, 2]
        assert first[1][2].startswith("usage: vassbound analyze")
        for _ in range(2):
            assert [outcome(argv, capsys) for argv in calls] == first


def module_command(*argv):
    """`python -m vassbound ...` from this checkout, and its environment."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-m", "vassbound", *argv], env


class TestModuleEntryPoint:
    def test_python_m_vassbound_matches_main(self, tmp_path, capsys):
        for argv in (["analyze", RUNNING], ["analyze", str(tmp_path / "missing.vass")]):
            command, env = module_command(*argv)
            proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
            code = main(argv)
            out, err = capsys.readouterr()
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert proc.returncode == 1

    def test_reader_closing_stdout_exits_1_without_traceback(self):
        # The dump at N = 64 is about 12 MB, far more than a pipe holds.
        command, env = module_command("witness", "--n", "64", RUNNING)
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"witness N=64 k=5\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""

    def test_broken_pipe_on_a_replaced_stdout(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["analyze", RUNNING]) == 1


class TestWitness:
    def test_check_passes(self, capsys):
        assert main(["witness", RUNNING, "--n", "3", "--check"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("witness N=3")
        assert "FAIL" not in out

    def test_model_without_transitions(self, tmp_path, capsys):
        path = tmp_path / "still.vass"
        path.write_text("vars x y\n")
        assert main(["witness", str(path), "--n", "3", "--check"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "witness N=3 k=1",
            "init 0 0",
            "instances ",
            "final 0 0",
            "PASS initial-envelope: |initial| = 0, envelope 0 * N = 0",
            "PASS executes: path executes and reaches the recorded final valuation",
        ]

    def test_exponential_input_exit_code(self, capsys):
        assert main(["witness", DOUBLING, "--n", "3"]) == 4

    def test_terminating_exponential_input_exit_code(self, capsys):
        assert main(["witness", TERMINATING_EXPONENTIAL, "--n", "1"]) == 4

    def test_non_positive_scale_is_an_input_error(self, capsys):
        assert main(["witness", RUNNING, "--n", "0"]) == 1
        assert capsys.readouterr().err == "error: scale parameter must be >= 1\n"

    def test_non_positive_scale_is_checked_before_the_verdict(self, capsys):
        assert main(["witness", DOUBLING, "--n", "0"]) == 1
        assert capsys.readouterr().err == "error: scale parameter must be >= 1\n"

    @pytest.mark.parametrize("argv", [["witness", RUNNING, "--n", "2"], ["analyze", DOUBLING]],
                             ids=["witness", "analyze-exponential"])
    def test_failed_construction_self_check_exits_3(self, argv, monkeypatch, capsys):
        import vassbound.witness as witness_mod

        def broken(*args):
            raise InternalInvariantError("node 1 counts are not positive and balanced")

        monkeypatch.setattr(witness_mod, "node_cycles", broken)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal invariant violation: "
                                "node 1 counts are not positive and balanced\n")

    def test_failed_check_is_an_internal_invariant_violation(self, monkeypatch, capsys):
        # The dump and the check lines stay on stdout; `main` reports the failure.
        from vassbound.witness import WitnessCheck, WitnessVerification

        failed = WitnessVerification((WitnessCheck("executes", False, "stuck at step 3"),))
        monkeypatch.setattr(vassbound.cli, "verify_witness", lambda v, witness, report: failed)
        assert main(["witness", RUNNING, "--n", "2", "--check"]) == 3
        out, err = capsys.readouterr()
        assert out.startswith("witness N=2") and out.endswith("\nFAIL executes: stuck at step 3\n")
        assert err == "internal invariant violation: witness verification failed\n"

    def test_scale_one(self, capsys):
        assert main(["witness", RUNNING, "--n", "1", "--check"]) == 0

    def test_dump_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "w.txt"
        assert main(["witness", RUNNING, "--n", "2",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("witness N=2")
        assert lines[1].startswith("init ")
        assert lines[-1].startswith("final ")

    def test_unwritable_out_path_is_error(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "w.txt"
        assert main(["witness", RUNNING, "--n", "2",
                     "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("n, steps", [
        (10 ** 22, "20000000000000000000026000000000000000000001800000000000000000000000"),
        (10 ** 6, "20000260000180000000"),
    ])
    def test_flat_dump_past_sys_maxsize_is_an_error(self, n, steps, monkeypatch, capsys):
        # Both lengths exceed sys.maxsize (about 9.2 * 10^18), so no flat
        # dump could finish: nothing is written and the command exits 1.
        # The capped stdout stops a dump that streams on.
        class CappedStdout(io.StringIO):
            def write(self, text):
                assert self.tell() + len(text) < 1 << 20, "the dump streams on"
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", CappedStdout())
        assert main(["witness", RUNNING, "--n", str(n), "--check"]) == 1
        assert sys.stdout.getvalue() == ""
        assert capsys.readouterr().err == (
            f"error: the witness path has {steps} steps, too many to dump flat\n")

    def test_overlong_flat_dump_writes_no_file(self, tmp_path, capsys):
        out_path = tmp_path / "w.txt"
        assert main(["witness", RUNNING, "--n", str(10 ** 22), "--out", str(out_path)]) == 1
        assert not out_path.exists()
        assert "too many to dump flat" in capsys.readouterr().err

    def test_dump_round_trips_through_independent_replay(self, tmp_path, capsys):
        # Reconstruct the dumped path from transition ids alone, replay it,
        # and confirm the trailer matches the replayed run.
        from vassbound import Path, Valuation, execute_path

        out_path = tmp_path / "w.txt"
        assert main(["witness", RUNNING, "--n", "3",
                     "--out", str(out_path)]) == 0
        v = load_sample("running")
        lines = out_path.read_text().splitlines()
        initial = Valuation(dict(zip(v.variables,
                                     map(int, lines[1].split()[1:]))))
        steps = tuple(v.transition(int(s)) for s in lines[2:-2])
        path = Path(steps)
        final = execute_path(v, initial, path)
        assert final is not None
        assert list(final.values()) == [int(s) for s in lines[-1].split()[1:]]
        counts = path.instances()
        declared = dict(pair.split("=") for pair in lines[-2].split()[1:])
        assert {int(t): int(c) for t, c in declared.items()} == dict(counts)


class TestOracle:
    def test_single_row(self, capsys):
        assert main(["oracle", RUNNING, "--n", "3", "--metric", "longest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["n,metric,value", "3,longest,215"]

    def test_nonterminating_row(self, tmp_path, capsys):
        loop = tmp_path / "loop.vass"
        loop.write_text("vars x\ns1 -> s1 : 0\n")
        assert main(["oracle", str(loop), "--n", "1", "--metric", "longest"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,longest,NONTERMINATING"

    def test_unbounded_run_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("VASSBOUND_ORACLE_BUDGET", raising=False)
        pump = tmp_path / "pump.vass"
        pump.write_text("vars x\ns -> s : 1\n")
        for budget in (["--budget", "100"], []):  # a missed pair fails fast at 100
            assert main(["oracle", str(pump), "--sweep", "0..2", "--metric", "longest",
                         *budget]) == 0
            assert capsys.readouterr().out.splitlines()[1:] == [
                f"{n},longest,NONTERMINATING" for n in range(3)]

    def test_sweep_monotone(self, capsys):
        assert main(["oracle", RUNNING, "--sweep", "1..4",
                     "--metric", "var:z"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        values = [int(line.split(",")[2]) for line in lines[1:]]
        assert values == sorted(values)

    def test_budget_flag(self, capsys):
        assert main(["oracle", RUNNING, "--n", "3", "--metric", "longest",
                     "--budget", "10"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("VASSBOUND_ORACLE_BUDGET", "10")
        assert main(["oracle", RUNNING, "--n", "3", "--metric", "longest"]) == 3

    def test_non_integer_budget_env_is_error(self, capsys, monkeypatch):
        monkeypatch.setenv("VASSBOUND_ORACLE_BUDGET", "lots")
        assert main(["oracle", RUNNING, "--n", "1", "--metric", "longest"]) == 1
        err = capsys.readouterr().err
        assert "VASSBOUND_ORACLE_BUDGET" in err and err.count("\n") == 1

    def test_negative_budget_flag_is_error(self, capsys):
        assert main(["oracle", RUNNING, "--n", "1", "--metric", "longest",
                     "--budget", "-3"]) == 1
        assert capsys.readouterr().err == "error: oracle budget must be >= 0\n"

    def test_negative_budget_env_is_error(self, capsys, monkeypatch):
        monkeypatch.setenv("VASSBOUND_ORACLE_BUDGET", "-1")
        assert main(["oracle", RUNNING, "--n", "1", "--metric", "longest"]) == 1
        assert capsys.readouterr().err == "error: oracle budget must be >= 0\n"

    def test_inverted_sweep_range_is_error(self, capsys):
        assert main(["oracle", RUNNING, "--sweep", "3..1",
                     "--metric", "longest"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty sweep range '3..1'\n"

    def test_non_integer_sweep_range_is_error(self, capsys):
        assert main(["oracle", RUNNING, "--sweep", "a..b", "--metric", "longest"]) == 1
        assert capsys.readouterr() == ("", "error: bad sweep range 'a..b'\n")

    def test_negative_budget_with_empty_sweep_is_error(self, capsys):
        assert main(["oracle", RUNNING, "--sweep", "3..1", "--metric", "longest",
                     "--budget", "-5"]) == 1
        assert capsys.readouterr().err == "error: oracle budget must be >= 0\n"

    @pytest.mark.parametrize("metric", ["var:w", "trans:abc", "trans:99"],
                             ids=["unknown-variable", "non-integer-id", "unknown-id"])
    def test_unknown_metric_is_error(self, capsys, metric):
        assert main(["oracle", RUNNING, "--n", "1", "--metric", metric]) == 1
        assert capsys.readouterr().err == f"error: unknown metric '{metric}'\n"


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", RUNNING]) == 0
        assert "4 states, 10 transitions, 3 variables" in capsys.readouterr().out

    def test_not_connected(self, disconnected_file, capsys):
        # Reported as `analyze` reports it, by `main`'s one handler.
        assert main(["analyze", disconnected_file]) == 2
        reported = capsys.readouterr()
        assert main(["validate", disconnected_file]) == 2
        assert capsys.readouterr() == reported == \
            ("", "not connected: no path from state 's2' to state 's1'\n")


def test_every_exported_error_class_exits_with_its_code(monkeypatch, capsys):
    """README's exit codes, one per exported exception class; a new exported
    class fails here until it is given one."""
    codes = {VassError: 1, VassSyntaxError: 1, NotConnectedError: 2,
             InternalInvariantError: 3, BudgetExceededError: 3}
    exported = {obj for obj in map(vassbound.__dict__.get, vassbound.__all__)
                if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert exported == set(codes)
    args = {VassSyntaxError: ("boom", 1), NotConnectedError: ("a", "b")}
    for cls, code in codes.items():
        def raising(v, cls=cls):
            raise cls(*args.get(cls, ("boom",)))

        monkeypatch.setattr(vassbound.cli, "unconnected_pair", raising)
        assert main(["validate", RUNNING]) == code, cls.__name__
        assert capsys.readouterr().out == ""
