"""Command-line interface: commands, exit codes, output determinism."""

import json

import pytest

from vassbound.cli import main
from conftest import DOUBLING_TEXT, V_RUN_TEXT


@pytest.fixture()
def v_run_file(tmp_path):
    path = tmp_path / "v_run.vass"
    path.write_text(V_RUN_TEXT)
    return str(path)


@pytest.fixture()
def doubling_file(tmp_path):
    path = tmp_path / "doubling.vass"
    path.write_text(DOUBLING_TEXT)
    return str(path)


@pytest.fixture()
def disconnected_file(tmp_path):
    path = tmp_path / "disconnected.vass"
    path.write_text("vars x\ns1 -> s2 : 1\n")
    return str(path)


class TestAnalyze:
    def test_json_report(self, v_run_file, capsys):
        assert main(["analyze", v_run_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "polynomial"
        assert data["complexity_exponent"] == 3
        assert data["variables"] == {"x": 1, "y": 1, "z": 2}

    def test_text_report(self, v_run_file, capsys):
        assert main(["analyze", v_run_file]) == 0
        out = capsys.readouterr().out
        assert "status: polynomial" in out
        assert "complexity exponent: 3" in out

    def test_exponential_with_certificate_summary(self, doubling_file, capsys):
        assert main(["analyze", doubling_file]) == 0
        out = capsys.readouterr().out
        assert "status: exponential" in out
        assert "exponential-certificate" in out
        assert "W: x y" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.vass"
        bad.write_text("vars x\ns1 => s2 : 1\n")
        assert main(["analyze", str(bad)]) == 1
        assert "unknown relation token" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"vars x\ns1 -> s1 : \xff1\n",
        b"vars x\ns1 -> s1 : " + b"9" * 5000 + b"\n",
    ], ids=["not-utf8", "huge-integer"])
    def test_malformed_input_is_parse_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.vass"
        bad.write_bytes(content)
        assert main(["analyze", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("parse error:")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.vass")]) == 1

    def test_disconnected_exit_code_names_pair(self, disconnected_file, capsys):
        assert main(["analyze", disconnected_file]) == 2
        err = capsys.readouterr().err
        assert "s2" in err and "s1" in err

    def test_skip_opt_off_identical(self, v_run_file, capsys):
        assert main(["analyze", v_run_file, "--json"]) == 0
        default = capsys.readouterr().out
        assert main(["analyze", v_run_file, "--json", "--skip-opt", "off"]) == 0
        assert capsys.readouterr().out == default

    def test_byte_identical_reruns(self, v_run_file, capsys):
        main(["analyze", v_run_file, "--json"])
        first = capsys.readouterr().out
        main(["analyze", v_run_file, "--json"])
        assert capsys.readouterr().out == first

    def test_lp_failure_is_internal_error_exit_code(self, v_run_file, capsys,
                                                     monkeypatch):
        import vassbound.analyzer as analyzer_mod
        from vassbound.exactlp import LpInternalError

        def broken_solver(problem):
            raise LpInternalError("simplex produced a non-solution")

        monkeypatch.setattr(analyzer_mod, "max_strict_set", broken_solver)
        assert main(["analyze", v_run_file]) == 3
        err = capsys.readouterr().err
        assert "internal invariant violation" in err and "non-solution" in err

    def test_tree_dot_export(self, v_run_file, tmp_path, capsys):
        dot = tmp_path / "tree.dot"
        assert main(["analyze", v_run_file, "--tree", str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text().startswith("digraph")

    def test_unwritable_tree_path_is_error(self, v_run_file, tmp_path, capsys):
        dot = tmp_path / "missing" / "tree.dot"
        assert main(["analyze", v_run_file, "--tree", str(dot)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1


class TestWitness:
    def test_check_passes(self, v_run_file, capsys):
        assert main(["witness", v_run_file, "--n", "3", "--check"]) == 0
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

    def test_exponential_input_exit_code(self, doubling_file, capsys):
        assert main(["witness", doubling_file, "--n", "3"]) == 4

    def test_scale_one(self, v_run_file, capsys):
        assert main(["witness", v_run_file, "--n", "1", "--check"]) == 0

    def test_dump_to_file(self, v_run_file, tmp_path, capsys):
        out_path = tmp_path / "w.txt"
        assert main(["witness", v_run_file, "--n", "2",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("witness N=2")
        assert lines[1].startswith("init ")
        assert lines[-1].startswith("final ")

    def test_unwritable_out_path_is_error(self, v_run_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "w.txt"
        assert main(["witness", v_run_file, "--n", "2",
                     "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_dump_round_trips_through_independent_replay(self, v_run_file,
                                                         tmp_path, capsys):
        # Reconstruct the dumped path from transition ids alone, replay it,
        # and confirm the trailer matches the replayed run.
        from vassbound import Path, Valuation, execute_path, parse_vass

        out_path = tmp_path / "w.txt"
        assert main(["witness", v_run_file, "--n", "3",
                     "--out", str(out_path)]) == 0
        v = parse_vass(open(v_run_file).read())
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
    def test_single_row(self, v_run_file, capsys):
        assert main(["oracle", v_run_file, "--n", "3", "--metric", "longest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["n,metric,value", "3,longest,215"]

    def test_nonterminating_row(self, tmp_path, capsys):
        loop = tmp_path / "loop.vass"
        loop.write_text("vars x\ns1 -> s1 : 0\n")
        assert main(["oracle", str(loop), "--n", "1", "--metric", "longest"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,longest,NONTERMINATING"

    def test_sweep_monotone(self, v_run_file, capsys):
        assert main(["oracle", v_run_file, "--sweep", "1..4",
                     "--metric", "var:z"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        values = [int(line.split(",")[2]) for line in lines[1:]]
        assert values == sorted(values)

    def test_budget_flag(self, v_run_file, capsys):
        assert main(["oracle", v_run_file, "--n", "3", "--metric", "longest",
                     "--budget", "10"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_budget_env_override(self, v_run_file, capsys, monkeypatch):
        monkeypatch.setenv("VASSBOUND_ORACLE_BUDGET", "10")
        assert main(["oracle", v_run_file, "--n", "3", "--metric", "longest"]) == 3

    def test_non_integer_budget_env_is_error(self, v_run_file, capsys, monkeypatch):
        monkeypatch.setenv("VASSBOUND_ORACLE_BUDGET", "lots")
        assert main(["oracle", v_run_file, "--n", "1", "--metric", "longest"]) == 1
        err = capsys.readouterr().err
        assert "VASSBOUND_ORACLE_BUDGET" in err and err.count("\n") == 1

    def test_negative_budget_flag_is_error(self, v_run_file, capsys):
        assert main(["oracle", v_run_file, "--n", "1", "--metric", "longest",
                     "--budget", "-3"]) == 1
        assert capsys.readouterr().err == "error: oracle budget must be >= 0\n"

    def test_negative_budget_env_is_error(self, v_run_file, capsys, monkeypatch):
        monkeypatch.setenv("VASSBOUND_ORACLE_BUDGET", "-1")
        assert main(["oracle", v_run_file, "--n", "1", "--metric", "longest"]) == 1
        assert capsys.readouterr().err == "error: oracle budget must be >= 0\n"

    def test_inverted_sweep_range_is_error(self, v_run_file, capsys):
        assert main(["oracle", v_run_file, "--sweep", "3..1",
                     "--metric", "longest"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 0, column 1: empty sweep range '3..1'\n"

    def test_negative_budget_with_empty_sweep_is_error(self, v_run_file, capsys):
        assert main(["oracle", v_run_file, "--sweep", "3..1", "--metric", "longest",
                     "--budget", "-5"]) == 1
        assert capsys.readouterr().err == "error: oracle budget must be >= 0\n"

    @pytest.mark.parametrize("metric", ["var:w", "trans:abc", "trans:99"],
                             ids=["unknown-variable", "non-integer-id", "unknown-id"])
    def test_unknown_metric_is_error(self, v_run_file, capsys, metric):
        assert main(["oracle", v_run_file, "--n", "1", "--metric", metric]) == 1
        assert capsys.readouterr().err == f"error: unknown metric '{metric}'\n"


class TestValidate:
    def test_ok(self, v_run_file, capsys):
        assert main(["validate", v_run_file]) == 0
        assert "4 states, 10 transitions, 3 variables" in capsys.readouterr().out

    def test_not_connected(self, disconnected_file, capsys):
        assert main(["validate", disconnected_file]) == 2
