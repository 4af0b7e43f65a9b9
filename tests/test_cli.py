"""End-to-end CLI runs: JSON I/O, exit-code contract, round trips.

Most tests call ``cli.main`` in process through ``run``; ``run_module`` starts
``python -m gleason`` for the few that cover the module entry point and the
``PYTHONPATH`` setup of ``conftest``.
"""

import contextlib
import io
import json
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleason import cli
from gleason.hilbert import random_density_matrix, standard_basis
from gleason.reconstruct import explicit_query_vectors, explicit_reconstruct
from gleason.serialize import (
    dump_json,
    matrix_from_json,
    matrix_to_json,
    oracle_table_to_json,
)
from gleason.valuation import ExactOracle, ValuationOracle
from gleason.verify import CheckReport


def run(*args):
    """``cli.main`` in process, with the exit code and output of a subprocess run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_module(*args):
    return subprocess.run(
        [sys.executable, "-m", "gleason", *map(str, args)], capture_output=True, text=True
    )


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("gen", "--dim", 3, "--rank", 1, "--seed", 7, "--out")
        assert run_module(*args, a).returncode == 0  # the same file from both entry points
        assert run(*args, b).returncode == 0
        assert a.read_text() == b.read_text()

    def test_dim_one_is_scalar_one(self, tmp_path):
        out = tmp_path / "one.json"
        assert run("gen", "--dim", 1, "--out", out).returncode == 0
        m = matrix_from_json(json.loads(out.read_text()))
        assert m.tolist() == [[1.0]]

    def test_gen_then_verify_density(self, tmp_path):
        state = tmp_path / "state.json"
        run("gen", "--dim", 4, "--rank", 4, "--seed", 1, "--out", state)
        result = run("verify", "--suite", "density", "--in", state)
        assert result.returncode == 0
        assert "ok" in result.stdout

    def test_unwritable_path_fails_nonzero(self, tmp_path):
        result = run("gen", "--dim", 2, "--out", tmp_path / "missing" / "x.json")
        assert result.returncode == 3
        assert result.stderr.strip()


class TestReconstruct:
    def test_explicit_budget_and_residual(self, tmp_path):
        state, report = tmp_path / "s.json", tmp_path / "r.json"
        run("gen", "--dim", 3, "--seed", 2, "--out", state)
        result = run("reconstruct", "--method", "explicit", "--in", state, "--out", report)
        assert result.returncode == 0
        payload = json.loads(report.read_text())
        assert payload["query_count"] == 15
        assert payload["residual"] <= 1e-12

    def test_pauli2d_equals_explicit(self, tmp_path):
        state = tmp_path / "q.json"
        run("gen", "--dim", 2, "--seed", 3, "--out", state)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        run("reconstruct", "--method", "pauli2d", "--in", state, "--out", r1)
        run("reconstruct", "--method", "explicit", "--in", state, "--out", r2)
        m1 = matrix_from_json(json.loads(r1.read_text())["estimate"])
        m2 = matrix_from_json(json.loads(r2.read_text())["estimate"])
        assert np.linalg.norm(m1 - m2) <= 1e-12

    def test_haar_average_single_basis_has_unit_trace(self, tmp_path):
        state, report = tmp_path / "s.json", tmp_path / "r.json"
        run("gen", "--dim", 3, "--seed", 4, "--out", state)
        result = run(
            "reconstruct", "--method", "haar-average", "--num-bases", 1,
            "--in", state, "--out", report,
        )
        assert result.returncode == 0
        est = matrix_from_json(json.loads(report.read_text())["estimate"])
        assert abs(np.trace(est).real - 1.0) < 1e-10

    def test_explicit_real_route(self, tmp_path):
        state, report = tmp_path / "s.json", tmp_path / "r.json"
        run("gen", "--dim", 3, "--seed", 5, "--field", "real", "--out", state)
        result = run("reconstruct", "--method", "explicit-real", "--in", state, "--out", report)
        assert result.returncode == 0
        payload = json.loads(report.read_text())
        assert payload["query_count"] == 9

    def test_tabulated_oracle_input(self, tmp_path):
        rho = random_density_matrix(3, 3, seed=6)
        oracle = ExactOracle(rho)
        rows = explicit_query_vectors(standard_basis(3))
        table = tmp_path / "table.json"
        dump_json(oracle_table_to_json(rows, oracle.query_batch(rows)), table)
        report = tmp_path / "r.json"
        result = run("reconstruct", "--method", "explicit", "--in", table, "--out", report)
        assert result.returncode == 0
        est = matrix_from_json(json.loads(report.read_text())["estimate"])
        assert np.linalg.norm(est - rho.matrix) <= 1e-9  # table matching tolerance

    def test_incomplete_table_is_parse_error(self, tmp_path):
        rho = random_density_matrix(3, 3, seed=7)
        oracle = ExactOracle(rho)
        rows = explicit_query_vectors(standard_basis(3))[:5]  # missing entries
        table = tmp_path / "table.json"
        dump_json(oracle_table_to_json(rows, oracle.query_batch(rows)), table)
        result = run("reconstruct", "--method", "explicit", "--in", table)
        assert result.returncode == 3

    def test_null_table_value_is_parse_error(self, tmp_path):
        rows = explicit_query_vectors(standard_basis(2))
        records = oracle_table_to_json(rows, np.full(len(rows), 0.5))
        records[0]["value"] = None
        table = tmp_path / "table.json"
        dump_json(records, table)
        result = run("reconstruct", "--method", "explicit", "--in", table)
        assert result.returncode == 3
        assert "error:" in result.stderr

    def test_shots_on_a_table_is_usage_error_without_queries(self, tmp_path, monkeypatch):
        rows = explicit_query_vectors(standard_basis(2))
        table = tmp_path / "table.json"
        dump_json(oracle_table_to_json(rows, np.full(len(rows), 0.5)), table)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("reconstruct", "--method", "explicit", "--in", table, "--shots", 100)
        assert result.returncode == 2
        assert "--shots applies to generated states" in result.stderr

    def test_pauli2d_wrong_dim_is_usage_error(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 3, "--seed", 8, "--out", state)
        result = run("reconstruct", "--method", "pauli2d", "--in", state)
        assert result.returncode == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 9, "--out", state)
        result = run_module(
            "reconstruct", "--method", "implicit", "--in", state,
            "--shots", 50, "--tol", "1e-14", "--seed", 10,
        )
        assert result.returncode == 5
        assert "non-convergence" in result.stderr

    @pytest.mark.parametrize("tol", ["nan", "-1e-3"])
    def test_unreachable_tol_is_parse_error_without_queries(self, tmp_path, monkeypatch, tol):
        state = tmp_path / "s.json"
        run("gen", "--dim", 3, "--seed", 9, "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("reconstruct", "--method", "implicit", "--in", state, f"--tol={tol}")
        assert result.returncode == 3
        assert "error:" in result.stderr and "tol" in result.stderr


class TestVerifyCommand:
    def test_trace_violation_fails_with_exit_4(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 11, "--out", state)
        payload = json.loads(state.read_text())
        payload["re"][0][0] += 0.01  # trace 1.01 now
        state.write_text(json.dumps(payload))
        result = run("verify", "--suite", "density", "--in", state)
        assert result.returncode == 4
        assert "FAIL" in result.stdout

    def test_malformed_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        result = run("verify", "--suite", "density", "--in", bad)
        assert result.returncode == 3

    def test_nan_matrix_is_parse_error(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 15, "--out", state)
        payload = json.loads(state.read_text())
        payload["re"][0][0] = float("nan")  # json writes the NaN literal, which is not JSON
        state.write_text(json.dumps(payload))
        result = run("verify", "--suite", "density", "--in", state)
        assert result.returncode == 3
        assert "error:" in result.stderr and "invalid JSON" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("re, suite, code", [
        ([[1e308, 0], [0, -1e308]], "density", 4),  # finite once halved before adding
        ([[1e308, 0], [0, 1e308]], "density", 3),
        ([[0, 1e308], [-1e308, 0]], "density", 3),
        ([[1e308, 0], [0, 1e308]], "additivity", 3),
        ([[0, 1e308], [-1e308, 0]], "additivity", 3),
        # compare against the negated matrix: the distance overflows, or is NaN
        ([[1e308, 0], [0, 1e308]], "compare", 3),
        ([[float("nan"), 0], [0, 1]], "compare", 3),
        ([[1e200, 0], [0, 1e200]], "compare", 4),  # 2.83e200 is representable
    ])
    def test_entries_near_overflow_print_no_nan_or_infinity(self, tmp_path, re, suite, code):
        state = tmp_path / "s.json"
        state.write_text(json.dumps({"dim": 2, "re": re, "im": [[0, 0], [0, 0]]}))
        if suite == "compare":
            negated = tmp_path / "n.json"
            negated.write_text(json.dumps({"dim": 2, "re": (-np.array(re)).tolist(),
                                           "im": [[0, 0], [0, 0]]}))
            result = run("compare", state, negated)
        else:
            result = run("verify", "--suite", suite, "--in", state)
        assert result.returncode == code
        if code == 3:
            assert "error:" in result.stderr and result.stdout == ""
        elif suite == "compare":
            assert float(result.stdout.split()[1]) == pytest.approx(np.sqrt(8) * 1e200)
        else:
            def refuse(name):
                raise AssertionError(f"{name} in the printed report")
            payload = json.loads(result.stdout.splitlines()[-1], parse_constant=refuse)
            assert payload[0]["context"]["min_eigenvalue"] == -1e308

    def test_haar_moment_suite(self):
        result = run("verify", "--suite", "haar-moment", "--dim", 2, "--num-bases", 2000)
        assert result.returncode == 0

    def test_all_suites_with_state(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 3, "--seed", 12, "--out", state)
        result = run(
            "verify", "--suite", "all", "--in", state, "--num-bases", 500, "--seed", 13
        )
        assert result.returncode == 0
        lines = [ln for ln in result.stdout.splitlines() if ln.startswith("[")]
        reports = json.loads(lines[-1])
        assert {r["check"] for r in reports} == {
            "density", "additivity", "basis-independence", "unistochastic", "haar-moment"
        }
        assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("suite", ["density", "basis-independence", "unistochastic"])
    def test_zero_tol_is_honoured(self, tmp_path, suite):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 16, "--out", state)
        result = run("verify", "--suite", suite, "--in", state, "--tol", 0)
        report = json.loads(result.stdout.splitlines()[-1])[0]
        assert report["tolerance"] == 0.0
        assert result.returncode == (0 if report["pass"] else 4)

    @pytest.mark.parametrize("suite", ["additivity", "basis-independence", "haar-moment"])
    def test_zero_num_bases_is_parse_error(self, tmp_path, suite):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 17, "--out", state)
        result = run("verify", "--suite", suite, "--in", state, "--num-bases", 0)
        assert result.returncode == 3
        assert "error:" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("suite", ["haar-moment", "unistochastic"])
    def test_zero_dim_is_parse_error(self, suite):
        result = run("verify", "--suite", suite, "--dim", 0)
        assert result.returncode == 3
        assert "error: dim must be >= 1" in result.stderr

    def test_missing_input_is_usage_error(self):
        result = run("verify", "--suite", "density")
        assert result.returncode == 2

    def test_json_report_written(self, tmp_path):
        state, out = tmp_path / "s.json", tmp_path / "checks.json"
        run("gen", "--dim", 2, "--seed", 14, "--out", state)
        run("verify", "--suite", "density", "--in", state, "--out", out)
        payload = json.loads(out.read_text())
        assert payload[0]["check"] == "density" and payload[0]["pass"]


class TestCompare:
    def test_file_vs_itself_is_zero(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 3, "--seed", 15, "--out", state)
        result = run("compare", state, state)
        assert result.returncode == 0
        assert float(result.stdout.split()[-1]) == 0.0

    def test_known_distance(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(matrix_to_json(np.eye(2) / 2), a)
        dump_json(matrix_to_json(np.diag([1.0, 0.0])), b)
        result = run("compare", a, b, "--tol", "1e-10")
        assert result.returncode == 4
        distance = float(result.stdout.split()[-1])
        assert abs(distance - 1 / np.sqrt(2)) < 1e-12

    def test_explicit_vs_implicit_within_tolerance(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 3, "--seed", 16, "--out", state)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run("reconstruct", "--method", "explicit", "--in", state, "--out", r1)
        run("reconstruct", "--method", "implicit", "--in", state, "--out", r2)
        result = run("compare", r1, r2, "--tol", "1e-6")
        assert result.returncode == 0

    def test_usage_error_without_args(self):
        assert run_module("compare").returncode == 2

    def test_table_file_is_parse_error_without_queries(self, tmp_path, monkeypatch):
        state, table = tmp_path / "s.json", tmp_path / "table.json"
        run("gen", "--dim", 2, "--seed", 17, "--out", state)
        rows = explicit_query_vectors(standard_basis(2))
        dump_json(oracle_table_to_json(rows, np.full(len(rows), 0.5)), table)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("compare", state, table)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "not a matrix or reconstruction report file" in result.stderr

    def test_shape_mismatch_is_usage_error_without_queries(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--dim", 2, "--seed", 18, "--out", a)
        run("gen", "--dim", 3, "--seed", 18, "--out", b)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("compare", a, b)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "shape mismatch: (2, 2) vs (3, 3)" in result.stderr


def _strict(text):
    """``text`` parsed as strict JSON: a NaN or infinity literal fails the test."""
    def refuse(name):
        raise AssertionError(f"{name} in the JSON")
    return json.loads(text, parse_constant=refuse)


class TestFileFormat:
    def test_written_files_are_one_strict_line(self, tmp_path):
        state, report, checks = tmp_path / "s.json", tmp_path / "r.json", tmp_path / "c.json"
        assert run("gen", "--dim", 3, "--seed", 31, "--out", state).returncode == 0
        result = run("reconstruct", "--method", "explicit", "--in", state, "--out", report)
        assert result.returncode == 0
        shown = run("reconstruct", "--method", "explicit", "--in", state)
        verified = run("verify", "--suite", "density", "--in", state, "--out", checks)
        assert verified.returncode == 0
        for path in (state, report, checks):
            text = path.read_text()
            assert text.endswith("\n") and text.count("\n") == 1
        # stdout carries the same line as the file
        assert shown.stdout == report.read_text()
        assert verified.stdout.splitlines()[-1] + "\n" == checks.read_text()
        rho = random_density_matrix(3, 3, seed=31)
        assert np.array_equal(matrix_from_json(_strict(state.read_text())), rho.matrix)
        expected = explicit_reconstruct(ExactOracle(rho), standard_basis(3))
        payload = _strict(report.read_text())
        assert np.array_equal(matrix_from_json(payload["estimate"]), expected.estimate)
        assert np.array_equal(matrix_from_json(payload["repaired"]), expected.repaired.matrix)
        assert _strict(checks.read_text())[0]["pass"] is True

    def test_indented_files_still_load(self, tmp_path):
        rho = random_density_matrix(2, 2, seed=32)
        rows = explicit_query_vectors(standard_basis(2))
        state, table, report = tmp_path / "s.json", tmp_path / "t.json", tmp_path / "r.json"
        state.write_text(json.dumps(matrix_to_json(rho.matrix), indent=2) + "\n")
        records = oracle_table_to_json(rows, ExactOracle(rho).query_batch(rows))
        table.write_text(json.dumps(records, indent=2) + "\n")
        result = run("reconstruct", "--method", "explicit", "--in", table, "--out", report)
        assert result.returncode == 0
        report.write_text(json.dumps(json.loads(report.read_text()), indent=2) + "\n")
        assert run("compare", report, state).returncode == 0
        assert run("verify", "--suite", "density", "--in", state).returncode == 0

    def test_report_json_cannot_hold_is_parse_error(self, tmp_path, monkeypatch):
        out = tmp_path / "c.json"
        monkeypatch.setattr(cli, "check_haar_moment",
                            lambda *args: CheckReport("haar-moment", float("inf"), 4.0))
        result = run("verify", "--suite", "haar-moment", "--dim", 2, "--out", out)
        assert result.returncode == 3
        assert result.stdout == "" and "error:" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("method, obj", [
        ("explicit", {"dim": "2", "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}),
        ("explicit", {"dim": 2, "re": [[0.5, 0], [0, "0.5"]], "im": [[0, 0], [0, 0]]}),
        ("explicit", [{"vector": {"dim": 1, "re": [1], "im": [0]}, "value": True}]),
        ("explicit", [{"vector": {"dim": 1, "re": [True], "im": [0]}, "value": 1}]),
        ("additivity", {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, False], [0, 0]]}),
    ], ids=["string-dim", "string-entry", "bool-value", "bool-table-entry", "bool-entry"])
    def test_non_numbers_are_parse_errors_without_queries(self, tmp_path, monkeypatch,
                                                         method, obj):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        if method == "additivity":
            result = run("verify", "--suite", "additivity", "--in", path)
        else:
            result = run("reconstruct", "--method", method, "--in", path)
        assert result.returncode == 3
        assert result.stdout == "" and "error:" in result.stderr and "JSON" in result.stderr

    # the standard library's parser recursed once per level of nesting, so it
    # raised RecursionError on these, out of the CLI's error handling
    @pytest.mark.parametrize("command, text", [
        ("reconstruct", "[" * 100_000 + "]" * 100_000),
        ("verify", '{"dim":1,"re":' + "[" * 5_000 + "1" + "]" * 5_000 + ',"im":[[0]]}'),
        ("compare", '{"dim":1,"re":' + "[" * 5_000 + "1" + "]" * 5_000 + ',"im":[[0]]}'),
    ], ids=["reconstruct", "verify", "compare"])
    def test_deeply_nested_files_are_parse_errors_without_queries(self, tmp_path, monkeypatch,
                                                                  command, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run(*READS[command](path))
        assert result.returncode == 3
        assert result.stdout == "" and "error:" in result.stderr

    # what json.loads took and RFC 8259 does not, and an integer beyond 64 bits,
    # which the reader takes as a float
    @pytest.mark.parametrize("data, message", [
        (b'{"dim":1,"re":[[NaN]],"im":[[0]]}', "invalid JSON"),
        (b'{"dim":1,"re":[[Infinity]],"im":[[0]]}', "invalid JSON"),
        (b'{"dim":1,"re":[[1]],"im":[[-Infinity]]}', "invalid JSON"),
        (b'{"dim":1,"re":[[1e999]],"im":[[0]]}', "invalid JSON"),
        (b'{"dim":18446744073709551616,"re":[[1]],"im":[[0]]}', "dim must be an integer"),
        (b'{"dim":1,"re":[[1]],"im":[[0]],"note":"\xff"}', "invalid JSON"),
        (b'\xef\xbb\xbf{"dim":1,"re":[[1]],"im":[[0]]}', "invalid JSON"),
    ], ids=["nan", "infinity", "minus-infinity", "overflow", "dim-2**64", "bad-utf8", "bom"])
    @pytest.mark.parametrize("command", ["reconstruct", "verify", "compare"])
    def test_known_parse_differences_are_parse_errors_without_queries(
            self, tmp_path, monkeypatch, data, message, command):
        path = tmp_path / "in.json"
        path.write_bytes(data)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run(*READS[command](path))
        assert result.returncode == 3
        assert result.stdout == "" and "error:" in result.stderr and message in result.stderr


# For each command that reads input files, its arguments reading the file ``path``.
READS = {
    "reconstruct": lambda path: ("reconstruct", "--method", "explicit", "--in", path),
    "verify": lambda path: ("verify", "--suite", "additivity", "--in", path),
    "compare": lambda path: ("compare", path, path),
}


class TestDispatch:
    def test_two_commands_in_one_process(self, tmp_path):
        state, copy = tmp_path / "s.json", tmp_path / "c.json"
        assert run("gen", "--dim", 2, "--seed", 18, "--out", state).returncode == 0
        assert run("gen", "--dim", 2, "--seed", 18, "--out", copy).returncode == 0
        result = run("compare", state, copy)
        assert result.returncode == 0
        assert float(result.stdout.split()[-1]) == 0.0
        result = run("verify", "--suite", "density", "--in", state)
        assert result.returncode == 0 and "density" in result.stdout

    def test_handler_is_looked_up_at_call_time(self, tmp_path, monkeypatch):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 19, "--out", state)
        seen = []
        monkeypatch.setattr(cli, "cmd_compare", lambda args: seen.append(args.path_a) or 7)
        assert run("compare", state, state).returncode == 7
        assert seen == [str(state)]
        monkeypatch.undo()
        assert run("compare", state, state).returncode == 0


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_round_trip_gen_reconstruct_compare(tmp_path, dim):
    state = tmp_path / "s.json"
    report = tmp_path / "r.json"
    assert run("gen", "--dim", dim, "--seed", 17, "--out", state).returncode == 0
    assert (
        run("reconstruct", "--method", "explicit", "--in", state, "--out", report).returncode
        == 0
    )
    assert run("compare", report, state, "--tol", "1e-10").returncode == 0


class TestVerifyOptions:
    @pytest.mark.parametrize("tol", ["nan", "-1"])
    @pytest.mark.parametrize("suite", ["density", "additivity", "basis-independence",
                                       "unistochastic", "all"])
    def test_unreachable_tol_is_parse_error_without_queries(self, tmp_path, monkeypatch,
                                                            suite, tol):
        state = tmp_path / "s.json"
        run("gen", "--dim", 3, "--seed", 20, "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("verify", "--suite", suite, "--in", state, f"--tol={tol}")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "error:" in result.stderr and "tol" in result.stderr

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_compare_rejects_unreachable_tol(self, tmp_path, tol):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 21, "--out", state)
        result = run("compare", state, state, f"--tol={tol}")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "error:" in result.stderr and "tol" in result.stderr

    def test_noisy_additivity_report_is_json(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 24, "--out", state)
        result = run("verify", "--suite", "additivity", "--in", state, "--shots", 100)
        report = json.loads(result.stdout.splitlines()[-1])[0]
        assert result.returncode == 0
        assert report["pass"] is True and report["tolerance"] == 0.5

    @pytest.mark.parametrize("suite", ["basis-independence", "all"])
    def test_shots_apply_to_basis_independence(self, tmp_path, suite):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 22, "--out", state)
        result = run("verify", "--suite", suite, "--in", state, "--shots", 100,
                     "--num-bases", 100)
        reports = json.loads(result.stdout.splitlines()[-1])
        report = next(r for r in reports if r["check"] == "basis-independence")
        assert result.returncode == 4
        assert report["tolerance"] == 1e-10 and report["deviation"] > 1e-3

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "haar-moment", "--dim", 2, "--tol", "1e-3"),
        *[("reconstruct", "--method", method, "--tol", "1e-6")
          for method in ("explicit", "explicit-real", "haar-average", "pauli2d")],
        *[("verify", "--suite", suite, "--shots", 100)
          for suite in ("density", "unistochastic", "haar-moment")],
        *[("reconstruct", "--method", method, "--num-bases", 7)
          for method in ("explicit", "explicit-real", "implicit", "pauli2d")],
        *[("verify", "--suite", suite, "--num-bases", 7) for suite in ("density", "unistochastic")],
        # the state file fixes the dimension, so --dim is ignored or overrides it
        *[("verify", "--suite", suite, "--dim", 4)
          for suite in ("density", "additivity", "basis-independence", "unistochastic",
                        "haar-moment", "all")],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}-{argv[-2].lstrip('-')}")
    def test_ignored_option_is_usage_error_without_queries(self, tmp_path, monkeypatch, argv):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 25, "--field", "real", "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run(*argv, "--in", state)
        option = argv[-2]
        assert result.returncode == 2
        assert result.stdout == ""
        assert "usage error:" in result.stderr and option in result.stderr

    def test_suite_all_takes_tol_and_shots_where_they_apply(self, tmp_path):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 26, "--out", state)
        result = run("verify", "--suite", "all", "--in", state, "--shots", 100, "--tol", 0.5,
                     "--num-bases", 100)
        reports = {r["check"]: r for r in json.loads(result.stdout.splitlines()[-1])}
        assert result.returncode in (0, 4)
        assert reports["additivity"]["tolerance"] == 0.5
        assert reports["haar-moment"]["tolerance"] == 4.0

    def test_routes_and_checks_are_looked_up_at_call_time(self, tmp_path, monkeypatch):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 23, "--out", state)
        seen = []

        def spy(name, fn):
            return lambda *args, **kwargs: seen.append(name) or fn(*args, **kwargs)

        for name in ("check_basis_independence", "implicit_reconstruct"):
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        assert run("verify", "--suite", "basis-independence", "--in", state).returncode == 0
        assert run("reconstruct", "--method", "implicit", "--in", state).returncode == 0
        assert seen == ["check_basis_independence", "implicit_reconstruct"]


class TestBoundsBeforeQueries:
    def test_negative_shots_is_parse_error_without_queries(self, tmp_path, monkeypatch):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 28, "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("verify", "--suite", "additivity", "--in", state, "--shots", -5)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "error:" in result.stderr and "shots" in result.stderr

    @pytest.mark.parametrize("command", [
        ("reconstruct", "--method", "explicit"), ("verify", "--suite", "additivity"),
    ], ids=["reconstruct", "additivity"])
    def test_shots_beyond_int64_is_parse_error_without_queries(self, tmp_path, monkeypatch,
                                                               command):
        # numpy's binomial cannot take 2**63 shots; the oracle refuses them
        # before a query, where each query used to end in an OverflowError
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 28, "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run(*command, "--in", state, "--shots", 2**63)
        assert result.returncode == 3
        assert result.stdout == ""
        assert f"error: shots must be <= {2**63 - 1}" in result.stderr
        assert "Traceback" not in result.stderr

    def test_negative_implicit_seed_is_usage_error_without_queries(self, tmp_path, monkeypatch):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 28, "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("reconstruct", "--method", "implicit", "--in", state, "--seed", -1)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "error: seed must be >= 0, got -1" in result.stderr

    @pytest.mark.parametrize("command", [
        ("gen", "--dim", 2),
        ("reconstruct", "--method", "haar-average"),
        ("reconstruct", "--method", "explicit", "--shots", 10),
        ("verify", "--suite", "additivity"),
        ("verify", "--suite", "unistochastic"),
        ("verify", "--suite", "haar-moment"),
    ], ids=["gen", "haar-average", "noisy-explicit", "additivity", "unistochastic",
            "haar-moment"])
    def test_negative_seed_is_usage_error_without_queries(self, tmp_path, monkeypatch, command):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 28, "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        where = ("--out", tmp_path / "t.json") if command[0] == "gen" else ("--in", state)
        result = run(*command, *where, "--seed", -1)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "error: seed must be >= 0, got -1" in result.stderr
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("count", [0, 1, 2, 99])
    def test_suite_all_refuses_a_count_below_the_moment_floor(self, tmp_path, monkeypatch,
                                                              count):
        state = tmp_path / "s.json"
        run("gen", "--dim", 2, "--seed", 29, "--out", state)
        monkeypatch.setattr(ValuationOracle, "query_batch",
                            lambda self, rows: pytest.fail("a query was made"))
        result = run("verify", "--suite", "all", "--in", state, "--num-bases", count)
        alone = run("verify", "--suite", "haar-moment", "--in", state, "--num-bases", count)
        assert result.returncode == alone.returncode == 3
        assert result.stdout == alone.stdout == ""
        assert result.stderr == alone.stderr
        assert "num_samples must be >= 100" in result.stderr


# Of --tol, --num-bases and a nonzero --shots, what each method and suite
# takes.  Stated here rather than read from ``cli``, so that a change to the
# CLI's table fails this test.
TAKES = {
    ("reconstruct", "--method", "explicit"): {"--shots"},
    ("reconstruct", "--method", "explicit-real"): {"--shots"},
    ("reconstruct", "--method", "implicit"): {"--tol", "--shots"},
    ("reconstruct", "--method", "haar-average"): {"--num-bases", "--shots"},
    ("reconstruct", "--method", "pauli2d"): {"--shots"},
    ("verify", "--suite", "density"): {"--tol"},
    ("verify", "--suite", "additivity"): {"--tol", "--num-bases", "--shots"},
    ("verify", "--suite", "basis-independence"): {"--tol", "--num-bases", "--shots"},
    ("verify", "--suite", "unistochastic"): {"--tol"},
    ("verify", "--suite", "haar-moment"): {"--num-bases"},
    ("verify", "--suite", "all"): {"--tol", "--num-bases", "--shots"},
}
GIVEN = {"--tol": 0.25, "--num-bases": 150, "--shots": 37}
STAND_INS = {
    **{name: SimpleNamespace(to_json=dict) for name in (
        "explicit_reconstruct", "explicit_reconstruct_real", "implicit_reconstruct",
        "haar_average_reconstruct", "pauli_reconstruct_2d")},
    **{name: CheckReport(name, 0.0, 1.0) for name in (
        "check_density", "check_additivity", "check_basis_independence",
        "check_unistochastic", "check_haar_moment")},
}


@pytest.mark.parametrize("option", list(GIVEN))
@pytest.mark.parametrize("command", list(TAKES), ids=lambda command: command[2])
def test_option_grid(tmp_path, monkeypatch, command, option):
    """A refused option is a usage error before any query; a taken one
    reaches the route or check (stood in for, so no real one runs)."""
    state = tmp_path / "s.json"
    run("gen", "--dim", 2, "--seed", 30, "--field", "real", "--out", state)
    monkeypatch.setattr(ValuationOracle, "query_batch",
                        lambda self, rows: pytest.fail("a query was made"))
    calls = []
    for name, result in STAND_INS.items():
        monkeypatch.setattr(cli, name, lambda *args, result=result: calls.append(args) or result)
    result = run(*command, "--in", state, option, GIVEN[option])
    if option not in TAKES[command]:
        assert result.returncode == 2
        assert result.stdout == "" and calls == []
        assert "usage error:" in result.stderr and option in result.stderr
        return
    assert result.returncode == 0
    # the value itself, the tol of an ImplicitConfig or the shots of a NoisyOracle
    seen = {x for args in calls for a in args
            for x in (a, getattr(a, "tol", None), getattr(a, "shots", None))
            if isinstance(x, (int, float))}
    assert GIVEN[option] in seen


# What a fuzzed file may hold in place of one of its values: wrong types, the
# NaN and +-Infinity literals ``json.dumps`` writes, huge finite numbers, and
# small integers, which also make a mismatched dim.
JUNK = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
                     True, None, "0.5", [], {}, [[0.5]]]),
    st.integers(-1, 4), st.floats(-2, 2),
)
JUNK_TEXT = ["", "{", "[1,", "NaN", "-Infinity", "1e999", "null", '"s"', "[]", "{}"]


@st.composite
def fuzzed_file(draw) -> str:
    """The text of junk JSON, or of a matrix or table file (the standard
    basis's explicit queries, so the explicit routes hit it) that may have one
    value replaced by junk or deleted."""
    kind = draw(st.sampled_from(["matrix", "table", "junk"]))
    if kind == "junk":
        return draw(st.sampled_from(JUNK_TEXT))
    d = draw(st.integers(1, 3))
    rho = random_density_matrix(d, d, seed=draw(st.integers(0, 9)),
                                field=draw(st.sampled_from(["complex", "real"])))
    if kind == "matrix":
        obj = matrix_to_json(rho.matrix)
    else:
        rows = explicit_query_vectors(standard_basis(d))
        obj = oracle_table_to_json(rows, ExactOracle(rho).query_batch(rows))
    node = obj
    while draw(st.booleans()):  # walk down to the value to spoil
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        elif isinstance(node, dict) and draw(st.booleans()):
            del node[key]
            break
        else:
            node[key] = draw(JUNK)
            break
    return json.dumps(obj)


def test_fuzzed_files_and_options_exit_cleanly(tmp_path, monkeypatch):
    """Malformed files and the option grid's options give a known exit code, no
    traceback or warning, and only strict JSON on stdout; a usage or parse
    error (exit 2 or 3) prints nothing on stdout and charges no query."""
    charged = []
    query_batch = ValuationOracle.query_batch

    def counted(self, rows):
        values = query_batch(self, rows)
        charged.append(len(values))
        return values

    monkeypatch.setattr(ValuationOracle, "query_batch", counted)
    a, b = tmp_path / "a.json", tmp_path / "b.json"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 3))
    def check(data, seed):
        command = data.draw(st.sampled_from([*TAKES, ("compare",)]))
        takes = TAKES.get(command, {"--tol"})
        # options the command takes, and at most one more of the grid's, taken or not
        options = data.draw(st.sets(st.sampled_from(sorted(takes))))
        options |= data.draw(st.sets(st.sampled_from(list(GIVEN)), max_size=1))
        a.write_text(data.draw(fuzzed_file()))
        if command == ("compare",):
            b.write_text(data.draw(fuzzed_file()))
        inputs = [a, b] if command == ("compare",) else ["--in", a, "--seed", seed]
        charged.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(*command, *inputs, *(x for o in sorted(options) for x in (o, GIVEN[o])))
        assert result.returncode in (0, 2, 3, 4, 5)
        for line in result.stdout.splitlines():
            if line.startswith(("{", "[")):
                _strict(line)
        if result.returncode in (2, 3):
            assert result.stdout == "" and charged == []

    check()
