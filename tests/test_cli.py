import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
import warnings

import numpy as np
import pytest

from isoflag import (
    FlagSignature,
    Spectrum,
    all_signatures,
    bound_table,
    default_traceless_spectrum,
    flag_dimension,
    make_signature,
    parse_weight,
    weyl_dim,
)
from isoflag import bounds as bounds_mod
from isoflag import cli
from isoflag.cli import build_parser, main, read_matrix_file

from _helpers import format_matrix_file, no_convergence

# 1000, 999, ..., 921: the n = 160 weight whose dimension has 5,545 digits
HUGE_WEIGHT = ",".join(map(str, range(1000, 920, -1)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, n, ks, values, name="model.txt", shift=None):
    sig = make_signature(n, ks)
    spec = Spectrum(values, sig)
    x = np.diag(spec.repeated())
    if shift is not None:
        x = x + shift
    path = tmp_path / name
    path.write_text(format_matrix_file(x))
    return path, sig, spec


def cli_env(**env):
    """The environment of a CLI subprocess: this one's, with ``env`` added and
    the package under test first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **env, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def close_after_first_line(argv, **env):
    """Run the CLI in a subprocess, with ``env`` added to the environment,
    read one line of its stdout, close the pipe, and return (that line, exit
    code, stderr)."""
    with subprocess.Popen([sys.executable, "-m", "isoflag.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(**env)) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        return first, code, proc.stderr.read()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose every write fails")
@pytest.mark.parametrize("argv", [["repdim", "verify", "--n", "17"],
                                  ["embed", "--n", "300", "--ks", "1", "--identity", "--format", "json"]])
def test_failed_stdout_write_exits_1_with_one_line(argv):
    """A stdout write that fails for another reason than a closed pipe (a full
    disk) ends with exit code 1 and one stderr line, not a traceback: at the
    last flush for the short text, in the middle of the JSON document."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "isoflag.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"OSError: [Errno 28] No space left on device\n")


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        a = np.array([[1.0, 0.25], [0.25, -3.5e-17]])
        path = tmp_path / "m.txt"
        path.write_text(format_matrix_file(a))
        b = read_matrix_file(str(path))
        assert np.array_equal(a, b)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0\n")
        with pytest.raises(Exception):
            read_matrix_file(str(path))

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_entry_exit_2(self, capsys, tmp_path, entry):
        """The reader leaves finiteness to the constructor that the matrix
        feeds, and a file's symmetric matrix is built before ``--ks`` is read:
        here ks 3 does not fit n = 2, yet the entry is what is refused."""
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n{entry} 0\n0 1\n")
        for argv, line in [
            (["recover", "--ks", "3", "--matrix-file"], "NotSymmetric: entries must be finite"),
            (["project", "--ks", "3", "--matrix-file"], "NotSymmetric: entries must be finite"),
            (["optimize", "--ks", "3", "--target-file"], "NotSymmetric: entries must be finite"),
            (["embed", "--n", "2", "--ks", "1", "--q-file"], "NotSpecialOrthogonal: entries must be finite"),
        ]:
            assert run(capsys, *argv, str(path)) == (2, "", line + "\n"), argv

    @pytest.mark.parametrize("text, reason", [
        ("", " is empty"),
        ("two\n1 0\n0 1\n", ": first line must hold the size n"),
        ("0\n", ": size must be positive, got 0"),
        ("-2\n1 0\n0 1\n", ": size must be positive, got -2"),
        ("2\n1 x\n0 1\n", ": could not convert string to float: 'x'"),
    ], ids=["empty", "size-not-an-integer", "size-zero", "size-negative", "entry-not-a-number"])
    def test_malformed_file_exit_2(self, capsys, tmp_path, text, reason):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "project", "--matrix-file", str(path), "--ks", "1",
                             "--spectrum", "1,-1")
        assert (code, out) == (2, "")
        assert err == f"ValidationError: matrix file {str(path)!r}{reason}\n"

    def test_missing_file_is_validation(self, capsys):
        code, _, err = run(capsys, "recover", "--matrix-file", "/nonexistent", "--ks", "1")
        assert code == 2
        assert err.strip()

    def test_undecodable_file_exit_2(self, capsys, tmp_path):
        """A matrix file is UTF-8 text; one that does not decode is refused
        as an unreadable file, not with a traceback."""
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2\n1 0\n0 1\xff\n")
        code, out, err = run(capsys, "project", "--matrix-file", str(path), "--ks", "1")
        assert (code, out) == (2, "")
        assert err == (f"ValidationError: cannot read matrix file {str(path)!r}: 'utf-8' codec can't decode "
                       "byte 0xff in position 9: invalid start byte\n")


class TestEmbedCommand:
    def test_identity_with_explicit_spectrum(self, capsys):
        code, out, _ = run(
            capsys, "embed", "--n", "2", "--ks", "1", "--spectrum", "1,-1",
            "--identity", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["matrix"] == [[1.0, 0.0], [0.0, -1.0]]
        assert payload["trace"] == 0.0

    def test_default_spectrum_is_traceless(self, capsys):
        code, out, _ = run(capsys, "embed", "--n", "5", "--ks", "2", "--seed", "7",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["trace"]) <= 1e-10

    def test_validation_failure_exit_2(self, capsys):
        code, _, err = run(capsys, "embed", "--n", "5", "--ks", "3,2")
        assert code == 2
        assert err.startswith("NonIncreasingKs:")
        assert "\n" not in err.strip()

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, "embed", "--n", "2", "--ks", "1", "--bogus")
        assert code == 2

    def test_deterministic_given_flags(self, capsys):
        args = ("embed", "--n", "6", "--ks", "2,4", "--seed", "3", "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_is_the_matrix(self, capsys):
        code, out, _ = run(capsys, "embed", "--n", "3", "--ks", "1", "--identity",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)

    def test_one_eigen_solve(self, capsys, monkeypatch):
        """embed's own check is the certificate, so the only eigen-solve is
        the one that computes the printed eigenvalues, and CSV, which prints
        none, makes no solver call."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, _solver=solver, _name=name: calls.append(_name) or _solver(a))
        for fmt, solves in (("text", ["eigvalsh"]), ("json", ["eigvalsh"]), ("csv", [])):
            calls.clear()
            code, out, _ = run(capsys, "embed", "--n", "5", "--ks", "2", "--seed", "7", "--format", fmt)
            assert code == 0 and ("eigenvalues" in out) == bool(solves)
            assert calls == solves, fmt

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_closed_stdout_exits_141_without_traceback(self, fmt):
        """Output larger than a pipe's buffer, whose reader closes it after one
        line, ends with exit code 141 and nothing on stderr."""
        first, code, err = close_after_first_line(
            ["embed", "--n", "300", "--ks", "1", "--identity", "--format", fmt])
        assert first.count(b",") == 299 if fmt == "csv" else first == {"text": b"n: 300\n", "json": b"{\n"}[fmt]
        assert (code, err) == (141, b"")

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_closed_unbuffered_stdout_exits_141_without_traceback(self, fmt):
        """With ``PYTHONUNBUFFERED=1`` each 64 KiB slice goes straight to the
        pipe, and a reader that closes it after one line still ends the run
        with exit code 141 and nothing on stderr."""
        first, code, err = close_after_first_line(
            ["embed", "--n", "300", "--ks", "1", "--identity", "--format", fmt], PYTHONUNBUFFERED="1")
        assert first and (code, err) == (141, b"")

    def test_q_file_input(self, capsys, tmp_path):
        q = np.eye(3)
        path = tmp_path / "q.txt"
        path.write_text(format_matrix_file(q))
        code, out, _ = run(capsys, "embed", "--n", "3", "--ks", "1",
                           "--spectrum", "2,-1", "--q-file", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["matrix"] == [[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]


class TestRecoverCommand:
    def test_recover_block_model(self, capsys, tmp_path):
        path, _, _ = write_model(tmp_path, 5, [2], (3.0, -2.0))
        code, out, _ = run(capsys, "recover", "--matrix-file", str(path), "--ks", "2",
                           "--spectrum", "3,-2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        q = np.array(payload["q"])
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-10
        assert [b["columns"] for b in payload["blocks"]] == [[0, 2], [2, 5]]

    def test_spectrum_mismatch_exit_3(self, capsys, tmp_path):
        path, _, _ = write_model(tmp_path, 5, [2], (3.0, -2.0))
        code, _, err = run(capsys, "recover", "--matrix-file", str(path), "--ks", "2",
                           "--spectrum", "4,-1")
        assert code == 3
        assert err.startswith("SpectrumMismatch:")

    def test_n_crosscheck(self, capsys, tmp_path):
        path, _, _ = write_model(tmp_path, 5, [2], (3.0, -2.0))
        code, _, _ = run(capsys, "recover", "--matrix-file", str(path), "--ks", "2",
                         "--n", "4")
        assert code == 2


class TestProjectCommand:
    def test_on_manifold_distance_zero(self, capsys, tmp_path):
        path, _, _ = write_model(tmp_path, 4, [2], (1.0, -1.0))
        code, out, _ = run(capsys, "project", "--matrix-file", str(path), "--ks", "2",
                           "--spectrum", "1,-1", "--format", "json")
        assert code == 0
        assert json.loads(out)["distance"] <= 1e-10

    def test_degenerate_boundary_exit_3(self, capsys, tmp_path):
        a = np.diag([1.0, 1.0, 0.0])
        path = tmp_path / "tie.txt"
        path.write_text(format_matrix_file(a))
        code, _, err = run(capsys, "project", "--matrix-file", str(path), "--ks", "1",
                           "--spectrum", "2,-1")
        assert code == 3
        assert err.startswith("DegenerateBoundaryGap:")
        assert "gap" in err

    def test_eigen_solver_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        path, _, _ = write_model(tmp_path, 4, [2], (1.0, -1.0))
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        code, out, err = run(capsys, "project", "--matrix-file", str(path), "--ks", "2",
                             "--spectrum", "1,-1")
        assert code == 3
        assert out == ""
        assert err.startswith("EigenSolverFailed:") and "did not converge" in err
        assert err.count("\n") == 1


class TestBadToleranceFlags:
    """A NaN, infinite or negative tolerance flag is an input error (exit 2),
    not a flag accepted silently nor a numerical failure."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_recover_eig_tol(self, capsys, tmp_path, value):
        path = tmp_path / "d.txt"
        path.write_text(format_matrix_file(np.diag([5.0, 5.0, -5.0, -5.0])))
        code, out, err = run(capsys, "recover", "--matrix-file", str(path), "--ks", "2", "--eig-tol", value)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ValidationError: eig_tol must be finite and >= 0, got {float(value)}"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_project_gap_tol(self, capsys, tmp_path, value):
        path = tmp_path / "eye.txt"
        path.write_text(format_matrix_file(np.eye(3)))  # an exact tie at the block boundary
        code, out, err = run(capsys, "project", "--matrix-file", str(path), "--ks", "1", "--gap-tol", value)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ValidationError: gap_tol must be finite and >= 0, got {float(value)}"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_optimize_grad_tol(self, capsys, tmp_path, value):
        path, _, _ = write_model(tmp_path, 4, [2], (0.5, -0.5))
        code, out, err = run(capsys, "optimize", "--target-file", str(path), "--ks", "2", "--grad-tol", value)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ValidationError: grad_tol must be finite and >= 0, got {float(value)}"]


class TestOptimizeBudgetFlags:
    """A NaN, infinite or negative ``--step`` and a negative ``--max-iters``
    are input errors naming the parameter; a zero of either returns the
    initial point."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_step(self, capsys, tmp_path, value):
        path, _, _ = write_model(tmp_path, 4, [2], (0.5, -0.5))
        code, out, err = run(capsys, "optimize", "--target-file", str(path), "--ks", "2", "--step", value)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ValidationError: step must be finite and >= 0, got {float(value)}"]

    def test_negative_max_iters(self, capsys, tmp_path):
        path, _, _ = write_model(tmp_path, 4, [2], (0.5, -0.5))
        code, out, err = run(capsys, "optimize", "--target-file", str(path), "--ks", "2", "--max-iters", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["ValidationError: need max_iters >= 0, got -1"]

    @pytest.mark.parametrize("flag, iterations", [("--step", 500), ("--max-iters", 0)])
    def test_zero_returns_init(self, capsys, tmp_path, flag, iterations):
        path, _, _ = write_model(tmp_path, 4, [2], (0.5, -0.5))
        code, out, _ = run(capsys, "optimize", "--target-file", str(path), "--ks", "2",
                           "--spectrum", "0.5,-0.5", flag, "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["iterations"], payload["converged"]) == (iterations, False)
        code, out, _ = run(capsys, "embed", "--n", "4", "--ks", "2", "--spectrum", "0.5,-0.5", "--format", "json")
        assert code == 0
        assert payload["matrix"] == json.loads(out)["matrix"]


def test_spectrum_too_large_to_model_is_an_input_error(capsys):
    """n * max|a_i| above 2^1020 is refused before q diag(a) q' overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "embed", "--n", "2", "--ks", "1", "--spectrum", "1e308,-1e308")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "SpectrumInvalid: spectrum too large: n * max|a_i| must be at most 1.124e+307, "
        "got n=2 and max|a_i| = 1.000e+308"
    ]


@pytest.mark.parametrize("command", ["embed", "optimize"])
def test_negative_seed_is_an_input_error(capsys, tmp_path, command):
    path, _, _ = write_model(tmp_path, 3, [1], (1.0, -0.5))
    argv = {"embed": ["--n", "3"], "optimize": ["--target-file", str(path)]}[command]
    code, out, err = run(capsys, command, *argv, "--ks", "1", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["ValidationError: need seed >= 0, got -1"]


class TestOverflowingEntries:
    """Finite file entries whose defect overflows give the one stderr line,
    with no numpy RuntimeWarning before it."""

    @pytest.mark.parametrize("command, rows, error", [
        (["embed", "--n", "2", "--ks", "1", "--q-file"], [[1e200, 1e200], [1e200, 1e200]],
         "NotSpecialOrthogonal: Q'Q - I has Frobenius norm inf > 1.000e-10"),
        (["project", "--ks", "1", "--matrix-file"], [[1e308, 1e308], [-1e308, 1e308]],
         "NotSymmetric: asymmetry inf exceeds 1.000e-10"),
    ])
    def test_one_stderr_line(self, capsys, tmp_path, command, rows, error):
        path = tmp_path / "big.txt"
        path.write_text(format_matrix_file(np.array(rows)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, *command, str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [error]


@pytest.mark.parametrize("command", [["project", "--matrix-file"], ["optimize", "--target-file"]])
def test_distance_past_a_double_is_a_numerical_error(capsys, tmp_path, command):
    """Entries near 1e200 or 1e300 pass the readers, but their distance to
    the model overflows: one stderr line and exit 3, not inf and a numpy
    warning.  For ``optimize`` the norm of each projected gradient overflows
    too, and the descent records it without a warning."""
    path = tmp_path / "big.txt"
    for rows in ([[1e200, 1, 0], [1, -1e200, 2], [0, 2, 5]], [[1e300, 1e300, 0], [1e300, -1e300, 0], [0, 0, 1]]):
        path.write_text(format_matrix_file(np.array(rows)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command[0], "--ks", "1", command[1], str(path))
        assert (code, out) == (3, "")
        assert err.splitlines() == ["NumericalError: distance overflows a double"]


class TestOptimizeCommand:
    def test_converges_to_embedded_target(self, capsys, tmp_path):
        path, _, _ = write_model(tmp_path, 4, [2], (0.5, -0.5))
        code, out, _ = run(capsys, "optimize", "--target-file", str(path), "--ks", "2",
                           "--spectrum", "0.5,-0.5", "--seed", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["final_grad_norm"] <= 1e-6
        assert payload["distance_to_target"] <= 1e-5
        assert len(payload["grad_norms"]) >= payload["iterations"]


class TestRepdimCommand:
    def test_dim_text_is_bare_integer(self, capsys):
        code, out, _ = run(capsys, "repdim", "dim", "--n", "17",
                           "--weight", "2,0,0,0,0,0,0,0")
        assert code == 0
        assert out.strip() == "152"

    def test_dim_spin_weight(self, capsys):
        code, out, _ = run(capsys, "repdim", "dim", "--n", "5", "--weight", "1/2,1/2")
        assert code == 0
        assert out.strip() == "4"

    def test_dim_negative_half_integer_csv(self, capsys):
        code, out, _ = run(capsys, "repdim", "dim", "--n", "8", "--weight", "1/2,1/2,1/2,-1/2",
                           "--format", "csv")
        assert code == 0
        assert out == 'weight,dimension\n"1/2,1/2,1/2,-1/2",8\n'

    def test_dim_not_dominant_prints_negative_half_integer(self, capsys):
        code, out, err = run(capsys, "repdim", "dim", "--n", "8", "--weight", "1/2,1/2,1/2,-3/2")
        assert (code, out) == (2, "")
        assert err == "NotDominant: need mu_3 >= |mu_4| for even n: 1/2,1/2,1/2,-3/2\n"

    def test_dim_below_n_3_is_not_dominant(self, capsys):
        code, out, err = run(capsys, "repdim", "dim", "--n", "2", "--weight", "1")
        assert (code, out, err) == (2, "", "NotDominant: need n >= 3, got 2\n")

    def test_dim_mixed_parity_exit_2(self, capsys):
        code, _, err = run(capsys, "repdim", "dim", "--n", "9", "--weight", "2,1,1/2,1/2")
        assert code == 2
        assert err.startswith("MixedParity:")

    def test_dim_third_is_mixed_parity(self, capsys):
        code, out, err = run(capsys, "repdim", "dim", "--n", "5", "--weight", "1/3")
        assert (code, out) == (2, "")
        assert err == "MixedParity: entry '1/3' is not an integer or half-integer\n"

    def test_big_dimension_prints_decimal(self, capsys):
        code, out, _ = run(capsys, "repdim", "dim", "--n", "40", "--weight", "8,8,8,8")
        assert code == 0
        text = out.strip()
        assert text.isdigit()
        assert "e" not in text and "E" not in text

    @pytest.fixture
    def default_int_limit(self):
        """Run the test under CPython's default 4,300-digit int/str limit."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_dimension_past_the_int_str_limit(self, capsys, default_int_limit, fmt):
        code, out, err = run(capsys, "repdim", "dim", "--n", "160", "--weight", HUGE_WEIGHT,
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == default_int_limit
        sys.set_int_max_str_digits(0)
        digits = str(weyl_dim(parse_weight(160, HUGE_WEIGHT)))
        sys.set_int_max_str_digits(default_int_limit)
        assert len(digits) == 5545
        expected = {
            "text": f"{digits}\n",
            "json": f'  "dimension": {digits}\n}}\n',
            "csv": f"weight,dimension\n\"{HUGE_WEIGHT}\",{digits}\n",
        }[fmt]
        assert out.endswith(expected)

    def test_error_while_rendering_restores_the_int_str_limit(
        self, capsys, default_int_limit, monkeypatch
    ):
        def refuse():
            raise cli.ValidationError("cannot render")

        monkeypatch.setattr(cli, "cmd_repdim_dim",
                            lambda args: cli.Output(json=refuse, csv=refuse, text=refuse))
        code, _, err = run(capsys, "repdim", "dim", "--n", "5", "--weight", "1")
        assert (code, err) == (2, "ValidationError: cannot render\n")
        assert sys.get_int_max_str_digits() == default_int_limit

    @pytest.mark.parametrize("cap", ["abc", "1/0"])
    @pytest.mark.parametrize("command", [["enumerate", "--max-dim", "152"]])
    def test_cap_that_is_not_a_number_exit_2(self, capsys, command, cap):
        code, out, err = run(capsys, "repdim", command[0], "--n", "17", *command[1:], "--cap", cap)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"ValidationError: mu1_cap must be a half-integer >= 2, got {cap!r}"
        ]

    def test_verify_takes_no_cap(self, capsys):
        """A boxed walk is not a proof, so ``verify`` has no ``--cap`` to
        print ``VERIFIED`` after a partial search."""
        assert run(capsys, "repdim", "verify", "--n", "17", "--cap", "2") == (
            2, "", "ValidationError: isoflag: unrecognized arguments: --cap 2\n")

    def test_enumerate_rows(self, capsys):
        code, out, _ = run(capsys, "repdim", "enumerate", "--n", "17", "--max-dim", "152",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["weight", "dimension", "spin", "real_form", "sign_pair"]
        assert len(rows) == 5
        assert [r[1] for r in rows[1:]] == ["1", "17", "136", "152"]

    def test_enumerate_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "repdim", "enumerate", "--n", "17", "--max-dim", "135",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
        assert [h["dimension"] for h in payload["hits"]] == [1, 17]

    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "repdim", "verify", "--n", "17")
        assert code == 0
        assert "VERIFIED" in out
        assert out.count("PASS") == 4

    def test_verify_below_hypothesis_exit_2(self, capsys):
        code, _, err = run(capsys, "repdim", "verify", "--n", "16")
        assert code == 2
        assert err.startswith("HypothesisViolated:")


class TestBoundsCommand:
    def test_gr25_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "5", "--ks", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["flag_dim"], payload["isospectral"], payload["gunther"],
                payload["whitney"]) == (6, 14, 33, 12)

    def test_sweep_all_gunther_hold(self, capsys):
        code, out, _ = run(capsys, "bounds", "sweep", "--max-n", "8", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + sum(2 ** (n - 1) - 1 for n in range(2, 9))
        gcol = rows[0].index("isospectral_lt_gunther")
        assert all(r[gcol] == "True" for r in rows[1:])

    def test_out_of_range_ks_exit_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "5", "--ks", "5")
        assert code == 2
        assert err.startswith("KOutOfRange:")

    def test_missing_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, "bounds")
        assert code == 2

    def test_group_order_column(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "5", "--ks", "2",
                           "--group-order", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["wang"] == 24
        assert payload["comparisons"]["wang_composed_gt_isospectral"] is True


def reference_sweep(max_n: int, group_order) -> dict[str, tuple[int, str]]:
    """``bounds sweep`` rendered one signature at a time, the way the sweep
    did before it grouped signatures: a validated signature and a
    ``bound_table`` per row, one ``json.dumps`` of the whole document, one
    ``csv.writer`` row and one f-string line per row.  Maps each format to
    (exit code, stdout)."""
    reports = [
        bound_table(FlagSignature(n, ks), group_order)
        for n in range(2, max_n + 1)
        for p in range(1, n)
        for ks in itertools.combinations(range(1, n), p)
    ]
    failures = sum(not r.comparisons["isospectral_lt_gunther"] for r in reports)
    rows = [
        {
            "n": r.signature.n,
            "ks": list(r.signature.ks),
            "flag_dim": r.flag_dim,
            "isospectral": r.isospectral,
            "gunther": r.gunther,
            "whitney": r.whitney,
            "wang": r.wang,
            "isospectral_label": r.isospectral_label,
            "comparisons": dict(r.comparisons),
        }
        for r in reports
    ]
    document = {"schema_version": 1, "command": "bounds sweep", "max_n": max_n, "rows": rows,
                "gunther_failures": failures}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "ks", "flag_dim", "isospectral", "gunther", "whitney", "wang",
                     "isospectral_lt_gunther", "whitney_condition"])
    for r in reports:
        writer.writerow([r.signature.n, " ".join(map(str, r.signature.ks)), r.flag_dim,
                         r.isospectral, r.gunther, r.whitney, "" if r.wang is None else r.wang,
                         r.comparisons["isospectral_lt_gunther"], r.comparisons["whitney_condition"]])
    lines = [
        f"n={r.signature.n} ks={','.join(map(str, r.signature.ks))} flag_dim={r.flag_dim} "
        f"isospectral={r.isospectral} gunther={r.gunther} whitney={r.whitney}"
        for r in reports
    ]
    lines.append(f"rows: {len(reports)}  gunther_failures: {failures}")
    code = 0 if failures == 0 else 1
    return {
        "json": (code, json.dumps(document, indent=2) + "\n"),
        "csv": (code, buf.getvalue()),
        "text": (code, "".join(line + "\n" for line in lines)),
    }


def sweep_argv(max_n: int, group_order, fmt: str) -> list[str]:
    argv = ["bounds", "sweep", "--max-n", str(max_n), "--format", fmt]
    return argv if group_order is None else [*argv, "--group-order", str(group_order)]


def sweep_groups(max_n: int) -> dict[tuple[int, int], int]:
    """Rows of a sweep per (n, flag_dim) group."""
    sizes: dict[tuple[int, int], int] = {}
    for n in range(2, max_n + 1):
        for sig in all_signatures(n):
            key = (n, flag_dimension(sig))
            sizes[key] = sizes.get(key, 0) + 1
    return sizes


class TestBoundsSweep:
    # 10**12 puts the Wang column above 2**32
    @pytest.mark.parametrize("group_order", [None, 3, 1, 10**12])
    @pytest.mark.parametrize("max_n", range(2, 11))
    def test_matches_per_signature_reference(self, capsys, max_n, group_order):
        for fmt, (code, out) in reference_sweep(max_n, group_order).items():
            assert run(capsys, *sweep_argv(max_n, group_order, fmt)) == (code, out, ""), fmt

    def test_failures_counted_per_signature(self, capsys, monkeypatch):
        target = (6, flag_dimension(make_signature(6, [2, 4])))
        size = sweep_groups(6)[target]
        assert size > 1
        columns = bounds_mod._columns
        n_of = {bounds_mod.isospectral_bound(n): n for n in range(2, 7)}

        def failing(iso, m, group_order):
            gunther, whitney, wang, lt_gunther, *rest = columns(iso, m, group_order)
            if (n_of[iso], m) == target:
                lt_gunther = False
            return gunther, whitney, wang, lt_gunther, *rest

        monkeypatch.setattr(bounds_mod, "_columns", failing)
        code, out, _ = run(capsys, *sweep_argv(6, None, "json"))
        assert code == 1 and json.loads(out)["gunther_failures"] == size
        code, out, _ = run(capsys, *sweep_argv(6, None, "text"))
        assert code == 1 and out.splitlines()[-1].endswith(f"gunther_failures: {size}")
        code, out, _ = run(capsys, *sweep_argv(6, None, "csv"))
        rows = list(csv.reader(io.StringIO(out)))
        gcol = rows[0].index("isospectral_lt_gunther")
        assert code == 1 and [r[gcol] for r in rows[1:]].count("False") == size

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("group_order", ["0", "-1"])
    def test_bad_group_order_writes_nothing(self, capsys, fmt, group_order):
        code, out, err = run(capsys, *sweep_argv(3, group_order, fmt))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ValidationError: need group_order >= 1, got {group_order}"]

    def test_memory_holds_a_level_not_the_output(self, monkeypatch):
        class Sink:
            """A stdout that counts the bytes written and keeps none."""

            size = 0

            def write(self, text):
                self.size += len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(sweep_argv(15, None, "json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 10_000_000
        assert peak < sink.size

    def test_one_core_call_per_group(self, capsys, monkeypatch):
        calls = []
        columns = bounds_mod._columns
        n_of = {bounds_mod.isospectral_bound(n): n for n in range(2, 11)}
        monkeypatch.setattr(bounds_mod, "_columns", lambda iso, m, group_order: calls.append(
            (n_of[iso], m)) or columns(iso, m, group_order))
        for fmt in ("text", "csv", "json"):
            for group_order in (None, 3):
                calls.clear()
                code, _, _ = run(capsys, *sweep_argv(10, group_order, fmt))
                assert code == 0
                assert sorted(calls) == sorted(sweep_groups(10)), (fmt, group_order)

    def test_one_n_only_call_per_n(self, capsys, monkeypatch):
        calls = []
        n_columns = bounds_mod._n_columns
        monkeypatch.setattr(bounds_mod, "_n_columns", lambda n: calls.append(n) or n_columns(n))
        for fmt in ("text", "csv", "json"):
            for group_order in (None, 3):
                calls.clear()
                code, _, _ = run(capsys, *sweep_argv(10, group_order, fmt))
                assert code == 0
                assert calls == list(range(2, 11)), (fmt, group_order)

    def test_no_flag_dimension_call(self, capsys, monkeypatch):
        calls = []
        dim = bounds_mod.flag_dimension
        monkeypatch.setattr(bounds_mod, "flag_dimension", lambda sig: calls.append(sig) or dim(sig))
        for fmt in ("text", "csv", "json"):
            for group_order in (None, 3):
                code, _, _ = run(capsys, *sweep_argv(10, group_order, fmt))
                assert code == 0
        assert calls == []

    def test_no_signature_built(self, capsys, monkeypatch):
        built = []
        validate = FlagSignature.__post_init__
        monkeypatch.setattr(FlagSignature, "__post_init__", lambda sig: built.append(sig) or validate(sig))
        for name, module in list(sys.modules.items()):
            if name.startswith("isoflag") and hasattr(module, "_prechecked"):
                prechecked = module._prechecked
                monkeypatch.setattr(module, "_prechecked",
                                    lambda cls, _p=prechecked, **f: built.append(cls) or _p(cls, **f))
        for fmt in ("text", "csv", "json"):
            for group_order in (None, 3):
                code, _, _ = run(capsys, *sweep_argv(10, group_order, fmt))
                assert code == 0
        assert built == []

    # SHA-256 of the stdout of `bounds sweep --max-n 13`, taken before the
    # sweep walked its chains: the largest sweep the benchmark runs.
    MAX_N_13_DIGESTS = {
        ("text", None): "e59bf1e46fd1b9635e13a93f7f9cc5f2bdfc2de948c3a8d9d342de91cc3473ae",
        ("csv", None): "6402ec3fd0ac9d29ff186ac217f37333df66b75d54119ec2f5f10e8dbdab6286",
        ("json", None): "410021baa07f86cf9a6989036adce922ea5d9c94a7566d661abc7d6f61dfabc7",
        ("text", 3): "e59bf1e46fd1b9635e13a93f7f9cc5f2bdfc2de948c3a8d9d342de91cc3473ae",
        ("csv", 3): "b1edcd6bf9bae13949717322a0f863ab97391fa464810dce2786a71aa5aeaa6e",
        ("json", 3): "df2a3f8e8d01d14180155e0c84eb59a20ca9f1196f4e354b9ef72b1cb43d6550",
    }

    @pytest.mark.parametrize("fmt, group_order", sorted(MAX_N_13_DIGESTS, key=str))
    def test_max_n_13_bytes(self, capsys, fmt, group_order):
        code, out, err = run(capsys, *sweep_argv(13, group_order, fmt))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.MAX_N_13_DIGESTS[fmt, group_order]

    def test_closed_stdout_exits_141_without_traceback(self):
        """A reader that closes the pipe early (``| head -1``) ends the sweep
        with exit code 141, as SIGPIPE would, and nothing on stderr."""
        first, code, err = close_after_first_line(sweep_argv(14, None, "text"))
        assert first == b"n=2 ks=1 flag_dim=1 isospectral=2 gunther=7 whitney=2\n"
        assert (code, err) == (141, b"")

    def test_one_json_encoding_per_group(self, capsys, monkeypatch):
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
        code, out, _ = run(capsys, *sweep_argv(10, None, "json"))
        assert code == 0 and len(json.loads(out)["rows"]) == sum(sweep_groups(10).values())
        assert len(calls) <= len(sweep_groups(10)) + 1


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_bounds_options_before_sweep_stand(self, capsys, fmt):
        for group_order in (None, 3):
            expected = run(capsys, *sweep_argv(4, group_order, fmt))
            assert expected[0] == 0
            options = ["--format", fmt] + ([] if group_order is None else ["--group-order", str(group_order)])
            assert run(capsys, "bounds", *options, "sweep", "--max-n", "4") == expected
            # one typed after `sweep` wins
            other = ["--format", "csv" if fmt == "text" else "text"]
            if group_order is not None:
                other += ["--group-order", "7"]
            assert run(capsys, "bounds", *other, "sweep", "--max-n", "4", *options) == expected
        if fmt == "csv":
            _, out, _ = run(capsys, "bounds", "--group-order", "3", "sweep", "--max-n", "2", "--format", "csv")
            assert out.splitlines()[1] == "2,1,1,2,7,2,6,True,True"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("flags", [["--n", "5"], ["--ks", "1"], ["--n", "5", "--ks", "1"]])
    def test_sweep_refuses_n_and_ks(self, capsys, fmt, flags):
        code, out, err = run(capsys, "bounds", *flags, "sweep", "--max-n", "2", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["ValidationError: bounds sweep takes no --n or --ks"]

    def test_main_calls_the_handler_bound_at_call_time(self, capsys, monkeypatch):
        build_parser()
        seen = []
        handler = cli.cmd_bounds_sweep
        monkeypatch.setattr(cli, "cmd_bounds_sweep", lambda args: seen.append(args.max_n) or handler(args))
        code, out, _ = run(capsys, "bounds", "sweep", "--max-n", "3")
        assert code == 0 and out.endswith("rows: 4  gunther_failures: 0\n")
        assert seen == [3]


class TestJsonContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ("embed", "--n", "4", "--ks", "1,3", "--seed", "2"),
            ("repdim", "dim", "--n", "7", "--weight", "1,1,0"),
            ("repdim", "enumerate", "--n", "9", "--max-dim", "50"),
            ("repdim", "verify", "--n", "17"),
            ("bounds", "--n", "6", "--ks", "3"),
        ],
    )
    def test_schema_version_and_round_trip(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert json.dumps(payload) == json.dumps(json.loads(json.dumps(payload)))
