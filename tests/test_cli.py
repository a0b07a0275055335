import csv
import io
import json

import numpy as np
import pytest

from isoflag import Spectrum, block_diagonal_model, default_traceless_spectrum, make_signature
from isoflag.cli import main, read_matrix_file

from _helpers import format_matrix_file, no_convergence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, n, ks, values, name="model.txt", shift=None):
    sig = make_signature(n, ks)
    spec = Spectrum(values, sig)
    x = block_diagonal_model(spec).entries
    if shift is not None:
        x = x + shift
    path = tmp_path / name
    path.write_text(format_matrix_file(x))
    return path, sig, spec


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
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n{entry} 0\n0 1\n")
        code, out, err = run(capsys, "project", "--matrix-file", str(path), "--ks", "1",
                             "--spectrum", "1,-1")
        assert code == 2
        assert out == ""
        assert err.startswith("ValidationError:") and "finite" in err

    def test_missing_file_is_validation(self, capsys):
        code, _, err = run(capsys, "recover", "--matrix-file", "/nonexistent", "--ks", "1")
        assert code == 2
        assert err.strip()


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
        the one that computes the printed eigenvalues."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, _solver=solver, _name=name: calls.append(_name) or _solver(a))
        code, out, _ = run(capsys, "embed", "--n", "5", "--ks", "2", "--seed", "7")
        assert code == 0 and "eigenvalues: " in out
        assert calls == ["eigvalsh"]

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

    def test_dim_mixed_parity_exit_2(self, capsys):
        code, _, err = run(capsys, "repdim", "dim", "--n", "9", "--weight", "2,1,1/2,1/2")
        assert code == 2
        assert err.startswith("MixedParity:")

    def test_big_dimension_prints_decimal(self, capsys):
        code, out, _ = run(capsys, "repdim", "dim", "--n", "40", "--weight", "8,8,8,8")
        assert code == 0
        text = out.strip()
        assert text.isdigit()
        assert "e" not in text and "E" not in text

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
