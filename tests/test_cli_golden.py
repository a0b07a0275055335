"""Byte-for-byte goldens for every CLI command in every output format.

Each case runs ``isoflag.cli.main`` in-process and compares its exit code,
stdout and stderr with the record in ``cli_golden.json``.  The goldens were
recorded from the CLI as it stood before its nine handlers shared one render
path, so they pin the exact bytes that refactor had to keep.  Running this
file as a script records them again from the current code:

    PYTHONPATH=src python tests/test_cli_golden.py

The cases that go through LAPACK (embed with a random flag, recover,
project, optimize) gave the same bytes on repeated runs with numpy 2.4.6 on
OpenBLAS; a different BLAS may change the last printed digits.
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from isoflag import cli
from isoflag.cli import build_parser, main
from isoflag.errors import ValidationError

GOLDEN = Path(__file__).with_name("cli_golden.json")

MATRIX_FILES = {
    "q3.txt": "3\n0.6 -0.8 0\n0.8 0.6 0\n0 0 1\n",
    # Q diag(2, -1, -1) Q' for the first column (0.6, 0.8, 0) of q3.txt
    "model3.txt": "3\n0.08 1.44 0\n1.44 0.92 0\n0 0 -1\n",
    "sym3.txt": "3\n2 1 0\n1 0 0.5\n0 0.5 -1\n",
    "tie2.txt": "2\n1 0\n0 1\n",
}

COMMANDS = {
    "embed-identity": ["embed", "--n", "2", "--ks", "1", "--spectrum", "1,-1", "--identity"],
    "embed-q-file": ["embed", "--n", "3", "--ks", "1", "--q-file", "q3.txt"],
    "embed-seed": ["embed", "--n", "5", "--ks", "2", "--seed", "7"],
    "recover": ["recover", "--matrix-file", "model3.txt", "--n", "3", "--ks", "1",
                "--spectrum", "2,-1"],
    "project": ["project", "--matrix-file", "sym3.txt", "--ks", "1"],
    "optimize": ["optimize", "--target-file", "sym3.txt", "--ks", "1", "--max-iters", "20"],
    "repdim-dim": ["repdim", "dim", "--n", "17", "--weight", "2,0,0,0,0,0,0,0"],
    "repdim-enumerate-odd": ["repdim", "enumerate", "--n", "7", "--max-dim", "35"],
    "repdim-enumerate-even": ["repdim", "enumerate", "--n", "8", "--max-dim", "35"],
    "repdim-verify": ["repdim", "verify", "--n", "17"],
    "bounds": ["bounds", "--n", "5", "--ks", "2"],
    "bounds-group-order": ["bounds", "--n", "5", "--ks", "2", "--group-order", "2"],
    "bounds-sweep": ["bounds", "sweep", "--max-n", "5"],
    "bounds-sweep-group-order": ["bounds", "sweep", "--max-n", "5", "--group-order", "2"],
}

CASES = {
    f"{name}-{fmt}": [*argv, "--format", fmt]
    for name, argv in COMMANDS.items()
    for fmt in ("text", "json", "csv")
}
CASES.update({
    "error-bad-ks": ["embed", "--n", "5", "--ks", "3,2"],
    "error-bare-bounds": ["bounds"],
    "error-sweep-max-n-1": ["bounds", "sweep", "--max-n", "1"],
    "error-spectrum-mismatch": ["recover", "--matrix-file", "sym3.txt", "--ks", "1",
                                "--spectrum", "2,-1"],
    "error-degenerate-gap": ["project", "--matrix-file", "tie2.txt", "--ks", "1"],
})


def write_matrix_files(directory) -> None:
    for name, text in MATRIX_FILES.items():
        Path(directory, name).write_text(text)


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden(case, golden, tmp_path, monkeypatch):
    write_matrix_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[case]) == golden[case]


def test_error_cases_exit_nonzero(golden):
    codes = {case: golden[case]["code"] for case in CASES if case.startswith("error-")}
    assert codes == {
        "error-bad-ks": 2,
        "error-bare-bounds": 2,
        "error-sweep-max-n-1": 2,
        "error-spectrum-mismatch": 3,
        "error-degenerate-gap": 3,
    }
    assert golden["error-spectrum-mismatch"]["stderr"].startswith("SpectrumMismatch:")
    assert golden["error-degenerate-gap"]["stderr"].startswith("DegenerateBoundaryGap:")


@pytest.mark.parametrize("case", [case for case in CASES if not case.startswith("error-")])
def test_every_handler_returns_a_writer(case, golden, tmp_path, monkeypatch):
    """Each handler's result, called as ``(fmt, head)``, writes the golden
    stdout and returns the golden exit code, with no help from ``main``."""
    write_matrix_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = CASES[case]
    command = " ".join(itertools.takewhile(lambda word: not word.startswith("--"), argv))
    args = cli._parse(argv)
    write = getattr(cli, "cmd_" + command.replace(" ", "_"))(args)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = write(args.format, {"schema_version": 1, "command": command})
    assert (code, out.getvalue()) == (golden[case]["code"], golden[case]["stdout"])


def fresh_parse_error(argv) -> dict:
    """What ``main`` prints for argv that a newly built parser rejects: the
    parser's ``ValidationError`` as one stderr line, and exit code 2."""
    with pytest.raises(ValidationError) as refusal:
        build_parser.__wrapped__().parse_args(argv)
    return {"code": 2, "stdout": "", "stderr": f"{type(refusal.value).__name__}: {refusal.value}\n"}


@pytest.mark.parametrize("error_first", [True, False])
def test_parse_errors_leave_the_cached_parser_intact(golden, error_first, tmp_path, monkeypatch):
    write_matrix_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    errors = [["embed", "--n", "2", "--ks", "1", "--bogus"], ["bounds", "sweep"], ["repdim"], []]
    good = ["bounds-sweep-json", "embed-identity-text", "repdim-verify-csv"]
    for error, case in zip(errors, itertools.cycle(good)):
        expected = fresh_parse_error(error)
        assert expected["code"] == 2
        steps = [(error, expected), (CASES[case], golden[case])]
        for argv, want in steps if error_first else steps[::-1]:
            assert run_case(argv) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_matrix_files(scratch)
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            records = {case: run_case(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
