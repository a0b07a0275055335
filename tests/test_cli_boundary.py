"""Every option of every ``isoflag`` command, given hostile values.

The options, their commands and their ``type`` are read from
``cli.build_parser()`` itself, so a new option is probed without editing
this file.  Each option in turn gets each hostile value, in a command line
that is otherwise valid.  Each run must exit with a code in 0..3, with no
traceback and no warning, and an exit of 2 or 3 must print exactly one
stderr line, ``ErrorName: reason``.  That covers the parser's own refusals
(a value its ``type`` cannot parse, a bad choice), which argparse would
print as a usage block.

Sizes are capped so that no run allocates more than a few MB or runs long:
a value above an option's cap in ``CAPS`` is not tried.  Where a huge
``--n`` stands: ``embed``, ``repdim dim``, ``repdim enumerate`` and
``repdim verify`` refuse one above ``MAX_N`` before they build anything,
and the exact three run at ``MAX_N`` itself (tested below); ``recover``,
``project`` and ``optimize`` take n from a matrix file, whose entry count
is checked before any array is built.
"""

import argparse
import contextlib
import io
import re
import warnings

import numpy as np
import pytest

from isoflag import default_traceless_spectrum, embed, identity_flag, make_signature
from isoflag import cli, repdim
from isoflag.cli import MAX_N, build_parser, main

HOSTILE = ["-1", "0", "1", "2.5", "nan", "inf", "-inf", "1e308", "-1e308",
           "99999999999999999999", "abc", "", " ", "1j", "1,2", "0x10"]
CAPS = {"--n": 12, "--max-n": 8, "--cap": 8, "--max-iters": 50, "--max-dim": 10**4}

# A valid command line for each command, which each probe changes in one option.
BASE = {
    ("embed",): ["--n", "4", "--ks", "1,3"],
    ("recover",): ["--matrix-file", "model4.txt", "--ks", "1,3"],
    ("project",): ["--matrix-file", "sym4.txt", "--ks", "1,3"],
    ("optimize",): ["--target-file", "sym4.txt", "--ks", "1,3", "--max-iters", "20"],
    ("repdim", "dim"): ["--n", "7", "--weight", "1,0,0"],
    ("repdim", "enumerate"): ["--n", "7", "--max-dim", "35"],
    ("repdim", "verify"): ["--n", "17"],
    ("bounds",): ["--n", "5", "--ks", "2"],
    ("bounds", "sweep"): ["--max-n", "5"],
}


def commands(parser, path=()):
    """(command path, parser) for every command that runs a handler."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if path in BASE:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from commands(sub, path + (name,))


def options():
    """(command path, option string) for every option that takes a value."""
    for path, parser in commands(build_parser()):
        for action in parser._actions:
            if action.option_strings and action.nargs != 0:
                yield path, action.option_strings[0]


def over_cap(option: str, value: str) -> bool:
    try:
        number = float(value)
    except ValueError:
        return False
    return option in CAPS and np.isfinite(number) and number > CAPS[option]


def argv_with(path, option: str, value: str) -> list[str]:
    base = BASE[path]
    if option in base:
        i = base.index(option)
        base = base[:i] + base[i + 2:]
    return [*path, *base, f"{option}={value}"]


@pytest.fixture
def matrix_files(tmp_path, monkeypatch):
    sig = make_signature(4, [1, 3])
    model = embed(identity_flag(sig), default_traceless_spectrum(sig)).x.entries
    sym = np.arange(16.0).reshape(4, 4)
    for name, a in (("model4.txt", model), ("sym4.txt", sym + sym.T)):
        rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in a)
        (tmp_path / name).write_text(f"4\n{rows}\n")
    monkeypatch.chdir(tmp_path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


ALL_OPTIONS = sorted(set(options()))


def test_every_command_is_probed():
    assert {path for path, _ in ALL_OPTIONS} == set(BASE)
    assert len(ALL_OPTIONS) >= 40


@pytest.mark.parametrize("path, option", ALL_OPTIONS, ids=lambda p: " ".join(p) if isinstance(p, tuple) else p)
def test_hostile_option_values(path, option, matrix_files):
    assert run([*path, *BASE[path]])[0] == 0  # the base line is valid
    failures = []
    for value in HOSTILE:
        if over_cap(option, value):
            continue
        argv = argv_with(path, option, value)
        code, err = run(argv)
        if code not in (0, 1, 2, 3):
            failures.append((argv, code, err))
        elif code in (2, 3) and not re.fullmatch(r"[A-Za-z]+: [^\n]*\n", err):
            failures.append((argv, code, err))
        elif code in (0, 1) and err:
            failures.append((argv, code, err))
    assert failures == []


def test_parser_refusals_are_one_line(capsys):
    assert main(["embed", "--n", "x", "--ks", "1"]) == 2
    assert capsys.readouterr().err == "ValidationError: isoflag embed: argument --n: invalid int value: 'x'\n"
    assert main(["repdim"]) == 2
    assert capsys.readouterr().err == (
        "ValidationError: isoflag repdim: the following arguments are required: repdim_command\n")


def test_help_still_prints_usage_and_exits_0(capsys):
    assert main(["embed", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: isoflag embed")
    assert captured.err == ""


def refuse_to_build(*args, **kwargs):
    raise AssertionError("built something for a refused --n")


@pytest.mark.parametrize("n", [MAX_N + 1, 99999999999999999999])
def test_embed_refuses_a_huge_n_before_building_anything(capsys, monkeypatch, n):
    monkeypatch.setattr(cli, "_spectrum", refuse_to_build)
    assert main(["embed", "--n", str(n), "--ks", "1", "--identity"]) == 2
    assert capsys.readouterr() == ("", f"ValidationError: --n must be at most 8192, got {n}\n")


# each exact command, with the library call that would first build something of size n
EXACT_COMMANDS = {
    "dim": (["--weight", "1"], "parse_weight"),
    "enumerate": (["--max-dim", "1"], "enumerate_low_dim"),
    "verify": ([], "verify_classification"),
}


@pytest.mark.parametrize("n", [MAX_N + 1, 99999999999999999999])
@pytest.mark.parametrize("command", EXACT_COMMANDS)
def test_exact_commands_refuse_a_huge_n_before_building_anything(capsys, monkeypatch, command, n):
    options, builder = EXACT_COMMANDS[command]
    monkeypatch.setattr(repdim, builder, refuse_to_build)
    assert main(["repdim", command, "--n", str(n), *options]) == 2
    assert capsys.readouterr() == ("", f"ValidationError: --n must be at most 8192, got {n}\n")


@pytest.mark.parametrize("command", EXACT_COMMANDS)
def test_exact_commands_take_n_at_the_ceiling(monkeypatch, command):
    options, builder = EXACT_COMMANDS[command]
    seen = []
    monkeypatch.setattr(repdim, builder, lambda n, *rest: seen.append(n) or refuse_to_build())
    with pytest.raises(AssertionError):
        main(["repdim", command, "--n", str(MAX_N), *options])
    assert seen == [MAX_N]


def test_verify_runs_at_the_ceiling(capsys):
    assert main(["repdim", "verify", "--n", str(MAX_N)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1].startswith("VERIFIED n=8192 bound=33558527")


def test_enumerate_runs_at_the_ceiling(capsys):
    assert main(["repdim", "enumerate", "--n", str(MAX_N), "--max-dim", "1"]) == 0
    assert capsys.readouterr() == (
        f"n=8192 max_dim=1 mu1_cap=4\n({','.join(['0'] * (MAX_N // 2))}) -> 1\n", "")


def test_dim_runs_at_the_ceiling(capsys):
    assert main(["repdim", "dim", "--n", str(MAX_N), "--weight", "1"]) == 0
    assert capsys.readouterr() == ("8192\n", "")


def test_an_overflowing_step_prints_one_line(matrix_files, tmp_path):
    (tmp_path / "big.txt").write_text("3\n1000 1 0\n1 -1000 2\n0 2 500\n")
    code, err = run(["optimize", "--target-file", "big.txt", "--ks", "1", "--step", "1e308"])
    assert (code, err) == (2, "NotSymmetric: entries must be finite\n")


@pytest.mark.parametrize("spectrum, line", [
    ("nan,1", "SpectrumInvalid: entries must be finite"),
    ("nan,1,2", "SpectrumInvalid: entries must be finite"),
    ("1,2,3", "SpectrumInvalid: need 2 values for FlagSignature(n=3, ks=(1,)), got 3"),
])
def test_a_bad_spectrum_prints_the_array_readers_line(spectrum, line):
    """``Spectrum`` reads ``--spectrum`` with the array reader, so finiteness
    is refused before the count, with the reader's message."""
    code, err = run(["embed", "--n", "3", "--ks", "1", "--spectrum", spectrum, "--identity"])
    assert (code, err) == (2, line + "\n")
