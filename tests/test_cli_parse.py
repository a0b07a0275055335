"""``main`` parses a command line as a freshly built parser's ``parse_args`` does.

``main`` walks the leading command words of argv down the parsers that keep
``commands`` and hands the rest straight to the parser it reaches, so that
only that parser matches the options.  Two checks hold it to that:

- Differential: for each command line of a corpus, ``main`` must give what
  ``build_parser.__wrapped__().parse_args`` gives: the same Namespace, with
  its members in the same order, when parsing succeeds; the same one
  ``ValidationError:`` stderr line and exit code 2 when it refuses; and the
  same help bytes on stdout with exit code 0 for ``-h``/``--help``.
- Routing: a command line of a command path makes one ``parse_known_args``
  call, on the command's own parser (two for ``bounds sweep``, whose
  options may come before ``sweep``), so the nested routing cannot come
  back unnoticed.

Every handler is replaced by one that raises the Namespace it is given, so
no command runs and no input file is read.
"""

import contextlib
import io

import pytest

from isoflag import cli
from isoflag.cli import build_parser, main
from isoflag.errors import ValidationError
from test_cli_boundary import BASE


class Parsed(Exception):
    """What a stand-in handler raises: the Namespace ``main`` gave it."""


@pytest.fixture(autouse=True)
def handlers_raise_their_args(monkeypatch):
    def handler(args):
        raise Parsed(args)

    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, handler)


CORPUS = [
    *([*path, *base] for path, base in BASE.items()),
    ["bounds"],
    # options typed before `sweep`, and the same option on both sides of it
    ["bounds", "--format", "json", "sweep", "--max-n", "5"],
    ["bounds", "--group-order", "3", "sweep", "--max-n", "5", "--format", "csv"],
    ["bounds", "--format", "json", "sweep", "--max-n", "5", "--format", "csv"],
    ["bounds", "--n", "5", "sweep", "--max-n", "5"],
    # help at each level, alone and after other words
    ["-h"], ["--help"], ["--help=x"],
    ["repdim", "-h"], ["repdim", "--help"],
    ["repdim", "enumerate", "-h"], ["repdim", "verify", "--n", "17", "--help"],
    ["bounds", "-h"], ["bounds", "sweep", "--help"], ["embed", "-h"],
    # a leading and an inner --
    ["--", "repdim", "verify", "--n", "17"],
    ["repdim", "--", "verify", "--n", "17"],
    ["repdim", "verify", "--", "--n", "17"],
    ["repdim", "verify", "--n", "17", "--"],
    ["bounds", "--", "sweep", "--max-n", "5"],
    ["bounds", "sweep", "--max-n", "5", "--", "--format", "json"],
    # abbreviations, and the = form
    ["repdim", "enumerate", "--n", "7", "--max", "35"],
    ["repdim", "enumerate", "--n", "7", "--max-dim", "35", "--c", "3"],
    ["repdim", "enumerate", "--n=7", "--max-dim=35", "--format=csv"],
    ["bounds", "sweep", "--max", "5", "--f", "csv"],
    ["bounds", "--g", "2", "sweep", "--max-n", "5"],
    ["optimize", "--t", "sym4.txt", "--k", "1,3", "--max-i", "20"],
    # an abbreviation ambiguous at one level only
    ["--=x"], ["repdim", "--=x"], ["bounds", "--=x"],
    ["repdim", "enumerate", "--n", "7", "--max-dim", "35", "--=x"],
    ["bounds", "sweep", "--max-n", "5", "--=x"],
    # an unknown word at each level
    ["bogus"], ["repdim", "bogus"], ["bounds", "bogus"],
    ["repdim", "enumerate", "bogus"], ["bounds", "sweep", "bogus"],
    ["Repdim", "verify", "--n", "17"],
    # unrecognized extras at each level
    ["embed", "--n", "4", "--ks", "1,3", "extra"],
    ["bounds", "--n", "5", "--ks", "2", "--bogus", "1"],
    ["repdim", "enumerate", "--n", "7", "--max-dim", "35", "--bogus", "1"],
    ["repdim", "dim", "--n", "7", "--weight", "1,0,0", "extra", "words"],
    ["bounds", "sweep", "--max-n", "5", "--n", "5", "extra"],
    # missing or bad values
    ["repdim"], [], ["repdim", "enumerate"], ["repdim", "verify", "--n"],
    ["repdim", "verify", "--n", "x"], ["repdim", "verify", "--n", "-3"],
    ["repdim", "verify", "--n", "17", "--format", "xml"],
    ["bounds", "sweep"], ["bounds", "--format", "xml", "sweep", "--max-n", "5"],
    ["embed", "--n", "4", "--ks", "1,3", "--identity", "--q-file", "q.txt"],
]


def parse_args(argv):
    """The nested parse's result: a Namespace, or (exit code, stdout, stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            return build_parser.__wrapped__().parse_args(argv)
        except ValidationError as e:
            return 2, "", f"ValidationError: {e}\n"
        except SystemExit as e:
            return e.code or 0, out.getvalue(), ""


def run_main(argv):
    """``main``'s result: the Namespace its handler got, or (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Parsed as parsed:
            return parsed.args[0]
    return code, out.getvalue(), err.getvalue()


def members(result):
    """A Namespace as its (name, value) pairs in order; anything else as it is."""
    return result if isinstance(result, tuple) else list(vars(result).items())


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_main_parses_as_parse_args(argv):
    want = parse_args(argv)
    assert members(run_main(argv)) == members(want)
    if isinstance(want, tuple):  # help on stdout and exit 0, or one refusal line and exit 2
        code, out, err = want
        assert (code, err) == (0, "") and out.startswith("usage: ") or (
            code == 2 and out == "" and err.startswith("ValidationError: ") and err.count("\n") == 1)


def test_corpus_holds_every_outcome():
    codes = [o[0] if isinstance(o, tuple) else None for o in map(parse_args, CORPUS)]
    assert codes.count(None) > len(BASE) and codes.count(0) >= 9 and codes.count(2) >= 25


def parse_calls(monkeypatch, argv) -> list[str]:
    """The ``prog`` of each parser whose ``parse_known_args`` runs under ``main(argv)``."""
    calls = []
    original = cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    with pytest.raises(Parsed):
        main(argv)
    return calls


@pytest.mark.parametrize("path", list(BASE), ids=" ".join)
def test_a_command_line_is_parsed_once_by_its_own_parser(path, monkeypatch):
    parsers = [" ".join(("isoflag", *path))]
    if path == ("bounds", "sweep"):  # the bounds parser hands sweep its words
        parsers = ["isoflag bounds", *parsers]
    assert parse_calls(monkeypatch, [*path, *BASE[path]]) == parsers
