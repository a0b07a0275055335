"""``main`` parses a command line as a freshly built parser's ``parse_args`` does.

Each parser on a command path reads its own exact ``--option value`` pairs
without argparse's matcher, then hands the words after its command word to
that command's parser, which reads them by the same rule.  A line that is
not plain at some level goes to argparse's matcher at that level.  Four
checks hold it to that:

- Differential: for each command line of a corpus, ``main`` must give what
  ``build_parser.__wrapped__().parse_args`` gives with argparse's own
  ``parse_known_args`` at every level: the same Namespace, with
  its members in the same order, when parsing succeeds; the same one
  ``ValidationError:`` stderr line and exit code 2 when it refuses; and the
  same help bytes on stdout with exit code 0 for ``-h``/``--help``.
  A Hypothesis test draws further lines for every command from the option
  strings its parser declares, and for ``bounds sweep`` words before
  ``sweep`` from those of ``bounds``.
- Routing: each parser on the command path runs ``parse_known_args`` once,
  outermost first, so a level parsing twice cannot come back unnoticed.
- Plain reading: a plain line (exact ``--option value`` pairs, at each
  level, before the command word) is read without argparse's own
  ``parse_known_args`` or ``_parse_optional``, and each line of
  ``NEAR_PLAIN``, which only looks plain, reaches the matcher.
- Tree: the reader serves only the parser tree ``build_parser`` makes, and
  ``reader_faults`` finds in that tree none of the shapes it would misread,
  which it finds in a parser of each shape built here.

Every handler is replaced by one that raises the Namespace it is given, so
no command runs and no input file is read.
"""

import argparse
import contextlib
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isoflag import cli
from isoflag.cli import build_parser, main
from isoflag.errors import ValidationError
from test_cli_boundary import BASE, HOSTILE, commands


class Parsed(Exception):
    """What a stand-in handler raises: the Namespace ``main`` gave it."""


@pytest.fixture(autouse=True)
def handlers_raise_their_args(monkeypatch):
    def handler(args):
        raise Parsed(args)

    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, handler)


def reversed_options(words):
    """``--option value`` pairs in the reverse order."""
    return [word for i in range(len(words) - 2, -1, -2) for word in words[i:i + 2]]


# Lines next to plain that the parser's own matcher must read: a value
# beginning with "-", an empty or refused value, a missing required option,
# the = form, an abbreviation, help followed by a word, a flag, and, before
# `sweep`, an abbreviation, the = form, and after it a word that abbreviates
# two options of `bounds`.
NEAR_PLAIN = [
    ["repdim", "verify", "--n", "-3"],
    ["repdim", "dim", "--n", "7", "--weight", "-1,0"],
    ["repdim", "verify", "--n", ""],
    ["project", "--matrix-file", "sym4.txt", "--ks", "--n"],
    ["repdim", "verify", "--n", "x"],
    ["repdim", "verify", "--n", "17", "--format", "xml"],
    ["repdim", "enumerate", "--n", "7"],
    ["repdim", "verify", "--n", "17", "--format=json"],
    ["repdim", "enumerate", "--n", "7", "--max", "35"],
    ["repdim", "verify", "--n", "17", "--help", "x"],
    ["embed", "--n", "4", "--ks", "1,3", "--identity"],
    ["bounds", "--g", "2", "sweep", "--max-n", "5"],
    ["bounds", "--format=json", "sweep", "--max-n", "5"],
    ["bounds", "sweep", "--max-n", "5", "--=x"],
]

# Plain lines with options typed before `sweep`, and the same option on both
# sides of it.
PLAIN_BEFORE_SWEEP = [
    ["bounds", "--format", "json", "sweep", "--max-n", "5"],
    ["bounds", "--group-order", "3", "sweep", "--max-n", "5", "--format", "csv"],
    ["bounds", "--group-order", "2", "sweep", "--max-n", "5", "--group-order", "3"],
    ["bounds", "--format", "json", "sweep", "--max-n", "5", "--format", "csv"],
    ["bounds", "--n", "5", "sweep", "--max-n", "5"],
]

# Plain lines with an option of `embed`'s mutually exclusive group, whose
# other option, the flag --identity, no plain line holds, and with more options.
PLAIN_MORE = [
    ["embed", "--n", "4", "--ks", "1,3", "--q-file", "q.txt"],
    ["embed", "--n", "4", "--ks", "1,3", "--seed", "2", "--format", "json"],
    ["bounds", "sweep", "--max-n", "10", "--format", "csv"],
]

CORPUS = [
    *([*path, *base] for path, base in BASE.items()),
    *([*path, *reversed_options(base)] for path, base in BASE.items() if len(base) > 2),
    *NEAR_PLAIN,
    ["bounds"],
    # a repeated option, which keeps its last value
    ["repdim", "verify", "--n", "7", "--n", "8"],
    *PLAIN_BEFORE_SWEEP,
    *PLAIN_MORE,
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
    ["bounds", "sweep", "--max-n", "5", "--", "--=x"],
    # abbreviations, and the = form
    ["repdim", "enumerate", "--n", "7", "--max-dim", "35", "--c", "3"],
    ["repdim", "enumerate", "--n=7", "--max-dim=35", "--format=csv"],
    ["bounds", "sweep", "--max", "5", "--f", "csv"],
    ["optimize", "--t", "sym4.txt", "--k", "1,3", "--max-i", "20"],
    # an abbreviation ambiguous at one level only
    ["--=x"], ["repdim", "--=x"], ["bounds", "--=x"],
    ["repdim", "enumerate", "--n", "7", "--max-dim", "35", "--=x"],
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
    ["bounds", "sweep"], ["bounds", "--format", "xml", "sweep", "--max-n", "5"],
    ["embed", "--n", "4", "--ks", "1,3", "--identity", "--q-file", "q.txt"],
]


def parse_args(argv):
    """The nested parse's result, by argparse's own matcher at every level
    (no plain reading): a Namespace, or (exit code, stdout, stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(
            cli._Parser, "parse_known_args", argparse.ArgumentParser.parse_known_args):
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
    """A Namespace as its (name, value type, value repr) triples in order, so
    that a nan value equals itself; anything else as it is."""
    return result if isinstance(result, tuple) else [
        (name, type(value), repr(value)) for name, value in vars(result).items()]


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


def parse_calls(monkeypatch, argv, owner=cli._Parser, method="parse_known_args") -> list[str]:
    """The ``prog`` of the parser of each ``owner.method`` call under
    ``main(argv)``, by default each parser whose ``parse_known_args`` runs."""
    calls = []
    original = getattr(owner, method)

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, counted)
    with pytest.raises(Parsed):
        main(argv)
    return calls


@pytest.mark.parametrize("path", list(BASE), ids=" ".join)
def test_a_command_line_is_parsed_once_by_its_own_parser(path, monkeypatch):
    parsers = [" ".join(("isoflag", *path[:i])) for i in range(len(path) + 1)]
    assert parse_calls(monkeypatch, [*path, *BASE[path]]) == parsers


def argparse_calls(monkeypatch, argv) -> list[str]:
    """The ``prog`` of each parser whose argparse ``parse_known_args`` (its
    own matcher, not the plain reader) runs under ``main(argv)``."""
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    run_main(argv)
    return calls


@pytest.mark.parametrize("path", list(BASE), ids=" ".join)
@pytest.mark.parametrize("order", [list, reversed_options])
def test_a_plain_line_is_read_without_the_matcher(path, order, monkeypatch):
    assert argparse_calls(monkeypatch, [*path, *order(BASE[path])]) == []


@pytest.mark.parametrize("argv", PLAIN_BEFORE_SWEEP, ids=" ".join)
def test_options_before_sweep_are_read_without_the_matcher(argv, monkeypatch):
    assert argparse_calls(monkeypatch, argv) == []


@pytest.mark.parametrize("argv", [
    *([*path, *BASE[path]] for path in BASE), *PLAIN_BEFORE_SWEEP, *PLAIN_MORE,
], ids=" ".join)
def test_a_plain_line_classifies_no_word(argv, monkeypatch):
    # _parse_optional: argparse's classification of one word as an option or not
    assert parse_calls(monkeypatch, argv, argparse.ArgumentParser, "_parse_optional") == []
    assert argparse_calls(monkeypatch, argv) == []


@pytest.mark.parametrize("argv", NEAR_PLAIN, ids=" ".join)
def test_a_near_plain_line_reaches_the_matcher(argv, monkeypatch):
    assert argparse_calls(monkeypatch, argv)


def test_an_option_that_is_not_one_value_reaches_the_matcher():
    # no command declares such an option; a parser built here does
    parser = cli._Parser(prog="t")
    parser.add_argument("--n", type=int)
    parser.add_argument("--one", nargs=1)
    for argv in (["--one", "5"], ["--n", "5", "--one", "6"]):
        got, want = parser.parse_known_args(argv), argparse.ArgumentParser.parse_known_args(parser, argv)
        assert (vars(got[0]), got[1]) == (vars(want[0]), want[1])


# The option actions the reader reads as argparse does: a store action with no
# nargs by its value, a flag or help by declining the line.
READ_ACTIONS = (argparse._StoreAction, argparse._StoreTrueAction, argparse._HelpAction)


def reader_faults(parser, path=()) -> list[tuple[tuple, str, str]]:
    """(command path, kind, what) for each shape in ``parser``'s tree that the
    plain reader would read otherwise than argparse's matcher:

    - "action": an option that is not a store, ``store_true`` or help action;
    - "group": a mutually exclusive group that is required or holds two
      one-value options, which argparse refuses together;
    - "abbrev": an option of a command, not of its parent, that is a prefix of
      two or more of the parent's option strings, which argparse's matcher at
      the parent refuses after the command word."""
    faults = []
    for action in parser._actions:
        if action.option_strings and type(action) not in READ_ACTIONS:
            faults.append((path, "action", action.option_strings[0]))
    for group in parser._mutually_exclusive_groups:
        if group.required or sum(a.nargs is None for a in group._group_actions) > 1:
            faults.append((path, "group", " ".join(a.option_strings[0] for a in group._group_actions)))
    for action in parser._actions:
        for name, sub in (action.choices.items() if isinstance(action, argparse._SubParsersAction) else ()):
            for option in sub._option_string_actions.keys() - parser._option_string_actions.keys():
                if sum(s.startswith(option) for s in parser._option_string_actions) > 1:
                    faults.append(((*path, name), "abbrev", option))
            faults += reader_faults(sub, (*path, name))
    return faults


def test_the_parser_tree_holds_what_the_plain_reader_assumes():
    assert reader_faults(build_parser.__wrapped__()) == []


def outcome(parser, argv):
    """``parser.parse_known_args(argv)`` as (members, extras), or its refusal."""
    try:
        namespace, extras = parser.parse_known_args(argv)
    except ValidationError as e:
        return str(e)
    return vars(namespace), extras


# One parser of each shape ``reader_faults`` finds, built by declaring its options.
def appending(parser):
    parser.add_argument("--all", action="append")


def grouped(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--a")
    group.add_argument("--b")


def required_group(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", action="store_true")
    group.add_argument("--b", action="store_true")


def abbreviated(parser):
    parser.add_argument("--ga")
    parser.add_argument("--gb")
    parser.add_subparsers(dest="command").add_parser("sub").add_argument("--g")


@pytest.mark.parametrize("declare, fault, argv", [
    (appending, ((), "action", "--all"), ["--all", "5"]),
    (grouped, ((), "group", "--a --b"), ["--a", "1", "--b", "2"]),
    (required_group, ((), "group", "--a --b"), []),
    (abbreviated, (("sub",), "abbrev", "--g"), ["sub", "--g", "1"]),
], ids=["append", "group", "required group", "abbreviation"])
def test_the_tree_check_finds_each_shape_the_reader_misreads(declare, fault, argv):
    parser = cli._Parser(prog="t")
    declare(parser)
    assert reader_faults(parser) == [fault]
    with mock.patch.object(cli._Parser, "parse_known_args", argparse.ArgumentParser.parse_known_args):
        want = outcome(parser, argv)
    assert outcome(parser, argv) != want  # the plain reader misreads the line


def values(action) -> st.SearchStrategy[str]:
    """Words for an option's value: from its type's domain or its choices,
    three times in four, and hostile ones."""
    if action.choices is not None:
        domain = st.sampled_from(list(action.choices))
    elif action.type is int:
        domain = st.integers(-5, 40).map(str)
    elif action.type is float:
        domain = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    else:
        domain = st.sampled_from(["1,3", "2", "sym4.txt", "1/2,1/2"])
    hostile = st.sampled_from([*HOSTILE, "-", "--", "--n", "=", "1_0", " 7 "])
    return st.one_of(domain, domain, domain, hostile)


PARSERS = dict(commands(build_parser()))


def option_words(draw, parser) -> list[str]:
    """Up to three drawings from the option strings ``parser`` declares:
    ``option value`` pairs, mostly, and options alone (so odd word counts),
    the = form, also after the bare prefix (``--=x``, which abbreviates every
    ``--`` option), abbreviations, repeats, stray words and, rarely, help or
    ``--``."""
    options = [(s, action) for action in parser._actions if "--help" not in action.option_strings
               for s in action.option_strings]
    words = []
    for _ in range(draw(st.integers(0, 3))):
        option, action = draw(st.sampled_from(options))
        kind = draw(st.sampled_from(
            ["pair"] * 12 + ["alone", "equals", "abbrev", "prefix equals", "stray", "help", "--"]))
        if kind == "abbrev":
            option = option[:draw(st.integers(2, max(2, len(option) - 1)))]
        if kind == "help":
            words.append(draw(st.sampled_from(["-h", "--help", "--he"])))
        elif kind == "--":
            words.append(kind)
        elif kind.endswith("equals"):
            words.append(f"{'--' if kind == 'prefix equals' else option}={draw(values(action))}")
        elif kind == "stray":
            words.append(draw(values(action)))
        else:
            words += [option] if kind == "alone" else [option, draw(values(action))]
    return words


@st.composite
def command_lines(draw):
    """A command path and words drawn from the option strings its parser
    declares, after its ``BASE`` line three times in four, and, before the
    command word of ``bounds sweep``, words drawn from those of ``bounds``."""
    path = draw(st.sampled_from(list(PARSERS)))
    before = option_words(draw, PARSERS[path[:-1]]) if path[:-1] in PARSERS else []
    words = [*draw(st.sampled_from([[], *[BASE[path]] * 3])), *option_words(draw, PARSERS[path])]
    return [*path[:-1], *before, path[-1], *words]


@given(command_lines())
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_parses_drawn_lines_as_parse_args(argv):
    assert members(run_main(argv)) == members(parse_args(argv))
