"""Command-line surface.

Every command is deterministic given its flags and emits text, JSON (with a
top-level ``schema_version``), or CSV.  Exit codes are a stable contract:
0 success, 1 a failed verification row (``repdim verify``, ``bounds
sweep``), 2 input validation failure, 3 numerical/degeneracy failure; on
an exit of 2 or 3 a single machine-parsable line ``ErrorName: reason`` goes
to stderr, and no warning.  That holds for the parser's own refusals too
(an unknown or missing option, a value its ``type`` cannot parse), which
are one ``ValidationError:`` line instead of argparse's usage block.  Each
parser on a command path reads its exact ``--option value`` pairs without
argparse's matcher and hands the words after its command word to that
command's parser; any other line goes to argparse at that level, so help
and refusal text are argparse's.  When the reader of stdout closes it early
(``| head``), the output stops without a traceback and the exit code is
141 (128 + SIGPIPE), as for a process that SIGPIPE ended, whatever the
line length: an unbuffered stdout gets one buffered layer, so the rest of
any write meets the closed pipe.  Any other failed write to stdout (a full
disk) exits 1 with the one stderr line ``OSError: reason``, and no traceback.

Matrix files are plain text: the first line holds the size n, followed by
n rows of n whitespace-separated finite decimal reals.  Floating-point
output is printed with 17 significant digits so values round-trip
bit-faithfully.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import repdim as repdim_mod
from .embed import _eigh, embed, recover
from .errors import NumericalError, ValidationError, _at_least
from .flagcore import (
    EIG_TOL,
    SPECTRUM_GAP_TOL,
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    _frobenius,
    _quietly,
    default_traceless_spectrum,
    identity_flag,
    make_signature,
    random_flag_point,
)
from .geometry import default_step, gradient_descent, nearest_point

SCHEMA_VERSION = 1

# The largest --n a command takes: embed holds about five n x n doubles at
# once, about 2.5 GiB at this n, and the exact commands build weights of
# n // 2 entries and integers of about n // 2 bits
MAX_N = 2**13


@dataclass(frozen=True)
class Output:
    """A command's result as its writer.  Every handler returns a writer
    ``(fmt, head) -> exit code``, which writes the output in format ``fmt``
    to stdout (a JSON document opens with the members of ``head``) and
    returns the exit code.  An ``Output`` holds one formatting function per
    format and calls only the requested one, so a command never formats
    output that is not printed.  ``bounds sweep``, whose output is too
    large to hold, returns a writer that renders its rows as it writes."""

    json: Callable[[], dict]
    csv: Callable[[], Iterable[Sequence]]
    text: Callable[[], Iterable[str]]
    code: int = 0

    def __call__(self, fmt: str, head: dict) -> int:
        if fmt == "json":
            sys.stdout.write(json.dumps({**head, **self.json()}, indent=2) + "\n")
        elif fmt == "csv":
            csv.writer(sys.stdout, lineterminator="\n").writerows(self.csv())
        else:
            sys.stdout.writelines(line + "\n" for line in self.text())
        return self.code


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _row(values) -> str:
    return " ".join(_fmt(v) for v in values)


# How each format joins a chain's entries: text "1,3", CSV "1 3", and JSON
# array items on lines 8 spaces deep, as json.dumps(indent=2) puts a row's ks.
_KS_SEP = {"text": ",", "csv": " ", "json": ",\n        "}


def _ks_text(sig, fmt: str = "text") -> str:
    return _KS_SEP[fmt].join(map(str, sig.ks))


def _matrix_lines(a) -> list[str]:
    return ["  " + _row(row) for row in a]


def _matrix_csv_rows(a):
    return [[_fmt(v) for v in row] for row in a]


def _spectrum_header(spec: Spectrum) -> dict:
    sig = spec.signature
    return {"n": sig.n, "ks": list(sig.ks), "spectrum": list(spec.values)}


def _parse_list(text: str, kind, what: str) -> list:
    """The nonblank comma-separated items of ``text``, each read by ``kind`` (int or float)."""
    try:
        return [kind(t) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise ValidationError(f"bad {what} list {text!r}: {e}") from None


def read_matrix_file(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read matrix file {path!r}: {e}") from None
    if not tokens:
        raise ValidationError(f"matrix file {path!r} is empty")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValidationError(f"matrix file {path!r}: first line must hold the size n") from None
    if n < 1:
        raise ValidationError(f"matrix file {path!r}: size must be positive, got {n}")
    if len(tokens) != 1 + n * n:
        raise ValidationError(
            f"matrix file {path!r}: expected {n * n} entries after the size, got {len(tokens) - 1}"
        )
    try:
        vals = [float(t) for t in tokens[1:]]
    except ValueError as e:
        raise ValidationError(f"matrix file {path!r}: {e}") from None
    return np.array(vals, dtype=float).reshape(n, n)


def _spectrum(args, n: int) -> Spectrum:
    sig = make_signature(n, _parse_list(args.ks, int, "integer"))
    if not args.spectrum:
        return default_traceless_spectrum(sig)
    return Spectrum(_parse_list(args.spectrum, float, "number"), sig)


def _matrix_and_spectrum(args, flag: str, path: str) -> tuple[SymmetricMatrix, Spectrum]:
    """The matrix in the file ``path`` given as option ``flag``, of size
    ``--n`` if that is given, and the spectrum of ``--ks`` at its size."""
    a = SymmetricMatrix(read_matrix_file(path))
    n = a.entries.shape[0]
    if args.n is not None and args.n != n:
        raise ValidationError(f"--n {args.n} disagrees with the {n}x{n} matrix in {flag}")
    return a, _spectrum(args, n)


def _at_most_max_n(n: int) -> int:
    """``--n``, refused above ``MAX_N`` before anything of size n is built."""
    if n > MAX_N:
        raise ValidationError(f"--n must be at most {MAX_N}, got {n}")
    return n


def cmd_embed(args) -> Output:
    spec = _spectrum(args, _at_most_max_n(args.n))
    sig = spec.signature
    if args.identity:
        f = identity_flag(sig)
    elif args.q_file:
        f = FlagPoint(read_matrix_file(args.q_file), sig)
    else:
        f = random_flag_point(sig, args.seed)
    x = embed(f, spec).x.entries
    trace = float(np.trace(x))
    return Output(
        json=lambda: {
            **_spectrum_header(spec),
            "matrix": x.tolist(),
            "eigenvalues": _eigh(x, vectors=False).tolist(),
            "trace": trace,
        },
        csv=lambda: _matrix_csv_rows(x),
        text=lambda: [
            f"n: {sig.n}",
            "ks: " + _ks_text(sig),
            "spectrum: " + _row(spec.values),
            "trace: " + _fmt(trace),
            "eigenvalues: " + _row(_eigh(x, vectors=False)),
            "matrix:",
            *_matrix_lines(x),
        ],
    )


def cmd_recover(args) -> Output:
    a, spec = _matrix_and_spectrum(args, "--matrix-file", args.matrix_file)
    sig = spec.signature
    q = recover(a, spec, eig_tol=args.eig_tol).q
    blocks = list(zip(spec.values, sig.block_sizes, sig.block_slices()))

    def text():
        lines = [f"n: {sig.n}", "q:", *_matrix_lines(q)]
        for value, _, s in blocks:
            lines.append(f"block value={_fmt(value)} columns={s.start}..{s.stop - 1}:")
            lines.extend(_matrix_lines(q[:, s]))
        return lines

    return Output(
        json=lambda: {
            **_spectrum_header(spec),
            "q": q.tolist(),
            "blocks": [
                {
                    "value": value,
                    "size": size,
                    "columns": [s.start, s.stop],
                    "basis": q[:, s].tolist(),
                }
                for value, size, s in blocks
            ],
        },
        csv=lambda: _matrix_csv_rows(q),
        text=text,
    )


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """The Frobenius distance |a - b|, as ``np.linalg.norm`` computes it; a
    distance past the largest double is refused instead of reported as inf."""
    return _quietly(lambda: _frobenius(a - b), "distance overflows a double")


def cmd_project(args) -> Output:
    a, spec = _matrix_and_spectrum(args, "--matrix-file", args.matrix_file)
    nearest = nearest_point(a, spec, gap_tol=args.gap_tol).x.entries
    dist = _distance(a.entries, nearest)
    return Output(
        json=lambda: {**_spectrum_header(spec), "matrix": nearest.tolist(), "distance": dist},
        csv=lambda: _matrix_csv_rows(nearest),
        text=lambda: ["distance: " + _fmt(dist), "matrix:", *_matrix_lines(nearest)],
    )


def cmd_optimize(args) -> Output:
    target, spec = _matrix_and_spectrum(args, "--target-file", args.target_file)
    init = embed(random_flag_point(spec.signature, args.seed), spec)
    step = args.step if args.step is not None else default_step(spec)
    result = gradient_descent(
        lambda x: x - target.entries,
        spec,
        init,
        step=step,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
    )
    final = result.point.x.entries
    distance = _distance(final, target.entries)
    return Output(
        json=lambda: {
            **_spectrum_header(spec),
            "step": step,
            "iterations": result.iterations,
            "converged": result.converged,
            "final_grad_norm": result.final_grad_norm,
            "distance_to_target": distance,
            "grad_norms": list(result.grad_norms),
            "matrix": final.tolist(),
        },
        csv=lambda: _matrix_csv_rows(final),
        text=lambda: [
            f"iterations: {result.iterations}",
            f"converged: {result.converged}",
            "final_grad_norm: " + _fmt(result.final_grad_norm),
            "distance_to_target: " + _fmt(distance),
            "grad_norms: " + _row(result.grad_norms),
            "matrix:",
            *_matrix_lines(final),
        ],
    )


def cmd_repdim_dim(args) -> Output:
    w = repdim_mod.parse_weight(_at_most_max_n(args.n), args.weight)
    dim = repdim_mod.weyl_dim(w)
    return Output(
        json=lambda: {"n": args.n, "weight": str(w), "dimension": dim},
        csv=lambda: [["weight", "dimension"], [str(w), str(dim)]],
        text=lambda: [str(dim)],
    )


_HIT_FIELDS = ("weight", "dimension", "spin", "real_form", "sign_pair")


def _hit_row(h: repdim_mod.EnumerationHit):
    return [str(h.weight), h.dimension, h.spin, h.real_form, h.sign_pair]


def _hit_line(h: repdim_mod.EnumerationHit) -> str:
    flags = "".join(
        [" spin" if h.spin else "", " complexified" if not h.real_form else "",
         " sign-pair" if h.sign_pair else ""]
    )
    return f"({h.weight}) -> {h.dimension}{flags}"


def cmd_repdim_enumerate(args) -> Output:
    report = repdim_mod.enumerate_low_dim(_at_most_max_n(args.n), args.max_dim, args.cap)
    return Output(
        json=lambda: {
            "n": report.n,
            "max_dim": report.max_dim,
            "mu1_cap": str(report.mu1_cap),
            "hits": [dict(zip(_HIT_FIELDS, _hit_row(h))) for h in report.hits],
        },
        csv=lambda: [_HIT_FIELDS, *map(_hit_row, report.hits)],
        text=lambda: [
            f"n={report.n} max_dim={report.max_dim} mu1_cap={report.mu1_cap}",
            *map(_hit_line, report.hits),
        ],
    )


def cmd_repdim_verify(args) -> Output:
    report = repdim_mod.verify_classification(_at_most_max_n(args.n))
    return Output(
        json=lambda: {
            "n": report.n,
            "bound": report.bound,
            "passed": report.passed,
            "hits": [dict(zip(_HIT_FIELDS[:2], _hit_row(h))) for h in report.hits],
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
            ],
        },
        csv=lambda: [
            ["check", "passed", "detail"],
            *([c.name, c.passed, c.detail] for c in report.checks),
        ],
        text=lambda: [
            *(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in report.checks),
            f"{'VERIFIED' if report.passed else 'FAILED'} n={report.n} bound={report.bound}",
        ],
        code=0 if report.passed else 1,
    )


_BOUND_CSV_HEADER = [
    "n", "ks", "flag_dim", "isospectral", "gunther", "whitney", "wang",
    "isospectral_lt_gunther", "whitney_condition",
]


def cmd_bounds(args) -> Output:
    if args.n is None or args.ks is None:
        raise ValidationError("bounds needs --n and --ks (or the `sweep` subcommand)")
    sig = make_signature(args.n, _parse_list(args.ks, int, "integer"))
    r = bounds_mod.bound_table(sig, args.group_order)

    def text():
        lines = [
            f"n: {sig.n}",
            "ks: " + _ks_text(sig),
            f"flag_dim: {r.flag_dim}",
            f"isospectral: {r.isospectral} ({r.isospectral_label})",
            f"gunther: {r.gunther}",
            f"whitney: {r.whitney}",
        ]
        if r.wang is not None:
            lines.append(f"wang: {r.wang}")
        lines.extend(f"{name}: {value}" for name, value in r.comparisons.items())
        return lines

    return Output(
        json=lambda: {
            "n": sig.n, "ks": list(sig.ks), "flag_dim": r.flag_dim, "isospectral": r.isospectral,
            "gunther": r.gunther, "whitney": r.whitney, "wang": r.wang,
            "isospectral_label": r.isospectral_label, "comparisons": dict(r.comparisons),
        },
        csv=lambda: [_BOUND_CSV_HEADER, [
            sig.n, _ks_text(sig, "csv"), r.flag_dim, r.isospectral, r.gunther, r.whitney,
            "" if r.wang is None else r.wang,
            r.comparisons["isospectral_lt_gunther"], r.comparisons["whitney_condition"]]],
        text=text,
    )


# Per format, one group's tail from the n's isospectral value and JSON-quoted
# label and a group's flat ``_columns`` row: each is one f-string.
def _text_tail(iso: int, label: str, m, gunther, whitney, *_) -> str:
    return f" flag_dim={m} isospectral={iso} gunther={gunther} whitney={whitney}"


def _csv_tail(iso: int, label: str, m, gunther, whitney, wang, lt_gunther, whitney_condition, _) -> str:
    # no field needs quoting
    return f",{m},{iso},{gunther},{whitney},{'' if wang is None else wang},{lt_gunther},{whitney_condition}"


def _json_tail(iso: int, label: str, m, gunther, whitney, wang, lt_gunther, whitney_condition, wang_gt) -> str:
    # the members after ks of a ``bounds`` JSON document, written out as json.dumps(indent=2)
    # puts them 6 spaces deep: with indent, json runs its pure-Python encoder
    wang_member = "" if wang is None else (
        f',\n        "wang_composed_gt_isospectral": {"true" if wang_gt else "false"}')
    return (f'\n      ],\n      "flag_dim": {m},\n      "isospectral": {iso},'
            f'\n      "gunther": {gunther},\n      "whitney": {whitney},'
            f'\n      "wang": {"null" if wang is None else wang},'
            f'\n      "isospectral_label": {label},'
            f'\n      "comparisons": {{'
            f'\n        "isospectral_lt_gunther": {"true" if lt_gunther else "false"},'
            f'\n        "whitney_condition": {"true" if whitney_condition else "false"}{wang_member}'
            f'\n      }}\n    }}')


class _SweepTails(dict):
    """One n's sweep row tails by flag_dim: a row's text fields, CSV fields or
    JSON members after its ks.  The n's isospectral value and JSON-quoted
    label are computed once and bound into ``render``, the format's tail
    function; a group's tail is ``render`` of one flat ``_columns`` row, on
    the group's first row.  ``failing`` holds the flag_dims failing the
    Gunther comparison."""

    def __init__(self, n: int, group_order: int | None, tail: Callable[..., str]):
        self.iso, label = bounds_mod._n_columns(n)
        self.render = functools.partial(tail, self.iso, json.dumps(label))
        self.group_order, self.failing = group_order, set()

    def __missing__(self, m: int) -> str:
        row = bounds_mod._columns(self.iso, m, self.group_order)
        if not row[3]:
            self.failing.add(m)
        return self.setdefault(m, self.render(m, *row))


# Per format: the separator between rows, a row's head up to its ks, and the
# footer, as templates, and the tail function of an n's groups.  Rows are
# separated, not terminated, so that JSON needs no trailing comma.
_SWEEP_FORMATS = {
    "text": ("\n", "n={n} ks=", "\nrows: {rows}  gunther_failures: {failures}\n", _text_tail),
    "csv": ("\n", "{n},", "\n", _csv_tail),
    "json": (",\n", '    {{\n      "n": {n},\n      "ks": [\n        ',
             '\n  ],\n  "gunther_failures": {failures}\n}}\n', _json_tail),
}


def _write_sweep(max_n: int, group_order: int | None, fmt: str, head: dict) -> int:
    """Write ``bounds sweep`` a level of ``_walk_chains`` at a time, a row one
    concatenation of its walked text and its group's tail, and return the
    exit code: 1 if any signature fails the Gunther comparison.

    A header (for JSON, the members of ``head`` open the document) goes out
    with the first level and a footer after the last, so memory holds one
    level, not the output, and nothing is written before the first level is
    rendered: an input refused there leaves stdout empty."""
    write = sys.stdout.write
    sep, row_head, footer, tail = _SWEEP_FORMATS[fmt]
    if fmt == "json":  # an indent=2 document ends with "\n}": the rows array is its last member but one
        lead = json.dumps({**head, "max_n": max_n}, indent=2)[:-2] + ',\n  "rows": [\n'
    else:
        lead = ",".join(_BOUND_CSV_HEADER) + "\n" if fmt == "csv" else ""
    rows = failures = 0
    for n in range(2, max_n + 1):
        tails = _SweepTails(n, group_order, tail)
        for level in bounds_mod._walk_chains(n, _KS_SEP[fmt], row_head.format(n=n)):
            rendered = sep.join([text + tails[m] for _, m, text in level])
            write(lead)  # apart, not prepended: a level's text can run to hundreds of KB
            write(rendered)
            lead = sep
            rows += len(level)
            failures += sum(m in tails.failing for _, m, _ in level) if tails.failing else 0
    write(footer.format(rows=rows, failures=failures))
    return 0 if failures == 0 else 1


def cmd_bounds_sweep(args) -> Callable[[str, dict], int]:
    _at_least(args.max_n, "max_n", 2)
    if args.n is not None or args.ks is not None:
        raise ValidationError("bounds sweep takes no --n or --ks")
    if args.group_order is not None:  # refused before any row is written
        _at_least(args.group_order, "group_order", 1)
    return functools.partial(_write_sweep, args.max_n, args.group_order)


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses its input by raising ``ValidationError``,
    which ``main`` prints as its one stderr line, rather than by printing the
    usage block and exiting.  Subcommand parsers are built from this class too,
    and each reads a plain line without argparse's matcher (``parse_known_args``)."""

    _commands = None  # the subcommands' action, kept by ``add_subparsers``

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")

    def add_subparsers(self, **kwargs):
        self._commands = super().add_subparsers(**kwargs)
        return self._commands

    def _plain_values(self, args: list) -> tuple[dict, list] | None:
        """By action in the order given, the value of each leading option and a
        command word after them, and the words after that word; None for any other
        line.  What this assumes of ``build_parser``'s tree, a test of the tree checks."""
        given, rest, commands = {}, [], self._commands
        for i in range(0, len(args), 2):
            if commands is not None and args[i] in commands.choices:
                given[commands], rest = args[i], args[i + 1:]
                break
            action = self._option_string_actions.get(args[i])  # one-value: a store action with no nargs
            if action is None or action.nargs is not None or i + 1 == len(args) or args[i + 1].startswith("-"):
                return None
            try:
                value = given[action] = args[i + 1] if action.type is None else action.type(args[i + 1])
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        if rest and len(self._option_string_actions) > 2:  # options besides -h/--help, so a word after the
            command = commands.choices[given[commands]]  # command word may abbreviate two, which argparse refuses:
            if any(word.startswith("-") and word not in command._option_string_actions for word in rest):
                return None  # only the command's exact option strings are read on
        return given, rest

    def parse_known_args(self, args=None, namespace=None):
        """``(Namespace, extras)`` as argparse gives it, read directly when ``args``
        are pairs of an exact one-value option string and a value not beginning
        with ``-`` that passes the option's ``type`` and ``choices`` (a repeated
        option keeps its last value), then possibly a command word, and give
        every required option; the words after the command word go to its parser,
        into the same Namespace.  Any other line (help, an abbreviation, the =
        form, ``--``, a flag, an unknown word, a refused value) goes to argparse
        at this level, which keeps every help and refusal byte."""
        args = sys.argv[1:] if args is None else list(args)
        read = self._plain_values(args)
        if read is not None:
            given, rest = read
            space = argparse.Namespace() if namespace is None else namespace
            # in declaration order, as argparse sets defaults (no default here is a string it would convert)
            for action in self._actions:
                if action in given:
                    setattr(space, action.dest, given[action])
                elif action.required:  # argparse refuses the line, whatever ``space`` holds
                    break
                elif (action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
                        and not hasattr(space, action.dest)):
                    setattr(space, action.dest, action.default)
            else:
                command = given.get(self._commands)
                return self._commands.choices[command].parse_known_args(rest, space) if command else (space, [])
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no handler:
    ``main`` finds one by the command path each time it is called."""
    parser = _Parser(
        prog="isoflag",
        description="Flag manifolds as fixed-spectrum symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="text"):
        p.add_argument("--format", choices=("text", "json", "csv"), default=default)

    pe = sub.add_parser("embed", help="realize a flag as a symmetric matrix")
    pe.add_argument("--n", type=int, required=True, help="ambient dimension")
    pe.add_argument("--ks", required=True, help="comma-separated subspace dimensions")
    pe.add_argument("--spectrum", help="comma-separated block values (default: canonical traceless)")
    group = pe.add_mutually_exclusive_group()
    group.add_argument("--identity", action="store_true", help="use the coordinate flag")
    group.add_argument("--q-file", help="matrix file holding an explicit representative")
    pe.add_argument("--seed", type=int, default=0, help="seed for a random flag")
    add_format(pe)

    def add_matrix_inputs(p, flag, n_help=None):  # read by ``_matrix_and_spectrum``
        p.add_argument(flag, required=True)
        p.add_argument("--n", type=int, help=n_help)
        p.add_argument("--ks", required=True)
        p.add_argument("--spectrum")

    pr = sub.add_parser("recover", help="read the flag off a model matrix")
    add_matrix_inputs(pr, "--matrix-file", "cross-check against the matrix file")
    pr.add_argument("--eig-tol", type=float, default=EIG_TOL)
    add_format(pr)

    pp = sub.add_parser("project", help="nearest model point to a symmetric matrix")
    add_matrix_inputs(pp, "--matrix-file")
    pp.add_argument("--gap-tol", type=float, default=SPECTRUM_GAP_TOL)
    add_format(pp)

    po = sub.add_parser("optimize", help="gradient descent toward a target matrix")
    add_matrix_inputs(po, "--target-file")
    po.add_argument("--step", type=float, help="default: 0.1 / (max spectrum gap)^2")
    po.add_argument("--max-iters", type=int, default=500)
    po.add_argument("--grad-tol", type=float, default=1e-6)
    po.add_argument("--seed", type=int, default=0, help="seed for the starting flag")
    add_format(po)

    pd = sub.add_parser("repdim", help="exact SO(n) irreducible module dimensions")
    dsub = pd.add_subparsers(dest="repdim_command", required=True)

    pdd = dsub.add_parser("dim", help="dimension at one highest weight")
    pdd.add_argument("--n", type=int, required=True)
    pdd.add_argument("--weight", required=True, help='e.g. "2,0,0" or "1/2,1/2,1/2"')
    add_format(pdd)

    pde = dsub.add_parser("enumerate", help="all dominant weights below a dimension cutoff")
    pde.add_argument("--n", type=int, required=True)
    pde.add_argument("--max-dim", type=int, required=True)
    pde.add_argument("--cap", default=4, help="first-entry cap of the search box")
    add_format(pde)

    pdv = dsub.add_parser("verify", help="verify the low-dimension classification")
    pdv.add_argument("--n", type=int, required=True)
    add_format(pdv)

    pb = sub.add_parser("bounds", help="ambient-dimension bound table")
    pb.add_argument("--n", type=int)
    pb.add_argument("--ks")
    pb.add_argument("--group-order", type=int)
    add_format(pb)
    bsub = pb.add_subparsers(dest="bounds_command")
    pbs = bsub.add_parser("sweep", help="all signatures up to an ambient dimension")
    pbs.add_argument("--max-n", type=int, required=True)
    # no default, so that a --format or --group-order read before `sweep` stands
    pbs.add_argument("--group-order", type=int, default=argparse.SUPPRESS)
    add_format(pbs, argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # handler names follow the command path: "repdim dim" is cmd_repdim_dim,
        # looked up at call time so that a wrapped or patched handler is called
        sub = getattr(args, "repdim_command", None) or getattr(args, "bounds_command", None)
        command = f"{args.command} {sub}" if sub else args.command
        write = globals()["cmd_" + command.replace(" ", "_")](args)
        limit = sys.get_int_max_str_digits()  # lifted only while the output is written,
        sys.set_int_max_str_digits(0)  # so that exact integers print in full
        try:
            return write(args.format, {"schema_version": SCHEMA_VERSION, "command": command})
        finally:
            sys.set_int_max_str_digits(limit)
    except SystemExit as e:  # --help, which argparse prints before it exits
        return int(e.code or 0)
    except (ValidationError, NumericalError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2 if isinstance(e, ValidationError) else 3


def entrypoint() -> None:
    out = sys.stdout  # PYTHONUNBUFFERED=1 leaves it raw, and a raw write to a pipe can stop part-way
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):  # a buffered layer writes the rest
        sys.stdout = open(out.fileno(), "w", 1 if out.line_buffering else -1, out.encoding,
                          out.errors, closefd=False)
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()  # inside the try: the last buffered bytes may meet the closed pipe
    except OSError as e:  # the reader closed stdout (``| head``), or a write failed (a full disk)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot fail
        if isinstance(e, BrokenPipeError):
            code = 141  # 128 + SIGPIPE, as for a process that SIGPIPE ended
        else:
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
