"""The three benchmark workloads: their inputs, the timed operation, and the
checks on its output.

Every input comes from the ``--seed`` given to the benchmark; the library
only ever sees the generated inputs.  A workload is one *pass*: a fixed,
seeded list of operations.  The timed loop repeats whole passes, so every
run of a seed measures the same mix of operations.  The properties the cost
depends on most (matrix size n and number of subspaces p for descent; the
command, n, search-box cap and ``--max-dim`` for ``exact``) are laid out by
strata that do not depend on the seed, so different seeds draw different
matrices, subspace dimensions, formats and orders from the same mix of
sizes.  See
``bench/README.md`` for why each workload exists and which layer it
isolates.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

import isoflag as iso
from isoflag import cli

GRAD_TOL = 1e-6
DISTANCE_TOL = 1e-5
NOISE = 0.1

# SHA-256 of the stdout bytes of one pass of ``exact`` at the default seed,
# in pass order.  The CLI output is frozen, so any change here is a change
# in what users see.
DEFAULT_SEED = 0
EXACT_DEFAULT_DIGEST = "cf844be083b74d630bbd8dc08b7e0bb61688936006c122c15d6724986d41784b"


@dataclass
class Outcome:
    """What one operation produced: a value, or the exception it raised."""

    value: object = None
    error: BaseException | None = None


@dataclass
class Verdict:
    """``failure`` names a failed operation (``layer.failed_ops.Type``) and
    ``detail`` says what happened; ``problems`` lists output checks that did
    not hold."""

    failure: str | None = None
    problems: list[str] = field(default_factory=list)
    detail: str = ""


def raised(exc: BaseException) -> Verdict:
    return Verdict(failure_name(exc), detail=f"{type(exc).__name__}: {exc}")


def failure_name(exc: BaseException) -> str:
    """``<layer>.failed_ops.<Type>``, the layer being the innermost isoflag
    module on the traceback (``bench`` if the package was never entered)."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("isoflag."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return f"{layer}.failed_ops.{type(exc).__name__}"


# -- descent -----------------------------------------------------------------


class Objective:
    """Gradient of f(x) = ||x - target||_F^2 / 2.  ``marks``, when set,
    collects ``mark()`` at every gradient evaluation, so the time and the
    numpy calls between two evaluations are one descent iteration."""

    def __init__(self, target: np.ndarray):
        self.target = target
        self.marks: list | None = None
        self.mark = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.marks is not None:
            self.marks.append(self.mark())
        return x - self.target


@dataclass
class DescentOp:
    n: int
    ks: tuple[int, ...]
    spec: iso.Spectrum
    target: np.ndarray
    init: iso.EmbeddedFlag
    step: float | None
    objective: Objective


class DescentWorkload:
    """Projected gradient descent toward a noisy observation of a model point."""

    kind = "descent"

    def __init__(self, name: str, sizes: tuple[int, ...], per_stratum: int, step: float | None):
        self.name = name
        self.sizes = sizes
        self.per_stratum = per_stratum
        self.step = step

    def strata(self) -> list[tuple[int, int]]:
        return [(n, p) for p in range(1, 5) for n in self.sizes if p < n]

    def build(self, seed: int) -> list[DescentOp]:
        rng = np.random.default_rng([seed, 1])
        strata = self.strata()
        ops = []
        # Each block holds every stratum once, in a seeded order, so any
        # prefix of the pass has close to the pass's own mix of sizes.
        for _ in range(self.per_stratum):
            for idx in rng.permutation(len(strata)):
                n, p = strata[idx]
                ops.append(self._make_op(rng, n, p))
        return ops

    def _make_op(self, rng, n: int, p: int) -> DescentOp:
        ks = tuple(sorted(int(k) for k in rng.choice(np.arange(1, n), size=p, replace=False)))
        sig = iso.make_signature(n, ks)
        spec = iso.default_traceless_spectrum(sig)
        model = iso.embed(iso.random_flag_point(sig, int(rng.integers(2**63))), spec).x.entries
        a = rng.standard_normal((n, n))
        target = model + NOISE / np.sqrt(n) * (a + a.T) / 2.0
        init = iso.embed(iso.random_flag_point(sig, int(rng.integers(2**63))), spec)
        return DescentOp(n, ks, spec, target, init, self.step, Objective(target))

    def execute(self, op: DescentOp) -> Outcome:
        try:
            return Outcome(iso.gradient_descent(op.objective, op.spec, op.init,
                                                step=op.step, grad_tol=GRAD_TOL))
        except Exception as exc:  # every exception is a failed op, counted by type
            return Outcome(error=exc)

    def check(self, op: DescentOp, outcome: Outcome, index: int) -> Verdict:
        if outcome.error is not None:
            return raised(outcome.error)
        result = outcome.value
        if not result.converged:
            return Verdict("geometry.failed_ops.NotConverged",
                           detail=f"gradient norm {result.final_grad_norm:.3e} after {result.iterations} iterations")
        try:
            best = iso.nearest_point(iso.SymmetricMatrix(op.target), op.spec).x.entries
        except Exception as exc:  # the reference projection hit the same library path
            return raised(exc)
        dist = float(np.linalg.norm(result.point.x.entries - best))
        if not dist <= DISTANCE_TOL:
            detail = f"||x - nearest_point(target)|| = {dist:.3e} > {DISTANCE_TOL:.0e}"
            return Verdict("geometry.failed_ops.CheckFailed",
                           [f"op {index} ({self.describe(op)}): {detail}"], detail)
        return Verdict()

    def describe(self, op: DescentOp) -> str:
        return f"n={op.n} ks={','.join(map(str, op.ks))}"


# -- exact -------------------------------------------------------------------


FORMATS = ("json", "csv", "text")
ENUMERATE_NS = tuple(range(6, 33, 2))
ENUMERATE_CAPS = ("2", "5/2", "3", "7/2", "4")
VERIFY_NS = tuple(range(17, 33))
SWEEP_MAX_NS = tuple(range(6, 14))


@dataclass
class CliOp:
    command: str  # "verify", "enumerate" or "sweep"
    n: int  # --n, or --max-n for a sweep
    fmt: str
    argv: list[str]
    max_dim: int = 0

    @property
    def sweep_rows(self) -> int:
        return sum(2 ** (m - 1) - 1 for m in range(2, self.n + 1))


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class ExactWorkload:
    """In-process ``isoflag.cli.main`` calls on the integer-only commands."""

    kind = "exact"
    name = "exact"
    sizes: tuple[int, ...] = ()

    def build(self, seed: int) -> list[CliOp]:
        rng = np.random.default_rng([seed, 2])
        ops = []
        for n in VERIFY_NS:
            fmt = FORMATS[int(rng.integers(3))]
            ops.append(CliOp("verify", n, fmt, ["repdim", "verify", "--n", str(n), "--format", fmt]))
        for i, n in enumerate(ENUMERATE_NS):
            bound = iso.traceless_sym_dim(n)
            max_dims = (n, n * (n - 1) // 2, bound, 2 * bound)
            for j, cap in enumerate(ENUMERATE_CAPS):
                # --max-dim sets the cost of the heaviest enumerations, so it
                # is part of the stratum: every (n, cap) gets one of the four
                # kinds, by a Latin square that does not depend on the seed.
                max_dim = max_dims[(i + j) % len(max_dims)]
                fmt = FORMATS[int(rng.integers(3))]
                argv = ["repdim", "enumerate", "--n", str(n), "--max-dim", str(max_dim),
                        "--cap", cap, "--format", fmt]
                ops.append(CliOp("enumerate", n, fmt, argv, max_dim))
        for max_n in SWEEP_MAX_NS:
            for fmt in FORMATS:
                ops.append(CliOp("sweep", max_n, fmt,
                                 ["bounds", "sweep", "--max-n", str(max_n), "--format", fmt]))
        return [ops[i] for i in rng.permutation(len(ops))]

    def execute(self, op: CliOp) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except Exception as exc:  # every exception is a failed op, counted by type
            return Outcome(error=exc)
        return Outcome(CliResult(code, out.getvalue(), err.getvalue()))

    def check(self, op: CliOp, outcome: Outcome, index: int) -> Verdict:
        if outcome.error is not None:
            return raised(outcome.error)
        res = outcome.value
        where = f"op {index} ({' '.join(op.argv)})"
        if res.code != 0:
            detail = f"exit {res.code}: {res.stderr.strip()[:200]}"
            return Verdict("cli.failed_ops.NonzeroExit", [f"{where}: {detail}"], detail)
        try:
            problems = getattr(self, f"_check_{op.command}")(op, res.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unparsable output: {type(exc).__name__}: {exc}"]
        if problems:
            return Verdict("cli.failed_ops.CheckFailed", [f"{where}: {p}" for p in problems], problems[0])
        return Verdict()

    @staticmethod
    def _check_verify(op: CliOp, out: str) -> list[str]:
        if op.fmt == "json":
            passed = json.loads(out)["passed"] is True
        elif op.fmt == "csv":
            rows = _csv_rows(out)
            passed = bool(rows) and all(r[1] == "True" for r in rows)
        else:
            passed = out.splitlines()[-1].startswith(f"VERIFIED n={op.n} ")
        return [] if passed else ["classification not verified"]

    @staticmethod
    def _check_enumerate(op: CliOp, out: str) -> list[str]:
        if op.fmt == "json":
            dims = [h["dimension"] for h in json.loads(out)["hits"]]
        elif op.fmt == "csv":
            dims = [int(r[1]) for r in _csv_rows(out)]
        else:
            dims = [int(line.split(" -> ")[1].split()[0]) for line in out.splitlines()[1:]]
        problems = []
        if dims.count(1) != 1:
            problems.append(f"{dims.count(1)} hits of dimension 1, want exactly the trivial module")
        if any(d > op.max_dim for d in dims):
            problems.append(f"hit above --max-dim {op.max_dim}")
        if dims != sorted(dims):
            problems.append("hits not sorted by dimension")
        return problems

    @staticmethod
    def _check_sweep(op: CliOp, out: str) -> list[str]:
        want = op.sweep_rows
        problems = []
        if op.fmt == "json":
            payload = json.loads(out)
            rows, failures = len(payload["rows"]), payload["gunther_failures"]
        elif op.fmt == "csv":
            lines = _csv_rows(out)
            rows, failures = len(lines), sum(r[7] != "True" for r in lines)
        else:
            lines = out.splitlines()
            words = lines[-1].split()  # rows: <count>  gunther_failures: <count>
            rows, failures = len(lines) - 1, int(words[3])
            if int(words[1]) != rows:
                problems.append(f"summary line says {words[1]} rows, output has {rows}")
        if rows != want:
            problems.append(f"{rows} rows, want {want}")
        if failures != 0:
            problems.append(f"gunther_failures {failures}, want 0")
        return problems

    def describe(self, op: CliOp) -> str:
        return " ".join(op.argv)


def _csv_rows(out: str) -> list[list[str]]:
    """The data rows of CSV output, without its header."""
    return list(csv.reader(io.StringIO(out)))[1:]


WORKLOADS = {
    # n 4..12 at the default step: ~180 iterations on tiny matrices, where the
    # Python-side validation in flagcore/embed outweighs LAPACK.
    "descent-small": DescentWorkload("descent-small", tuple(range(4, 13)), per_stratum=4, step=None),
    # n 96..160 at step 1 (= 1/L for this objective): ~20 iterations of a few
    # eigendecompositions each, so LAPACK sets the cost.
    "descent-large": DescentWorkload("descent-large", (96, 128, 160), per_stratum=9, step=1.0),
    # Integer-only CLI commands: repdim, bounds, FlagSignature and rendering.
    "exact": ExactWorkload(),
}
