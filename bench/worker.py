"""One benchmark workload in one fresh process.

``run.py`` starts this file with the package on ``PYTHONPATH`` and the BLAS
thread count fixed.  It imports ``isoflag`` and ``isoflag.cli``, builds the
workload's inputs from the seed, and writes ``ready`` to stdout; that line
ends the set-up that ``run.py`` times.  With ``--setup-only`` it stops
there.  Otherwise it measures the workload and writes one JSON object as
its last stdout line; human-readable notes go to stderr.

Untraced (``--trace 0``): whole passes of the seeded operation list are
timed until about ``--seconds`` have passed, and at least MIN_PASSES
passes.  Every pass holds at least 100 operations, so p90 has ten samples
beyond it.  A ``SpeedProbe`` is timed between every two operations, and
each operation's time is reported as a multiple of the probe's time
around it (see ``timed``).

Traced (``--trace 1``): one pass, in which every op runs untraced and then
again with ``tracing.Tracer`` installed.  Per-layer counts and self times
come from the traced runs; times that tracing would distort (iteration
time against the ``eigh`` floor, verify growth, sweep rate) come from the
untraced ones, and the ratio of their summed times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import isoflag  # noqa: F401  (set-up covers importing the package and its CLI)
import isoflag.cli  # noqa: F401
from tracing import LAYERS, Tracer
from workloads import DEFAULT_SEED, EXACT_DEFAULT_DIGEST, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SRC_MODULES = ("flagcore", "embed", "geometry", "repdim", "bounds", "errors", "cli")
# Failure counters reported under their own name; any other type is summed
# into ``failed_ops.other`` and listed by name in the run's notes.
FAILURE_METRICS = (
    "geometry.failed_ops.LinAlgError",
    "geometry.failed_ops.NotConverged",
    "geometry.failed_ops.CheckFailed",
    "embed.failed_ops.SpectrumMismatch",
    "cli.failed_ops.NonzeroExit",
    "cli.failed_ops.CheckFailed",
)


def note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def eigh_ms(n: int, reps: int) -> float:
    """Median time of one ``np.linalg.eigh`` of a fixed random symmetric
    n x n matrix: the floor a descent iteration at n is measured against."""
    a = np.random.default_rng(n).standard_normal((n, n))
    a = (a + a.T) / 2.0
    np.linalg.eigh(a)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.linalg.eigh(a)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": cpu,
    }


def source_lines() -> dict[str, int]:
    src = ROOT / "src" / "isoflag"
    counts = {}
    for module in SRC_MODULES:
        path = src / f"{module}.py"
        counts[f"src.lines.{module}"] = len(path.read_text().splitlines()) if path.exists() else 0
    counts["src.lines.total"] = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    return counts


class Run:
    """Executes operations, checks every output, and keeps the tallies.

    Op ``i`` is op ``i % len(ops)`` of the pass.  An op counts as failed once,
    however many passes it failed in; ``failed`` maps its index in the pass
    to the failure's name."""

    def __init__(self, workload, ops, seed: int):
        self.wl = workload
        self.ops = ops
        self.seed = seed
        self.failed: dict[int, str] = {}
        self.examples: dict[str, str] = {}  # one description per failure name
        self.problems: list[str] = []
        self.pass_hash = hashlib.sha256()  # of pass 1's stdout, in pass order
        self.digests: dict[int, bytes] = {}  # of each op's stdout in pass 1

    @property
    def failures(self) -> Counter:
        return Counter(self.failed.values())

    def step(self, i: int) -> float:
        """Run op i, check its output, and return its time in seconds."""
        k = i % len(self.ops)
        op = self.ops[k]
        t0 = time.perf_counter()
        outcome = self.wl.execute(op)
        dt = time.perf_counter() - t0
        self.record(k, op, self.wl.check(op, outcome, i))
        if self.wl.kind == "exact":
            self._check_repeatable(i, outcome)
        return dt

    def record(self, k: int, op, verdict) -> None:
        if verdict.failure:
            self.failed.setdefault(k, verdict.failure)
            self.examples.setdefault(verdict.failure, f"op {k} ({self.wl.describe(op)}): {verdict.detail}")
        self.problems.extend(verdict.problems)

    def _check_repeatable(self, i: int, outcome) -> None:
        """Later passes must print the very bytes pass 1 printed."""
        k = i % len(self.ops)
        out = b"" if outcome.error else outcome.value.stdout.encode()
        digest = hashlib.sha256(out).digest()
        if i < len(self.ops):
            self.pass_hash.update(out)
            self.digests[k] = digest
        elif self.digests[k] != digest:
            self.problems.append(f"op {i}: output differs from the same op in pass 1")

    def check_pass_digest(self) -> None:
        if self.wl.kind != "exact" or self.seed != DEFAULT_SEED:
            return
        digest = self.pass_hash.hexdigest()
        if digest != EXACT_DEFAULT_DIGEST:
            self.problems.append(f"pass 1 stdout sha256 {digest}, want {EXACT_DEFAULT_DIGEST}")


class SpeedProbe:
    """A fixed computation that uses no isoflag code, timed between every
    two operations of the timed loop.

    It makes the kind of call the library makes on small matrices: an 8 x 8
    ``eigh``, products, ``allclose``, ``isfinite`` and a norm, REPS times
    over, about 1 ms in all on a 2020s x86 core.  Its time says how fast
    the machine ran right then.  Each repetition, about 50 us, is timed
    too: ``floor`` is REPS times the fastest one, the probe's time at the
    best speed seen in the run.  The report uses it to turn probes back
    into milliseconds.  It still rises in a run that the machine spends
    mostly in its slow state, which is why the metrics stay in probes."""

    REPS = 25

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((8, 8))
        self.a = a + a.T
        self.fastest_rep = math.inf
        self.samples: list[float] = []
        self()  # first-call costs stay out of the samples
        self.fastest_rep = math.inf
        self.samples.clear()

    def __call__(self) -> float:
        a, clock = self.a, time.perf_counter
        t0 = t = clock()
        for _ in range(self.REPS):
            w, v = np.linalg.eigh(a)
            b = (v * w) @ v.T
            np.allclose(a, b)
            np.all(np.isfinite(b))
            np.linalg.norm(b - a)
            t_next = clock()
            self.fastest_rep = min(self.fastest_rep, t_next - t)
            t = t_next
        self.samples.append(t - t0)
        return t - t0

    @property
    def floor(self) -> float:
        return self.REPS * self.fastest_rep


def timed(run: Run, seconds: float, deadline: float) -> tuple[dict, dict, int]:
    """Time whole passes; report each op's time in units of the speed probe.

    Other processes on a shared machine slow this one down by up to twice,
    in spells from milliseconds to minutes, so a raw op time says as much
    about them as about the op.  ``SpeedProbe`` runs between every two ops
    and is slowed by the same spells.  Each run of an op is divided by the
    mean of the probe times just before and after it.  An op's latency is
    the median of these ratios over its runs, one per pass: the op's time
    as a multiple of the probe's.  Odd passes go through the ops in
    reverse, so an op's runs fall at different points of the run.

    The report also gets the same figures in milliseconds at the probe's
    floor, the fastest run of each op unadjusted, and the probe's times."""
    ops = run.ops
    probe = SpeedProbe()
    ratios: list[list[float]] = [[] for _ in ops]
    fastest = [math.inf] * len(ops)
    passes = 0
    start = time.perf_counter()
    before = probe()
    while True:
        order = range(len(ops)) if passes % 2 == 0 else reversed(range(len(ops)))
        for k in order:
            dt = run.step(passes * len(ops) + k)
            after = probe()
            ratios[k].append(dt / ((before + after) / 2))
            fastest[k] = min(fastest[k], dt)
            before = after
        passes += 1
        if passes == 1:
            run.check_pass_digest()
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + elapsed / passes / 2 >= seconds:
            break
        if time.monotonic() > deadline:
            note(f"stopped at the time limit after {passes} passes")
            break
    succeeded = len(ops) - len(run.failed)
    latency = [statistics.median(r) for r in ratios]
    p50, p90, per_op = latency_stats(latency, succeeded)
    metrics = {
        "ops_per_kprobe": 1000 * per_op,
        "op_p50_probes": p50,
        "op_p90_probes": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    floor = probe.floor
    fast_p50, fast_p90, fast_per_s = latency_stats(fastest, succeeded)
    raw = {
        "at_probe_floor": {"op_p50_ms": p50 * floor * 1e3, "op_p90_ms": p90 * floor * 1e3,
                           "ops_per_s": per_op / floor},
        "fastest_run": {"op_p50_ms": fast_p50 * 1e3, "op_p90_ms": fast_p90 * 1e3, "ops_per_s": fast_per_s},
        "probe_ms": {"floor": floor * 1e3, "fastest": min(probe.samples) * 1e3,
                     "median": statistics.median(probe.samples) * 1e3},
    }
    note(f"{passes} passes of {len(ops)} ops in {elapsed:.2f} s")
    return metrics, raw, len(ops)


def latency_stats(latency: list[float], succeeded: int) -> tuple[float, float, float]:
    """Median and p90 of the ops' latencies, and successful ops per unit of
    their summed latency."""
    deciles = statistics.quantiles(latency, n=10, method="inclusive")
    return statistics.median(latency), deciles[8], succeeded / sum(latency)


def traced(run: Run) -> tuple[dict, int]:
    wl, ops = run.wl, run.ops
    descent = wl.kind == "descent"

    # Each op runs twice in a row: untraced, then traced, so that both runs
    # see the same load from other processes.  The untraced run gives wall
    # times, and iteration times from the gradient calls against an eigh
    # timed right after it; the traced run gives spans and numpy counts.
    tracer = Tracer()
    times_a, times_b = [], []
    iter_ratios, iterations, eig_deltas, det_deltas = [], [], [], []
    stdout_bytes = 0
    for i, op in enumerate(ops):
        if descent:
            op.objective.marks, op.objective.mark = [], time.perf_counter
        times_a.append(run.step(i))
        if descent:
            marks = op.objective.marks
            floor = eigh_ms(op.n, 5)
            iter_ratios += [(b - a) * 1e3 / floor for a, b in zip(marks, marks[1:])]
            op.objective.marks = []
            op.objective.mark = lambda: (tracer.eig_calls(), tracer.det_calls())

        tracer.install(keep_results=("repdim.enumerate_low_dim",))
        try:
            tracer.active = True
            root = tracer.open_root("bench.op")
            t0 = time.perf_counter()
            outcome = wl.execute(op)
            times_b.append(time.perf_counter() - t0)
            tracer.close_root(root)
        finally:
            tracer.uninstall()
        verdict = wl.check(op, outcome, i)
        if verdict.failure != run.failed.get(i):
            run.problems.append(f"op {i}: untraced run failed as {run.failed.get(i)}, traced as {verdict.failure}")
        if descent:
            marks = op.objective.marks
            eig_deltas += [b[0] - a[0] for a, b in zip(marks, marks[1:])]
            det_deltas += [b[1] - a[1] for a, b in zip(marks, marks[1:])]
            op.objective.marks = None
            if outcome.error is None:
                iterations.append(outcome.value.iterations)
        elif outcome.error is None:
            stdout_bytes += len(outcome.value.stdout.encode())
    run.check_pass_digest()

    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}.npz")

    s = tracer.summary()
    per_op = len(ops)
    visited = tracer.calls_under("repdim.weyl_dim", "repdim.enumerate_low_dim")
    hits = sum(len(r.hits) for r in tracer.results["repdim.enumerate_low_dim"])
    verify = [(op.n, t) for op, t in zip(ops, times_a) if getattr(op, "command", None) == "verify"]
    sweeps = [(op.sweep_rows, t) for op, t in zip(ops, times_a) if getattr(op, "command", None) == "sweep"]
    metrics = {
        "flagcore.validate_calls": s.layer_calls("flagcore", ".validate") / per_op,
        "flagcore.validate_ms": s.layer_self_ms("flagcore", ".validate") / per_op,
        "embed.flag_validate_ms": s.self_ms("embed.EmbeddedFlag.validate") / per_op,
        "embed.recover_ms": s.self_ms("embed.recover") / per_op,
        "geometry.nearest_point_ms": s.self_ms("geometry.nearest_point") / per_op,
        "geometry.project_to_tangent_ms": s.self_ms("geometry.project_to_tangent") / per_op,
        "geometry.eig_calls_per_iter": sum(eig_deltas) / len(eig_deltas) if eig_deltas else 0.0,
        "geometry.det_calls_per_iter": sum(det_deltas) / len(det_deltas) if det_deltas else 0.0,
        "geometry.iter_eigh_x": statistics.median(iter_ratios) if iter_ratios else 0.0,
        "geometry.iterations_per_op": sum(iterations) / len(iterations) if iterations else 0.0,
        "repdim.weights_visited": visited / per_op,
        "repdim.hit_ratio": hits / visited if visited else 0.0,
        "repdim.weyl_dim_ms": s.self_ms("repdim.weyl_dim") / per_op,
        "repdim.verify_growth_exp": statistics.linear_regression(
            [math.log(n) for n, _ in verify], [math.log(t) for _, t in verify]).slope if verify else 0.0,
        "bounds.bound_table_calls": s.calls["bounds.bound_table"] / per_op,
        "bounds.rows_per_s": sum(r for r, _ in sweeps) / sum(t for _, t in sweeps) if sweeps else 0.0,
        "cli.stdout_bytes": stdout_bytes / per_op,
        "trace.overhead_frac": sum(times_b) / sum(times_a) - 1.0,
        "trace.ops": per_op,
    }
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = s.layer_calls(layer) / per_op
        metrics[f"{layer}.self_ms"] = s.layer_self_ms(layer) / per_op
    for name in FAILURE_METRICS:
        metrics[name] = run.failures[name]
    metrics["failed_ops.other"] = sum(c for k, c in run.failures.items() if k not in FAILURE_METRICS)
    metrics.update(source_lines())
    return metrics, per_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=150.0, help="seconds before the timed loop stops early")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.budget

    wl = WORKLOADS[args.workload]
    ops = wl.build(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    floors = {n: eigh_ms(n, 21) for n in wl.sizes}
    run = Run(wl, ops, args.seed)
    wl.execute(ops[0])  # first-call costs (numpy and LAPACK lazy set-up) stay out of the timings
    raw = {}
    if args.trace:
        metrics, attempted = traced(run)
    else:
        metrics, raw, attempted = timed(run, args.seconds, deadline)
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": len(run.failed),
        "metrics": metrics,
        "raw": raw,
        "failures": {name: [count, run.examples[name]] for name, count in run.failures.items()},
        "problems": run.problems[:20],
        "machine": machine_info(),
        "eigh_floor_ms": {str(n): ms for n, ms in floors.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
