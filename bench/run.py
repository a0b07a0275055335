"""The isoflag benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload descent-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nothing needs to be installed or
built, the package is imported from ``src/``.  The workload runs in a fresh
worker process (``bench/worker.py``) with one BLAS thread.  Set-up time is
measured on SETUP_SAMPLES fresh processes, one of which goes on to run the
workload, and reported as their median.

With ``--trace 0`` the last stdout line is one JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric instead.  The lines before it name each metric with its
unit, the sample count, the failures by type and the machine.  The exit code
is 1 when any output check failed, and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("descent-small", "descent-large", "exact")
SETUP_SAMPLES = 7
SETUP_BEFORE = 3
TIME_LIMIT = 170.0  # seconds for the whole run, set-up included


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, setup_only: bool, budget: float):
    """Start a worker; return it and the seconds until its inputs were ready."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--budget", f"{budget:.1f}"]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        stop(proc)
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RunError(f"worker did not finish set-up (said {line.strip()!r})")
    return proc, setup


def stop(proc) -> None:
    proc.kill()
    proc.wait()


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunError(f"worker still running after {timeout:.0f} s") from None
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def measure(args, spec: dict) -> dict:
    """Run the workload; with tracing off, time set-up as well.

    Other processes on a shared machine slow this one down in spells of
    seconds to minutes, so the set-up samples are spread over the run:
    SETUP_BEFORE set-up-only workers, the workload's own worker, and the
    rest after it."""
    started = time.monotonic()
    setups = []

    def setup_only() -> None:
        proc, setup = start_worker(args, True, TIME_LIMIT)
        finish(proc, TIME_LIMIT - (time.monotonic() - started))
        setups.append(setup)

    if not args.trace:
        for _ in range(SETUP_BEFORE):
            setup_only()
    remaining = TIME_LIMIT - (time.monotonic() - started)
    proc, setup = start_worker(args, False, remaining - 20.0)
    setups.append(setup)
    lines = finish(proc, remaining).strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setup_only()
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != set(listed):
        raise RunError(f"metrics {sorted(set(result['metrics']) ^ set(listed))} "
                       "are not both measured and listed in BENCHMARK.json")
    result["units"] = listed
    return result


def report(args, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{attempted} ops measured, {failed} failed")
    for name, unit in result["units"].items():
        print(f"  {name:34s} {result['metrics'][name]:.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} (failed ops / attempted ops, n={attempted})")
    if "setup_samples" in result:
        print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in result["setup_samples"]))
    if result.get("raw"):
        raw = result["raw"]
        print("  at the probe's floor: " + json.dumps(raw["at_probe_floor"]))
        print("  fastest run of each op, unadjusted: " + json.dumps(raw["fastest_run"]))
        print("  speed probe (ms): " + json.dumps(raw["probe_ms"]))
    for name, (count, example) in sorted(result["failures"].items()):
        print(f"  failure {name}: {count} op(s), e.g. {example}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("  machine: " + json.dumps(result["machine"]))
    print("  eigh floor (ms): " + json.dumps(result["eigh_floor_ms"]))
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in result["units"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "isoflag" / "__init__.py").is_file():
        print(f"error: no isoflag sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = measure(args, spec)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
