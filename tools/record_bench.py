"""Record the benchmark of this checkout in one ``BENCH_<label>.json``.

    python3 tools/record_bench.py --label pr35

For each workload of ``BENCHMARK.json`` it runs the unchanged
``python3 bench/run.py`` as a subprocess, one run at a time, for its
``run_seconds``: seeds 1..10 with ``--trace 0``, then seed 1 with
``--trace 1``.  The file, written at the root of the checkout, holds the
commit (and the paths that differ from it), every run's command, exit code,
last JSON line and its ``machine:`` and ``eigh floor (ms):`` lines, and per
workload the median and interquartile range of each end-to-end metric over
the runs that printed one, the failed ops of those runs, and the
``src.lines.*`` counts of the trace run.  A run that printed no result (exit
code 2) is kept with a null result and left out of the statistics.

The file records one checkout; comparing two of them is a question for
alternated runs of both on one machine, which this script does not make.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def run_bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One ``bench/run.py`` run: its command, exit code, last JSON line
    (None without one) and the JSON after its ``machine:`` and ``eigh floor
    (ms):`` labels."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    labelled = {label: json.loads(line.split(label, 1)[1]) for line in lines
                for label in ("machine: ", "eigh floor (ms): ") if line.strip().startswith(label)}
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"command": ["python3", *cmd[1:]], "exit_code": proc.returncode, "result": last,
            "machine": labelled.get("machine: "), "eigh_floor_ms": labelled.get("eigh floor (ms): ")}


def summary(runs: list[dict], trace_run: dict) -> dict:
    """The median and IQR of each end-to-end metric over the runs with a
    result, their failed ops, and the trace run's ``src.lines.*`` counts.
    The quartiles are ``statistics.quantiles(values, n=4, method="inclusive")``."""
    results = [r["result"] for r in runs if r["result"] is not None]
    metrics = {}
    for name in results[0]["metrics"] if results else ():
        values = [res["metrics"][name]["value"] for res in results]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
        metrics[name] = {"median": statistics.median(values), "iqr": q3 - q1,
                         "unit": results[0]["metrics"][name]["unit"], "runs": len(values)}
    trace = trace_run["result"]["metrics"] if trace_run["result"] else {}
    return {
        "metrics": metrics,
        "attempted_ops": sum(res["attempted"] for res in results),
        "failed_ops": sum(res["failed"] for res in results),
        "incorrect_runs": sum(not res["correct"] for res in results),
        "runs_without_result": len(runs) - len(results),
        "src_lines": {name: m["value"] for name, m in trace.items() if name.startswith("src.lines.")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output file, BENCH_<label>.json")
    args = ap.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        ap.error("--label must be letters, digits, '-' and '_'")
    out = ROOT / f"BENCH_{args.label}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD").strip(),
        "uncommitted": sorted(line[3:] for line in git("status", "--porcelain").splitlines()
                              if line[3:] != out.name),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_bench(workload, seed, 0, seconds))
            print(f"{workload} seed {seed}: exit {runs[-1]['exit_code']}", file=sys.stderr)
        trace_run = run_bench(workload, SEEDS[0], 1, seconds)
        print(f"{workload} trace: exit {trace_run['exit_code']}", file=sys.stderr)
        record["workloads"][workload] = {**summary(runs, trace_run), "runs": runs, "trace_run": trace_run}
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
