"""The statistics ``tools/record_bench.py`` writes into ``BENCH_*.json``.

``summary`` is checked on synthetic runs, so a change to how the medians,
quartiles or op counts are taken fails here rather than in a recording.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import record_bench  # noqa: E402


def run(ops_per_kprobe, setup_s, attempted, failed, correct=True):
    """A run record as ``run_bench`` makes it, with a result of two metrics."""
    metrics = {"ops_per_kprobe": {"value": ops_per_kprobe, "unit": "1/kprobe"},
               "setup_s": {"value": setup_s, "unit": "s"}}
    return {"result": {"metrics": metrics, "attempted": attempted, "failed": failed, "correct": correct}}


def test_summary_of_synthetic_runs():
    runs = [run(1.0, 0.2, 10, 0), run(2.0, 0.3, 12, 1), run(3.0, 0.1, 11, 0, correct=False),
            run(4.0, 0.4, 9, 2), run(10.0, 0.5, 10, 0), {"result": None}]
    trace_run = {"result": {"metrics": {"src.lines.total": {"value": 2600, "unit": "count"},
                                        "src.lines.geometry": {"value": 321, "unit": "count"},
                                        "geometry.calls": {"value": 7.5, "unit": "count/op"}}}}
    got = record_bench.summary(runs, trace_run)
    # inclusive quartiles of 1, 2, 3, 4, 10 are 2 and 4 (exclusive ones: 1.5 and 7)
    assert got["metrics"] == {
        "ops_per_kprobe": {"median": 3.0, "iqr": 2.0, "unit": "1/kprobe", "runs": 5},
        "setup_s": {"median": 0.3, "iqr": 0.4 - 0.2, "unit": "s", "runs": 5},
    }
    assert (got["attempted_ops"], got["failed_ops"], got["incorrect_runs"], got["runs_without_result"]) == (52, 3, 1, 1)
    assert got["src_lines"] == {"src.lines.total": 2600, "src.lines.geometry": 321}


def test_summary_of_one_run_and_of_none():
    one = record_bench.summary([run(5.0, 0.2, 4, 0)], {"result": None})
    assert one["metrics"]["ops_per_kprobe"] == {"median": 5.0, "iqr": 0.0, "unit": "1/kprobe", "runs": 1}
    assert one["src_lines"] == {}
    none = record_bench.summary([{"result": None}] * 2, {"result": None})
    assert none == {"metrics": {}, "attempted_ops": 0, "failed_ops": 0, "incorrect_runs": 0,
                    "runs_without_result": 2, "src_lines": {}}


def test_bytecode_state_names_both_settings():
    state = record_bench.bytecode_state()
    assert set(state) == {"PYTHONDONTWRITEBYTECODE", "src_pycache_exists"}
    assert isinstance(state["src_pycache_exists"], bool)
