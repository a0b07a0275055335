"""The layer table of ``tools/layer_table.py`` runs every stage it names.

It is timed in ``BENCH_*.json`` by ``tools/record_bench.py``; here it runs
once at the smallest size of each of its lists, with loops of one call, so a
stage that no longer resolves (a renamed function, a changed signature)
fails a test rather than a recording.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import layer_table  # noqa: E402

NUMERIC = {"eigh", "SymmetricMatrix", "random_flag_point", "FlagPoint", "act", "embed", "recover",
           "nearest_point", "project_to_tangent", "descent_iteration"}
EXACT = {"verify_classification", "_walk", "_comparison_dims", "weyl_dim"}


def test_every_stage_runs_at_the_smallest_sizes():
    n, m, max_n = layer_table.NUMERIC_NS[0], layer_table.EXACT_NS[0], layer_table.SWEEP_MAX_NS[0]
    table = layer_table.layer_table((n,), (m,), (max_n,), loop_s=1e-5)
    assert set(table["numeric"]) == NUMERIC
    assert set(table["exact"]) == EXACT
    for rows in table["numeric"].values():
        assert math.isfinite(rows[n]["us"]) and math.isfinite(rows[n]["eigh_x"])
    assert table["numeric"]["eigh"][n]["eigh_x"] == 1.0
    for rows in table["exact"].values():
        assert rows[m]["ms"] > 0 and rows[m]["slope"] is None
    assert table["sweep_rows_per_s"][max_n] > 0

