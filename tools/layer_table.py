"""Time each layer of isoflag on its own, by direct calls in this process.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/layer_table.py

``tools/record_bench.py`` runs this script in one child process, with the
environment ``bench/run.py`` gives its workers (the package from ``src/``,
``PYTHONHASHSEED=0``, one BLAS/OpenMP thread), and keeps the JSON object it
prints as the ``layers`` section of ``BENCH_<label>.json``.

Each figure is the best of ``BEST_OF`` loops of one call, each loop sized
from a warm call to about ``LOOP_S`` seconds:

- ``numeric``: per stage and n, the time of one call in µs and as a
  multiple (``eigh_x``) of one ``np.linalg.eigh`` of a random symmetric
  matrix of that n, itself under ``eigh``.  The signature has the cuts
  n/4, n/2, 3n/4 and the default spectrum, and the target is a random
  model point plus 0.1/sqrt(n) (A + A')/2 noise, as in the ``descent``
  workloads.  ``descent_iteration`` is
  (run(k) - run(0)) / k of ``gradient_descent`` at ``grad_tol=0`` with the
  default step.
- ``exact``: per stage and n, the time in ms and the local slope
  d log t / d log n from the previous n (None at the first).  ``_walk`` is
  the classification walk at the bound (n-1)(n+2)/2 with no box, and
  ``weyl_dim`` is taken at the full-length weight (1, ..., 1).
- ``sweep_rows_per_s``: rows of ``isoflag bounds sweep --max-n N`` (text)
  per second, stdout captured in memory.

The table makes 93 figures of 5 loops, so ``LOOP_S`` = 0.06 keeps it under
30 s: it took 26 s on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

import isoflag as iso
from isoflag import cli, repdim

NUMERIC_NS = (4, 8, 12, 32, 96, 160)
EXACT_NS = (17, 64, 256, 1024, 4096, 8192)
SWEEP_MAX_NS = (10, 13, 16)
LOOP_S = 0.06
BEST_OF = 5
DESCENT_K = 20
NOISE = 0.1


def best_time(call, loop_s: float = LOOP_S) -> float:
    """The best of ``BEST_OF`` loops of ``call()``, in seconds per call; each
    loop repeats it as often as about ``loop_s`` seconds take, judged by one
    call after a warm-up call."""
    call()
    t0 = time.perf_counter()
    call()
    number = max(1, round(loop_s / max(time.perf_counter() - t0, 1e-9)))
    best = math.inf
    for _ in range(BEST_OF):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def numeric_stages(n: int) -> dict:
    """The numeric stages at n, each a call with its inputs bound; for
    ``descent_iteration`` the pair of calls run(k), run(0)."""
    rng = np.random.default_rng(n)
    sig = iso.make_signature(n, sorted({n // 4, n // 2, 3 * n // 4}))
    spec = iso.default_traceless_spectrum(sig)
    seed = int(rng.integers(2**63))
    f = iso.random_flag_point(sig, seed)
    r = iso.random_flag_point(sig, seed + 1).q
    point = iso.embed(f, spec)
    a = rng.standard_normal((n, n))
    target = point.x.entries + NOISE / np.sqrt(n) * (a + a.T) / 2.0
    noisy = iso.SymmetricMatrix(target)
    gradient = iso.SymmetricMatrix(point.x.entries - target)

    def descend(k):
        return lambda: iso.gradient_descent(lambda x: x - target, spec, point, grad_tol=0.0, max_iters=k)

    return {
        "SymmetricMatrix": lambda: iso.SymmetricMatrix(target),
        "random_flag_point": lambda: iso.random_flag_point(sig, seed),
        "FlagPoint": lambda: iso.FlagPoint(f.q, sig),
        "act": lambda: iso.act(r, f),
        "embed": lambda: iso.embed(f, spec),
        "recover": lambda: iso.recover(point.x, spec),
        "nearest_point": lambda: iso.nearest_point(noisy, spec),
        "project_to_tangent": lambda: iso.project_to_tangent(gradient, point),
        "descent_iteration": (descend(DESCENT_K), descend(0)),
    }


def exact_stages(n: int) -> dict:
    bound = repdim.traceless_sym_dim(n)
    ones = repdim.HighestWeight(n, (2,) * (n // 2))
    return {
        "verify_classification": lambda: repdim.verify_classification(n),
        "_walk": lambda: repdim._walk(n, bound, None),
        "_comparison_dims": lambda: repdim._comparison_dims(n),
        "weyl_dim": lambda: repdim.weyl_dim(ones),
    }


def sweep(max_n: int):
    argv = ["bounds", "sweep", "--max-n", str(max_n)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"isoflag {' '.join(argv)} failed")

    return run


def layer_table(numeric_ns=NUMERIC_NS, exact_ns=EXACT_NS, sweep_max_ns=SWEEP_MAX_NS, loop_s=LOOP_S) -> dict:
    """The ``layers`` section: every stage at every size of its list."""
    start = time.perf_counter()
    numeric: dict = {"eigh": {}}
    for n in numeric_ns:
        a = np.random.default_rng(n).standard_normal((n, n))
        a = (a + a.T) / 2.0
        eigh = best_time(lambda: np.linalg.eigh(a), loop_s)
        numeric["eigh"][n] = {"us": eigh * 1e6, "eigh_x": 1.0}
        for name, call in numeric_stages(n).items():
            if isinstance(call, tuple):
                t = (best_time(call[0], loop_s) - best_time(call[1], loop_s)) / DESCENT_K
            else:
                t = best_time(call, loop_s)
            numeric.setdefault(name, {})[n] = {"us": t * 1e6, "eigh_x": t / eigh}
    exact: dict = {}
    for i, n in enumerate(exact_ns):
        for name, call in exact_stages(n).items():
            rows = exact.setdefault(name, {})
            ms = best_time(call, loop_s) * 1e3
            slope = None
            if i:
                prev = exact_ns[i - 1]
                slope = math.log(ms / rows[prev]["ms"]) / math.log(n / prev)
            rows[n] = {"ms": ms, "slope": slope}
    rows_per_s = {}
    for max_n in sweep_max_ns:
        rows = sum(2 ** (m - 1) - 1 for m in range(2, max_n + 1))
        rows_per_s[max_n] = rows / best_time(sweep(max_n), loop_s)
    return {
        "loop_s": loop_s,
        "best_of": BEST_OF,
        "descent_k": DESCENT_K,
        "numeric": numeric,
        "exact": exact,
        "sweep_rows_per_s": rows_per_s,
        "seconds": time.perf_counter() - start,
    }


if __name__ == "__main__":
    print(json.dumps(layer_table()))
