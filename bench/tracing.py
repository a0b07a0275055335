"""Spans recorded from outside the isoflag package.

``Tracer.install`` replaces every public function of the layer modules, in
every ``isoflag.*`` namespace that binds it, with a wrapper that records a
span (name, parent, start, end), and wraps the ``__post_init__`` validators
of the package's dataclasses the same way.  ``numpy.linalg.eigh``,
``eigvalsh`` and ``det`` are wrapped as plain counters.  Nothing under
``src/`` changes: ``uninstall`` puts every original object back.

Spans are kept in flat in-memory lists while the workload runs; self time
and per-layer totals are computed, and the spans written out, only after
the traced pass ends.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("flagcore", "embed", "geometry", "repdim", "bounds", "cli")
_LAYER_OF_MODULE = {f"isoflag.{layer}": layer for layer in LAYERS}
EIG_FUNCS = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack = [-1]
        self.numpy_calls: collections.Counter = collections.Counter()
        self.results: dict[str, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, keep_results=()):
        """Wrap the package's public functions and validators.

        ``keep_results`` names spans (``layer.function``) whose return values
        are kept, in call order, in ``self.results[name]``.
        """
        wrappers: dict[int, object] = {}
        classes: set[int] = set()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "isoflag" or name.startswith("isoflag."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                layer = _LAYER_OF_MODULE.get(getattr(value, "__module__", None))
                if layer is None:
                    continue
                if inspect.isfunction(value):
                    if id(value) not in wrappers:
                        name = f"{layer}.{value.__name__}"
                        wrappers[id(value)] = self._wrap(value, name, name in keep_results)
                    self._patch(module, attr, wrappers[id(value)])
                elif inspect.isclass(value) and "__post_init__" in vars(value) and id(value) not in classes:
                    classes.add(id(value))
                    validator = vars(value)["__post_init__"]
                    self._patch(value, "__post_init__",
                                self._wrap(validator, f"{layer}.{value.__name__}.validate", False))
        for fname in EIG_FUNCS + ("det",):
            self._patch(np.linalg, fname, self._count(getattr(np.linalg, fname), fname))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count(self, fn, name):
        tracer = self
        calls = self.numpy_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name, keep_result):
        tracer = self
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack
        kept = self.results.setdefault(name, []) if keep_result else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    # -- spans opened by the benchmark itself ---------------------------

    def open_root(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(-1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.stack.append(idx)
        return idx

    def close_root(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def eig_calls(self) -> int:
        return sum(self.numpy_calls[f] for f in EIG_FUNCS)

    def det_calls(self) -> int:
        return self.numpy_calls["det"]

    # -- analysis, after the traced pass --------------------------------

    def summary(self) -> "TraceSummary":
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls: collections.Counter = collections.Counter()
        self_ns: collections.Counter = collections.Counter()
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
        return TraceSummary(calls, self_ns)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        count = 0
        for i, own in enumerate(self.names):
            if own != name:
                continue
            p = self.parents[i]
            while p >= 0:
                if self.names[p] == ancestor:
                    count += 1
                    break
                p = self.parents[p]
        return count

    def write(self, path) -> None:
        """Save the spans as a compressed ``.npz``: ``names`` (the span name
        table), and per span ``name`` (an index into it), ``parent`` (-1 for
        a root) and ``start_ns`` / ``end_ns``."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start_ns=np.array(self.starts, dtype=np.int64),
            end_ns=np.array(self.ends, dtype=np.int64),
        )


class TraceSummary:
    """Calls and self time per span name, and their per-layer totals."""

    def __init__(self, calls, self_ns):
        self.calls = calls
        self.self_ns = self_ns

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def layer_calls(self, layer: str, suffix: str = "") -> int:
        return sum(c for name, c in self.calls.items()
                   if name.startswith(layer + ".") and name.endswith(suffix))

    def layer_self_ms(self, layer: str, suffix: str = "") -> float:
        return sum(t for name, t in self.self_ns.items()
                   if name.startswith(layer + ".") and name.endswith(suffix)) / 1e6
