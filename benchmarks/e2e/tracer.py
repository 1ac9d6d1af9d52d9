"""Layer tracer: spans around the library's layer boundaries, from outside.

The tracer wraps each layer's public callables (the map in :data:`LAYERS`)
and records a span per call: name, layer, start, end, parent and op id.
Spans of one timed op share an id, and so do spans of one service batch
(``run_batch`` starts a new id).  Self time, a span's duration minus the
time its direct children cover, is summed per layer as spans close; the
root span's self time is ``other`` (the benchmark's own code and anything
unwrapped that it calls directly).  So the layers' self times plus
``other`` add up to the root spans by construction.

Module-level functions are wrapped by rebinding *every* ``repro.*``
module attribute that is the original function, so ``from .x import f``
call sites see the wrapper too.  Methods are wrapped on their class.
Everything is restored by :meth:`Tracer.uninstall`.

Spans stay in memory (up to ``max_spans``) and are written at the end as
Chrome ``trace_event`` JSON by :meth:`Tracer.write_chrome`.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

from repro.exec.backend import PROFILED_OPS

_OPS_OTHER = ("ewise", "ewise_dist", "matrix_dist", "transpose", "reduce", "mask", "select")

#: layer name -> boundary callables, each ``"module:pattern"`` where the
#: pattern is ``__all__`` (its plain functions), a function-name glob, or
#: ``Class.method-glob`` (public methods only).
LAYERS = {
    "service": ("repro.service.service:GraphQueryService.run", "repro.service.queries:run_batch"),
    "streaming": ("repro.streaming.stream:GraphStream.apply",),
    "algorithms": ("repro.algorithms.bfs:bfs_levels", "repro.algorithms.pagerank:pagerank",
                   "repro.algorithms.triangle:count_triangles"),
    "exec": tuple(f"repro.exec.dist:DistBackend.{op}" for op in sorted(PROFILED_OPS)),
    "ops.dispatch": ("repro.ops.dispatch:Dispatcher.*",),
    "ops.spmspv": ("repro.ops.spmspv:__all__",),
    "ops.mxm": ("repro.ops.mxm:__all__", "repro.ops.mxm_dist:__all__"),
    "ops.spmv": ("repro.ops.spmv:__all__",),
    "ops.other": tuple(f"repro.ops.{m}:__all__" for m in _OPS_OTHER),
    "sparse": ("repro.sparse.coo:coalesce", "repro.sparse.csr:CSRMatrix.from_coo",
               "repro.sparse.csr:CSRMatrix.from_triples"),
    "distributed": ("repro.distributed.dist_matrix:DistSparseMatrix.from_global",
                    "repro.distributed.dist_vector:DistSparseVector.from_global"),
    "runtime.aggregation": tuple(
        f"repro.runtime.aggregation:{f}"
        for f in ("exchange", "group_by_owner", "gather_agg*", "merge_superstep_batches")
    ),
    "runtime.cost": tuple(f"repro.runtime.{m}:__all__" for m in ("comm", "tasks", "atomics")),
    "runtime.clock": ("repro.runtime.clock:CostLedger.record",),
    "runtime.telemetry": tuple(
        f"repro.runtime.telemetry.registry:{m}"
        for m in ("Counter.inc", "Gauge.set", "Gauge.inc", "Histogram.observe")
    ),
    "runtime.spmd": ("repro.runtime.spmd:map_blocks",),
}

#: the remainder of the root spans, reported beside the layers
OTHER = "other"
#: dispatcher methods recorded as the ``price`` child span
PRICE_GLOB = "estimate_*"
#: callables whose span starts a new op id (one service batch)
BOUNDARIES = {"run_batch"}


def _targets():
    """``(layer, owner, attr, raw)`` for every boundary, each function once
    (the first layer that names it keeps it)."""
    seen: set[int] = set()
    out = []
    for layer, specs in LAYERS.items():
        for spec in specs:
            modname, pattern = spec.split(":")
            mod = importlib.import_module(modname)
            if "." in pattern:
                clsname, glob = pattern.split(".")
                owner = getattr(mod, clsname)
                names = [n for n in dir(owner) if not n.startswith("_") and fnmatch.fnmatch(n, glob)]
            else:
                owner = mod
                names = mod.__all__ if pattern == "__all__" else fnmatch.filter(dir(mod), pattern)
            for name in names:
                raw = inspect.getattr_static(owner, name)
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(fn) or id(fn) in seen:
                    continue
                seen.add(id(fn))
                out.append((layer, owner, name, raw))
    return out


class Tracer:
    """Collects per-layer calls and self seconds, plus the raw spans."""

    def __init__(self, max_spans: int = 200_000) -> None:
        self.layers = list(LAYERS) + [OTHER]
        self.calls = dict.fromkeys(self.layers, 0)
        self.self_s = dict.fromkeys(self.layers, 0.0)
        self.price_s = 0.0
        self.root_s = 0.0
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._ops = 0
        self._next_span = 0
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str, name: str, new_op: bool) -> None:
        parent = self._stack[-1]
        op = self._new_op() if new_op else parent[4]
        self._next_span += 1
        self._stack.append([layer, name, time.perf_counter(), 0.0, op, self._next_span, parent[5]])

    def _leave(self) -> None:
        end = time.perf_counter()
        layer, name, start, child, op, span, parent = self._stack.pop()
        dur = end - start
        own = dur - child
        self.self_s[layer] += own
        self.calls[layer] += 1
        if name == "price":
            self.price_s += own
        self._stack[-1][3] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((name, layer, start, end, op, span, parent))

    def _new_op(self) -> int:
        self._ops += 1
        return self._ops

    @contextmanager
    def root(self, name: str = "op"):
        """Open one timed op's root span; wrapped calls record only inside."""
        self._next_span += 1
        self._stack.append([OTHER, name, time.perf_counter(), 0.0, self._new_op(), self._next_span, 0])
        try:
            yield
        finally:
            end = time.perf_counter()
            _, _, start, child, op, span, _ = self._stack.pop()
            self.root_s += end - start
            self.self_s[OTHER] += end - start - child
            if len(self.spans) < self.max_spans:
                self.spans.append((name, OTHER, start, end, op, span, 0))

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        new_op = name in BOUNDARIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:  # outside a timed op: not measured
                return fn(*args, **kwargs)
            tracer._enter(layer, name, new_op)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave()

        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every boundary callable of :data:`LAYERS`."""
        rebind: dict[int, tuple] = {}
        for layer, owner, attr, raw in _targets():
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                span = "price" if fnmatch.fnmatch(attr, PRICE_GLOB) else f"{owner.__name__}.{attr}"
                wrapped = self._wrap(fn, layer, span)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(wrapped)
                self._restore.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapped)
            else:
                rebind[id(raw)] = (raw, self._wrap(raw, layer, attr))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def unreconciled(self) -> float:
        """|sum of self times - root time| as a share of the root time."""
        return abs(sum(self.self_s.values()) - self.root_s) / self.root_s

    def metrics(self, ops: int) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` per op (``other`` has
        no calls of its own), plus the dispatcher's pricing self time."""
        out = {f"{layer}.calls": self.calls[layer] / ops for layer in LAYERS}
        out.update({f"{layer}.self_s": self.self_s[layer] / ops for layer in self.layers})
        out["ops.dispatch.price_s"] = self.price_s / ops
        return out

    def write_chrome(self, path) -> None:
        """The recorded spans as Chrome ``trace_event`` JSON."""
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - self._t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"op": op, "span": span, "parent": parent}}
            for name, layer, start, end, op, span, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
