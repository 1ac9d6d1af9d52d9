"""GraphStream — a mutable graph fed by delta batches, with telemetry.

The streaming counterpart of "build a matrix, run an algorithm": a
:class:`GraphStream` owns one backend matrix handle and applies
:class:`~repro.streaming.delta.UpdateBatch` es to it through the
backend's ``apply_updates`` op.  Every application:

* runs under a ``stream[epoch=k]:`` ledger prefix (the same
  :class:`~repro.exec.backend.IterationScope` machinery algorithms use
  for ``algo[iter=k]:``), so ingest cost decomposes per batch exactly
  like algorithm cost decomposes per iteration;
* bumps the graph **epoch** — and, through the storage mutation epoch
  (:mod:`repro.runtime.epoch`), invalidates every identity-anchored plan
  and transpose cache;
* exports first-class telemetry: ``stream.batches``,
  ``stream.ingest.edges`` (by kind), ``stream.batch.seconds`` (simulated
  batch latency, reconciling exactly with the ``stream[epoch=...]``
  ledger rows), ``stream.epoch``, ``stream.ingest.rate`` (simulated
  edges/second), and ``stream.staleness`` (worst attached-view epoch
  lag).

:class:`IncrementalView` is the query side: a cached algorithm result
that refreshes lazily — replaying only the batches it missed through an
algorithm-specific ``advance`` function (delta-BFS repair, CC
union-merge, PageRank warm restart; see :mod:`repro.algorithms`), and
falling back to full recomputation when it has never run or the history
window no longer covers its lag.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..exec.backend import IterationScope
from ..runtime.telemetry import registry as _metrics
from .delta import UpdateBatch

__all__ = ["GraphStream", "IncrementalView", "batches_from_edgelist"]


class GraphStream:
    """A backend matrix handle advanced in place by update batches.

    Parameters
    ----------
    backend:
        Any :class:`~repro.exec.backend.Backend`; the stream works on
        whatever handle ``backend.matrix(a)`` adopts.
    a:
        The initial graph (global CSR or an existing backend handle).
    accum:
        Default accumulator for upserts (``None`` = overwrite/insert).
    history:
        How many applied batches to retain for incremental catch-up;
        views lagging further behind fall back to full recomputation.
    """

    def __init__(
        self,
        backend,
        a,
        *,
        accum=None,
        history: int = 32,
        registry=None,
    ) -> None:
        if history < 0:
            raise ValueError("history must be non-negative")
        self.backend = backend
        self.handle = backend.matrix(a)
        self.accum = accum
        self.epoch = 0
        self._history: deque[tuple[int, UpdateBatch]] = deque(maxlen=history)
        self._views: list["IncrementalView"] = []
        self._registry = registry if registry is not None else _metrics.default_registry()
        self._edges_applied = 0
        self._seconds_applied = 0.0

    # -- structure -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the streamed graph."""
        return self.backend.shape(self.handle)

    @property
    def nnz(self) -> int:
        """Current stored entries (post all applied batches)."""
        return self.backend.matrix_nnz(self.handle)

    @property
    def views(self) -> tuple["IncrementalView", ...]:
        """The attached incremental views."""
        return tuple(self._views)

    # -- ingest --------------------------------------------------------------

    def apply(self, batch: UpdateBatch) -> int:
        """Apply one delta batch in place; returns the new epoch.

        The backend op runs under a ``stream[epoch=k]:`` ledger prefix;
        its simulated seconds (measured off that ledger slice, so metric
        and ledger reconcile exactly) feed the batch-latency histogram
        and the running ingest rate.  The epoch advances only once the op
        returns: a batch the backend refused leaves the epoch and the
        history as they were.
        """
        if batch.shape != self.shape:
            raise ValueError(
                f"batch shape {batch.shape} != stream shape {self.shape}"
            )
        ledger = self.backend.machine.ledger
        start = len(ledger.entries) if ledger is not None else 0
        with IterationScope(
            ledger,
            f"stream[epoch={self.epoch + 1}]",
            registry=self._registry,
            profile=getattr(self.backend, "profile", None),
        ):
            self.backend.apply_updates(self.handle, batch, accum=self.accum)
        self.epoch += 1
        seconds = (
            sum(b.total for _, b in ledger.entries[start:])
            if ledger is not None
            else 0.0
        )
        self._history.append((self.epoch, batch))
        self._edges_applied += batch.size
        self._seconds_applied += seconds

        reg, name = self._registry, self.backend.name
        reg.counter("stream.batches").inc(1, backend=name)
        edges = reg.counter("stream.ingest.edges")
        if batch.num_upserts:
            edges.inc(batch.num_upserts, backend=name, kind="upsert")
        if batch.num_deletes:
            edges.inc(batch.num_deletes, backend=name, kind="delete")
        reg.histogram("stream.batch.seconds").observe(seconds, backend=name)
        reg.gauge("stream.epoch").set(self.epoch, backend=name)
        if self._seconds_applied > 0.0:
            reg.gauge("stream.ingest.rate").set(
                self._edges_applied / self._seconds_applied, backend=name
            )
        self._record_staleness()
        return self.epoch

    def ingest(self, batches) -> int:
        """Apply an iterable of batches; returns the final epoch."""
        for batch in batches:
            self.apply(batch)
        return self.epoch

    # -- staleness -----------------------------------------------------------

    def lag(self, view: "IncrementalView") -> int:
        """Epochs ``view`` is behind the stream (``epoch+1`` for a view
        that has never computed)."""
        return self.epoch - view.epoch

    def pending(self, since_epoch: int) -> list[UpdateBatch] | None:
        """Batches applied after ``since_epoch``, oldest first.

        ``None`` when the history window no longer covers the span —
        the caller must recompute from the current graph instead.
        """
        if since_epoch >= self.epoch:
            return []
        out = [b for e, b in self._history if e > since_epoch]
        if len(out) != self.epoch - since_epoch:
            return None
        return out

    def _record_staleness(self) -> None:
        if not self._views:
            return
        worst = max(self.lag(v) for v in self._views)
        self._registry.gauge("stream.staleness").set(
            worst, backend=self.backend.name
        )


class IncrementalView:
    """A lazily refreshed algorithm result attached to a stream.

    ``compute()`` produces the result from the stream's *current* graph
    (full recomputation); ``advance(result, batch)`` repairs a result by
    one applied batch.  :meth:`value` replays exactly the batches the
    view missed — or recomputes when it must — and records the outcome
    (``hit`` / ``incremental`` / ``full``) plus the observed epoch lag in
    the telemetry registry.

    A view with no ``advance`` is a plain memo over the epoch: correct,
    never incremental.
    """

    def __init__(
        self,
        stream: GraphStream,
        compute: Callable[[], object],
        advance: Callable[[object, UpdateBatch], object] | None = None,
        *,
        name: str = "view",
    ) -> None:
        self.stream = stream
        self.compute_full = compute
        self.advance_fn = advance
        self.name = name
        self.result: object | None = None
        self.epoch = -1
        stream._views.append(self)
        stream._record_staleness()

    def invalidate(self) -> None:
        """Drop the cached result; the next :meth:`value` recomputes."""
        self.result = None
        self.epoch = -1

    def value(self):
        """The result at the stream's current epoch (refreshing if stale)."""
        s = self.stream
        reg = s._registry
        lag = s.lag(self)
        if self.result is not None and lag == 0:
            outcome = "hit"
        else:
            batches = None if self.result is None else s.pending(self.epoch)
            if batches is None or self.advance_fn is None:
                self.result = self.compute_full()
                outcome = "full"
            else:
                result = self.result
                for batch in batches:
                    result = self.advance_fn(result, batch)
                self.result = result
                outcome = "incremental"
            self.epoch = s.epoch
        reg.counter("stream.view.refresh").inc(1, view=self.name, outcome=outcome)
        reg.histogram("stream.view.lag").observe(max(lag, 0), view=self.name)
        s._record_staleness()
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"IncrementalView({self.name!r}, epoch={self.epoch}/"
            f"{self.stream.epoch})"
        )


def batches_from_edgelist(
    path_or_file,
    n: int,
    batch_edges: int,
    *,
    symmetric: bool = False,
):
    """Yield insert :class:`UpdateBatch` es from a SNAP-style edge list.

    Streams the file in ``batch_edges``-sized chunks through
    :func:`repro.io.edgelist.iter_edgelist_chunks` — the file is never
    materialised whole, so arbitrarily large edge lists feed a
    :class:`GraphStream` in bounded memory.  ``symmetric`` mirrors every
    edge (undirected input stored one direction).
    """
    import numpy as np

    from ..io.edgelist import iter_edgelist_chunks

    for u, v, w in iter_edgelist_chunks(path_or_file, batch_edges):
        if symmetric:
            u, v = np.concatenate([u, v]), np.concatenate([v, u])
            w = np.concatenate([w, w])
        yield UpdateBatch.from_edges(n, n, inserts=(u, v, w))
