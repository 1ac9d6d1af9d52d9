"""Single-source shortest paths — Bellman-Ford on the tropical semiring.

The classic GraphBLAS SSSP: distances relax through repeated
``d ← d min (d ⊗ A)`` steps where ``⊗`` is ``(min, +)`` — the MIN_PLUS
semiring shipped in :mod:`repro.algebra.semiring`.  Runs until a fixpoint or
``n-1`` iterations; a further improving iteration afterwards means a
negative cycle.  The core is backend-agnostic, so the same code relaxes
over the distributed backend (min is associative, so results are
bit-identical across backends); each relaxation is recorded under an
``sssp[iter=k]:`` ledger prefix.

:func:`sssp_batch` is the multi-source form: the distance state of many
sources stacks into one sparse matrix and each round is one ``mxm``.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import MIN
from ..algebra.semiring import MIN_PLUS
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix

__all__ = ["sssp", "sssp_batch", "NegativeCycleError"]


class NegativeCycleError(ValueError):
    """The graph contains a cycle with negative total weight."""


def _sssp_core(
    b: Backend, a, source: int, *, check_negative_cycles: bool
) -> np.ndarray:
    if b.shape(a)[0] != b.shape(a)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(a)[0]
    if not 0 <= source < n:
        raise IndexError(f"source {source} outside [0, {n})")
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    for it in range(max(n - 1, 1)):
        with b.iteration("sssp", it):
            relaxed = b.vxm_dense(dist, a, semiring=MIN_PLUS)
        new_dist = np.minimum(dist, relaxed)
        if np.array_equal(new_dist, dist, equal_nan=True):
            break
        dist = new_dist
    else:
        if check_negative_cycles:
            relaxed = b.vxm_dense(dist, a, semiring=MIN_PLUS)
            if np.any(np.minimum(dist, relaxed) < dist):
                raise NegativeCycleError("negative cycle reachable from source")
    return dist


def sssp(
    a: CSRMatrix,
    source: int,
    *,
    check_negative_cycles: bool = True,
    backend: Backend | None = None,
) -> np.ndarray:
    """Distances from ``source`` along weighted edges ``A[i, j]``.

    Unreachable vertices get ``inf``.  Edge weights may be negative;
    ``check_negative_cycles`` raises :class:`NegativeCycleError` when a
    negative cycle is reachable from the source.
    """
    b = backend or ShmBackend()
    return _sssp_core(
        b, b.matrix(a), source, check_negative_cycles=check_negative_cycles
    )


def sssp_batch(
    a: CSRMatrix, sources: np.ndarray, *, backend: Backend | None = None
) -> np.ndarray:
    """Distances from every source at once: Bellman–Ford on a state matrix.

    The distance state is a sparse ``len(sources) × n`` matrix on the
    tropical semiring (absent = +inf, the sources' own zeros stored
    explicitly); each round is ``D ← D min (D ⊗ A)`` — one ``mxm`` with
    ``accum=MIN`` folding the previous state, run to the fixpoint or
    ``n-1`` rounds.  Returns a dense float array with ``inf`` for
    unreachable vertices.  Every candidate distance is one ``d[u] + w``
    term folded with ``min`` (order-free over floats), so row ``i`` is
    bit-identical to ``sssp(a, sources[i])``.  Negative cycles are not
    detected.
    """
    b = backend or ShmBackend()
    am = b.matrix(a)
    if b.shape(am)[0] != b.shape(am)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(am)[0]
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise IndexError(f"source outside [0, {n})")
    ns = sources.size
    if ns == 0:
        return np.full((0, n), np.inf)
    d = b.matrix(
        CSRMatrix.from_triples(ns, n, np.arange(ns), sources, np.zeros(ns))
    )
    for it in range(max(n - 1, 1)):
        with b.iteration("sssp_batch", it):
            new = b.mxm(d, am, semiring=MIN_PLUS, accum=MIN, out=d)
        dc, nc = b.to_csr(d), b.to_csr(new)
        converged = (
            np.array_equal(dc.rowptr, nc.rowptr)
            and np.array_equal(dc.colidx, nc.colidx)
            and np.array_equal(dc.values, nc.values)
        )
        d = new
        if converged:
            break
    dc = b.to_csr(d)
    out = np.full((ns, n), np.inf)
    out[dc.row_indices(), dc.colidx] = dc.values
    return out
