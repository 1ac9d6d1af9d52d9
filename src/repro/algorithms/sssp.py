"""Single-source shortest paths — Bellman-Ford on the tropical semiring.

The classic GraphBLAS SSSP: distances relax through repeated
``d ← d min (d ⊗ A)`` steps where ``⊗`` is ``(min, +)`` — the MIN_PLUS
semiring shipped in :mod:`repro.algebra.semiring`.  Runs until a fixpoint or
``n-1`` iterations; a further improving iteration afterwards means a
negative cycle.  The core is backend-agnostic, so the same code relaxes
over the distributed backend (min is associative, so results are
bit-identical across backends); each relaxation is recorded under an
``sssp[iter=k]:`` ledger prefix.

:func:`sssp_batch` is the multi-source form: the distances of many
sources are one dense host array, and each round is one ``mxm`` of the
distances that improved in the previous round (the delta frontier).  A
batch with one distinct source runs the single-source core.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import MIN
from ..algebra.semiring import MIN_PLUS
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from ..sparse.sort import first_occurrences

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
    """Distances from every source at once: delta-frontier Bellman–Ford.

    The distances live in a dense ``len(sources) × n`` host array
    (``inf`` = unreachable).  Each round multiplies only a sparse frontier
    matrix Δ of the entries that improved in the previous round (round 0:
    the sources at 0.0) — ``Δ ⊗ A`` is one ``mxm`` on the tropical
    semiring — gathers the candidates once, and folds them in with
    ``min``; the entries whose value changed are the next Δ.  An entry
    outside Δ already offered its ``d[u] + w`` candidates in an earlier
    round, and ``min`` is exact and order-free over floats, so every round
    yields the same distances as the full-state ``D ← D min (D ⊗ A)``: row
    ``i`` is bit-identical to ``sssp(a, sources[i])``, and the run stops
    after the same round (an empty Δ, or ``n-1`` rounds).  Negative
    cycles are not detected.

    A repeated source runs once.  One distinct source runs ``sssp``'s
    dense SpMV, which moves only the distances where a one-row SUMMA
    broadcasts blocks of ``A`` every round.
    """
    b = backend or ShmBackend()
    am = b.matrix(a)
    if b.shape(am)[0] != b.shape(am)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(am)[0]
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise IndexError(f"source outside [0, {n})")
    sources, row = first_occurrences(sources)
    if sources.size == 1:
        dist = _sssp_core(b, am, int(sources[0]), check_negative_cycles=False)
        return dist[np.newaxis][row]
    ns = sources.size
    dist = np.full((ns, n), np.inf)
    rows, cols, vals = np.arange(ns), sources, np.zeros(ns)
    dist[rows, cols] = vals
    for it in range(max(n - 1, 1)):
        if not rows.size:
            break
        delta = b.matrix(CSRMatrix.from_triples(ns, n, rows, cols, vals))
        with b.iteration("sssp_batch", it):
            cand = b.to_csr(b.mxm(delta, am, semiring=MIN_PLUS))
        rows, cols = cand.row_indices(), cand.colidx
        old = dist[rows, cols]
        new = MIN(old, cand.values)
        changed = new != old
        rows, cols, vals = rows[changed], cols[changed], new[changed]
        dist[rows, cols] = vals
    return dist[row]
