"""Connected components by label propagation on the (min, second) semiring.

Each vertex starts with its own id as label; every round each vertex takes
the minimum label among itself and its neighbours — one dense-vector SpMV
on ``MIN_SECOND`` per round.  Converges in O(diameter) rounds on the
component graph, which is what the GraphBLAS formulation trades for its
one-line inner loop (the full LACC algorithm of the paper's authors is the
production version; label propagation preserves its operation mix).

Written once against the :class:`~repro.exec.backend.Backend` protocol:
pass ``backend=DistBackend(machine)`` for the distributed flavour, with
per-round costs recorded under ``cc[iter=k]:`` ledger prefixes.
"""

from __future__ import annotations

import numpy as np

from ..algebra.semiring import MIN_SECOND
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from ..sparse.sort import unique_sorted

__all__ = [
    "connected_components",
    "connected_components_incremental",
    "num_components",
]


def _cc_round(b: Backend, a, labels: np.ndarray, r: int) -> np.ndarray:
    """One propagation round: each vertex takes the min label among
    itself and its neighbours (``labels`` is not mutated)."""
    with b.iteration("cc", r):
        neighbor_min = b.mxv_dense(a, labels, semiring=MIN_SECOND)
    return np.minimum(labels, neighbor_min)


def _cc_core(b: Backend, a, max_rounds: int | None) -> np.ndarray:
    if b.shape(a)[0] != b.shape(a)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(a)[0]
    labels = np.arange(n, dtype=np.float64)
    rounds = max_rounds if max_rounds is not None else n
    for r in range(rounds):
        new_labels = _cc_round(b, a, labels, r)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels.astype(np.int64)


def _merge_labels(prev: np.ndarray, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """Union-find over component labels, minimum root wins.

    ``prev`` labels each vertex with the minimum vertex id of its old
    component; unioning the label pairs of the inserted edges with the
    smaller label as root reproduces exactly the minimum vertex id of
    each merged component — i.e. what label propagation from scratch
    would converge to."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a_lbl, b_lbl in zip(lu, lv):
        ra, rb = find(int(a_lbl)), find(int(b_lbl))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    uniq, inverse = np.unique(prev, return_inverse=True)
    roots = np.array([find(int(x)) for x in uniq], dtype=np.int64)
    return roots[inverse]


def connected_components(
    a: CSRMatrix,
    max_rounds: int | None = None,
    *,
    backend: Backend | None = None,
) -> np.ndarray:
    """Per-vertex component labels (the minimum vertex id in the component).

    ``a`` must be symmetric (undirected graph); pass
    ``ewiseadd_mm(a, a.transposed(), MAX)`` first if it is not.
    """
    b = backend or ShmBackend()
    return _cc_core(b, b.matrix(a), max_rounds)


def num_components(a: CSRMatrix, *, backend: Backend | None = None) -> int:
    """Number of connected components of the (undirected) graph."""
    return int(unique_sorted(connected_components(a, backend=backend)).size)


def connected_components_incremental(
    a,
    prev_labels: np.ndarray,
    batch,
    *,
    backend: Backend | None = None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Repair component labels after a delta batch (dynamic CC).

    ``a`` is the **post-update** (symmetric) adjacency and
    ``prev_labels`` the labels of the pre-update graph.  Inserted edges
    only merge components, and the merge is a pure union-find over the
    old labels with the minimum label as root — no matrix operation at
    all, against a full recompute's O(diameter) propagation rounds.  A
    deleted edge inside a component (``prev[u] == prev[v]``) may split
    it, which a merge cannot express — then this falls back to the
    from-scratch core on the current graph.  Either way the labels are
    bit-identical to ``connected_components`` on the post-update graph.

    ``batch`` is the :class:`~repro.streaming.delta.UpdateBatch` that was
    applied between ``prev_labels`` and ``a``.
    """
    b = backend or ShmBackend()
    am = b.matrix(a)
    if b.shape(am)[0] != b.shape(am)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(am)[0]
    prev = np.asarray(prev_labels, dtype=np.int64)
    if prev.shape != (n,):
        raise ValueError(f"prev_labels shape {prev.shape} != ({n},)")
    du, dv = batch.delete_pairs()
    if du.size and np.any(prev[du] == prev[dv]):
        return _cc_core(b, am, max_rounds)
    iu, iv, _ = batch.upsert_triples()
    return _merge_labels(prev, prev[iu], prev[iv])
