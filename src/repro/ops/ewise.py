"""eWiseMult / eWiseAdd — elementwise products and sums (paper §III-C).

"eWiseMult returns an object whose indices are the 'intersection' of the
indices of the inputs.  The values in this intersection set are
'multiplied' using the binary operator that is passed as a parameter."

The paper specialises to the **sparse × dense** vector case, where the
dense operand acts as a filter ("the dense vector y is simply a Boolean
vector … half the entries in x are kept"): that is
:func:`ewisemult_sparse_dense` here, with the paper's atomic-counter index
collection (Listing 6) and the prefix-sum alternative the paper sketches,
selectable via ``method=`` and compared in ``benchmarks/test_abl_ewise_atomics``.

For GraphBLAS-spec completeness this module also implements the
sparse × sparse vector intersection/union and the matrix-matrix variants.
"""

from __future__ import annotations

import numpy as np

from ..distributed.dist_vector import DistDenseVector, DistSparseVector
from ..runtime.atomics import contended_rmw, prefix_sum_merge
from ..runtime.clock import Breakdown
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, local_time_ft, parallel_time
from ..sparse.csr import CSRMatrix
from ..sparse.vector import DenseVector, SparseVector
from ..algebra.functional import BinaryOp, TIMES
from ..algebra.monoid import Monoid, PLUS_MONOID

__all__ = [
    "ewisemult_sparse_dense",
    "ewisemult_dist",
    "ewisemult_vv",
    "ewiseadd_vv",
    "ewisemult_mm",
    "ewiseadd_mm",
    "ewisemult_sd_cost",
]


# ---------------------------------------------------------------------------
# sparse x dense vector (the paper's case)
# ---------------------------------------------------------------------------


def ewisemult_sd_cost(
    machine: Machine, nnz: int, kept: int, *, method: str = "atomic"
) -> Breakdown:
    """Simulated cost of one locale's sparse×dense eWiseMult.

    Per stored element: a streaming read of (index, value) plus a *random*
    dense gather ``y[ind]`` (``element_cost``); per kept element either one
    fetch-add on the shared counter (``method="atomic"``) or a share of the
    prefix-sum merge (``method="prefix"``); then the domain insert of the
    kept indices.
    """
    cfg = machine.config
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    scan = parallel_time(
        cfg, nnz * (cfg.stream_cost + cfg.element_cost) * pen, threads
    )
    if method == "atomic":
        collect = contended_rmw(cfg, kept, threads)
    elif method == "prefix":
        collect = prefix_sum_merge(cfg, kept, threads)
    else:
        raise ValueError(f"unknown method {method!r}")
    domain = parallel_time(cfg, kept * cfg.element_cost * pen, threads)
    return Breakdown({"ewisemult": scan + collect * pen + domain})


def ewisemult_sparse_dense(
    x: SparseVector,
    y: DenseVector,
    op: BinaryOp,
    machine: Machine,
    *,
    method: str = "atomic",
) -> tuple[SparseVector, Breakdown]:
    """Listing 6: ``z[i] = op(x[i], y[i])`` for stored ``x[i]`` where the
    result is non-zero/true.

    Entries whose combined value is falsy (``0``/``False``) are dropped —
    with a Boolean ``y`` this keeps exactly the entries the mask selects,
    reproducing the paper's "about half of the nonzero entries are deleted"
    workload.  Returns the new sparse vector and the breakdown.
    """
    if x.capacity != y.capacity:
        raise ValueError(
            f"capacity mismatch: x={x.capacity}, y={y.capacity}"
        )
    gathered = y.values[x.indices]
    combined = np.asarray(op(x.values, gathered))
    keep = combined.astype(bool) if combined.dtype != bool else combined
    z = SparseVector(x.capacity, x.indices[keep].copy(), combined[keep].copy())
    b = ewisemult_sd_cost(machine, x.nnz, z.nnz, method=method)
    return z, machine.record("ewisemult_sd", b)


def ewisemult_dist(
    x: DistSparseVector,
    y: DistDenseVector,
    op: BinaryOp,
    machine: Machine,
    *,
    method: str = "atomic",
) -> tuple[DistSparseVector, Breakdown]:
    """Distributed sparse×dense eWiseMult (no communication).

    ``x`` and ``y`` share the block distribution, so every locale filters
    its own block; the simulated time is the coforall spawn plus the
    slowest locale (Fig 5's scaling experiment).
    """
    if x.capacity != y.capacity:
        raise ValueError("capacity mismatch between x and y")
    if x.grid.size != y.grid.size:
        raise ValueError("x and y must live on the same locale grid")
    cfg = machine.config
    faults = machine.faults
    if faults is not None:
        faults.check_grid(x.grid, "ewisemult_dist")
    out_blocks: list[SparseVector] = []
    per_locale: list[Breakdown] = []
    for k, (xb, yb) in enumerate(zip(x.blocks, y.blocks)):
        gathered = yb[xb.indices]
        combined = np.asarray(op(xb.values, gathered))
        keep = combined.astype(bool) if combined.dtype != bool else combined
        out_blocks.append(
            SparseVector(xb.capacity, xb.indices[keep].copy(), combined[keep].copy())
        )
        cost = ewisemult_sd_cost(machine, xb.nnz, out_blocks[-1].nnz, method=method)
        local_time_ft(cost.total, faults=faults, locale=k, site="ewisemult_dist")
        per_locale.append(cost.scaled(1.0 if faults is None else faults.slowdown(k)))
    z = DistSparseVector(x.capacity, x.grid, out_blocks)
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    b = Breakdown.parallel(per_locale) + Breakdown({"ewisemult": spawn})
    return z, machine.record("ewisemult_dist", b)


# ---------------------------------------------------------------------------
# sparse x sparse vectors (spec completeness)
# ---------------------------------------------------------------------------


def ewisemult_vv(
    x: SparseVector, y: SparseVector, op: BinaryOp = TIMES
) -> SparseVector:
    """Intersection merge of two sparse vectors: ``z = x .op. y`` on the
    common pattern.  Sorted-index intersection via ``searchsorted``."""
    if x.capacity != y.capacity:
        raise ValueError("capacity mismatch")
    pos = np.searchsorted(y.indices, x.indices)
    pos_clipped = np.minimum(pos, max(y.nnz - 1, 0))
    hit = (
        (pos < y.nnz) & (y.indices[pos_clipped] == x.indices)
        if y.nnz
        else np.zeros(x.nnz, dtype=bool)
    )
    xi = np.flatnonzero(hit)
    yi = pos[xi]
    values = np.asarray(op(x.values[xi], y.values[yi]))
    return SparseVector(x.capacity, x.indices[xi].copy(), values)


def ewiseadd_vv(
    x: SparseVector, y: SparseVector, op: BinaryOp | Monoid = PLUS_MONOID
) -> SparseVector:
    """Union merge: entries present in either input; common entries combined
    with ``op`` (a BinaryOp or Monoid)."""
    if x.capacity != y.capacity:
        raise ValueError("capacity mismatch")
    monoid_op = op.op if isinstance(op, Monoid) else op
    idx = np.concatenate([x.indices, y.indices])
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    vals = np.concatenate([x.values, y.values])[order]
    if idx.size == 0:
        return SparseVector.empty(x.capacity, dtype=vals.dtype)
    is_first = np.empty(idx.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = idx[1:] != idx[:-1]
    starts = np.flatnonzero(is_first)
    has_pair = np.diff(np.append(starts, idx.size)) == 2
    out_vals = vals[starts].copy()
    if has_pair.any():
        p = starts[has_pair]
        out_vals[has_pair] = np.asarray(monoid_op(vals[p], vals[p + 1]))
    return SparseVector(x.capacity, idx[starts].copy(), out_vals)


# ---------------------------------------------------------------------------
# matrix-matrix elementwise (spec completeness)
# ---------------------------------------------------------------------------


def _keys(a: CSRMatrix) -> np.ndarray:
    """Linearised (row, col) keys of a CSR's nonzeros (row-major sorted)."""
    return a.row_indices() * a.ncols + a.colidx


def ewisemult_mm(a: CSRMatrix, b: CSRMatrix, op: BinaryOp = TIMES) -> CSRMatrix:
    """Matrix eWiseMult: intersection of patterns, values combined by ``op``."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ka, kb = _keys(a), _keys(b)
    common, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    vals = np.asarray(op(a.values[ia], b.values[ib]))
    return CSRMatrix.from_triples(
        a.nrows, a.ncols, common // a.ncols, common % a.ncols, vals
    )


def ewiseadd_mm(
    a: CSRMatrix, b: CSRMatrix, op: BinaryOp | Monoid = PLUS_MONOID
) -> CSRMatrix:
    """Matrix eWiseAdd: union of patterns, overlaps combined by ``op``."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if isinstance(op, Monoid) or op.associative:
        monoid = op if isinstance(op, Monoid) else Monoid(op, None)
        rows = np.concatenate([a.row_indices(), b.row_indices()])
        cols = np.concatenate([a.colidx, b.colidx])
        vals = np.concatenate([a.values, b.values])
        return CSRMatrix.from_triples(a.nrows, a.ncols, rows, cols, vals, dup=monoid)
    # non-associative op: overlaps are at most pairwise, handle explicitly
    ka, kb = _keys(a), _keys(b)
    common, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    keep_a = np.ones(ka.size, dtype=bool)
    keep_a[ia] = False
    keep_b = np.ones(kb.size, dtype=bool)
    keep_b[ib] = False
    rows = np.concatenate(
        [a.row_indices()[keep_a], b.row_indices()[keep_b], common // a.ncols]
    )
    cols = np.concatenate([a.colidx[keep_a], b.colidx[keep_b], common % a.ncols])
    vals = np.concatenate(
        [a.values[keep_a], b.values[keep_b], np.asarray(op(a.values[ia], b.values[ib]))]
    )
    return CSRMatrix.from_triples(a.nrows, a.ncols, rows, cols, vals)
