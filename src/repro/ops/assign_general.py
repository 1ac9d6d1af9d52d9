"""General Assign — ``A(I, J) = B`` with arbitrary index sets.

The paper implements only the restricted matching-domain Assign (§III-B)
and notes that the general operation "can require
O((nnz(A)+nnz(B))/√p) communication" [Buluç & Gilbert 2012].  This module
supplies the general shared-memory version the spec requires:

* :func:`assign_vector` — ``w(I) = u`` (scatter a vector into positions I);
* :func:`assign_matrix` — ``C(I, J) = B`` (replace a submatrix);
* both with optional ``accum`` binary operator (GraphBLAS accumulate
  semantics: combine with existing entries instead of replacing them).
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import BinaryOp
from ..sparse.csr import CSRMatrix
from ..sparse.sort import unique_sorted
from ..sparse.vector import SparseVector

__all__ = ["assign_vector", "assign_matrix"]


def _check_indices(indices: np.ndarray, bound: int, what: str) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size:
        if indices.min() < 0 or indices.max() >= bound:
            raise IndexError(f"{what} index out of bounds")
        if unique_sorted(indices).size != indices.size:
            raise ValueError(f"repeated {what} indices in assign")
    return indices


def assign_vector(
    w: SparseVector,
    indices,
    u: SparseVector,
    *,
    accum: BinaryOp | None = None,
) -> SparseVector:
    """``w(I) = u``: a new vector where position ``I[k]`` holds ``u[k]``.

    ``u``'s capacity must equal ``len(I)``.  Positions of ``w`` inside ``I``
    that ``u`` does not store are *cleared* (GraphBLAS replace-like
    semantics for the assigned region); positions outside ``I`` are kept.
    With ``accum``, overlapping entries combine as ``accum(old, new)`` and
    nothing is cleared.
    """
    indices = _check_indices(indices, w.capacity, "vector")
    if u.capacity != indices.size:
        raise ValueError(
            f"u has capacity {u.capacity} but {indices.size} indices were given"
        )
    scattered_idx = indices[u.indices]
    if accum is None:
        # drop w's entries inside the assigned region, then merge
        inside = np.isin(w.indices, indices, assume_unique=True)
        keep_idx = w.indices[~inside]
        keep_val = w.values[~inside]
        all_idx = np.concatenate([keep_idx, scattered_idx])
        all_val = np.concatenate([keep_val, u.values])
        order = np.argsort(all_idx, kind="stable")
        return SparseVector(w.capacity, all_idx[order], all_val[order])
    # accumulate: combine where both present
    pos = np.searchsorted(w.indices, scattered_idx)
    pos_c = np.minimum(pos, max(w.nnz - 1, 0))
    hit = (
        (pos < w.nnz) & (w.indices[pos_c] == scattered_idx)
        if w.nnz
        else np.zeros(scattered_idx.size, dtype=bool)
    )
    out_idx = w.indices.copy()
    out_val = w.values.copy()
    if hit.any():
        out_val[pos_c[hit]] = np.asarray(accum(out_val[pos_c[hit]], u.values[hit]))
    fresh_idx = scattered_idx[~hit]
    fresh_val = u.values[~hit]
    all_idx = np.concatenate([out_idx, fresh_idx])
    all_val = np.concatenate([out_val, fresh_val])
    order = np.argsort(all_idx, kind="stable")
    return SparseVector(w.capacity, all_idx[order], all_val[order])


def assign_matrix(
    c: CSRMatrix,
    rows,
    cols,
    b: CSRMatrix,
    *,
    accum: BinaryOp | None = None,
) -> CSRMatrix:
    """``C(I, J) = B``: a new matrix with the (I, J) region replaced by B.

    ``B`` must be ``len(I) × len(J)``.  Without ``accum`` the assigned
    region is cleared first; with ``accum`` overlaps combine.
    """
    rows = _check_indices(rows, c.nrows, "row")
    cols = _check_indices(cols, c.ncols, "column")
    if b.shape != (rows.size, cols.size):
        raise ValueError(
            f"B has shape {b.shape}, expected {(rows.size, cols.size)}"
        )
    coo_c = c.to_coo()
    coo_b = b.to_coo()
    # map B's local coordinates to global ones
    b_rows = rows[coo_b.rows]
    b_cols = cols[coo_b.cols]
    if accum is None:
        in_region = np.isin(coo_c.rows, rows) & np.isin(coo_c.cols, cols)
        keep = ~in_region
        all_rows = np.concatenate([coo_c.rows[keep], b_rows])
        all_cols = np.concatenate([coo_c.cols[keep], b_cols])
        all_vals = np.concatenate([coo_c.values[keep], coo_b.values])
        return CSRMatrix.from_triples(c.nrows, c.ncols, all_rows, all_cols, all_vals)
    # accumulate path: combine duplicates with accum via a two-phase merge
    keys_c = coo_c.rows * c.ncols + coo_c.cols
    keys_b = b_rows * c.ncols + b_cols
    common, ic, ib = np.intersect1d(keys_c, keys_b, assume_unique=True, return_indices=True)
    merged_vals = (
        np.asarray(accum(coo_c.values[ic], coo_b.values[ib]))
        if common.size
        else np.empty(0, dtype=coo_c.values.dtype)
    )
    keep_c = np.ones(keys_c.size, dtype=bool)
    keep_c[ic] = False
    keep_b = np.ones(keys_b.size, dtype=bool)
    keep_b[ib] = False
    all_rows = np.concatenate([coo_c.rows[keep_c], b_rows[keep_b], common // c.ncols])
    all_cols = np.concatenate([coo_c.cols[keep_c], b_cols[keep_b], common % c.ncols])
    all_vals = np.concatenate([coo_c.values[keep_c], coo_b.values[keep_b], merged_vals])
    return CSRMatrix.from_triples(c.nrows, c.ncols, all_rows, all_cols, all_vals)
