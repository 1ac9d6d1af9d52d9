"""Extract — submatrix/subvector selection (GraphBLAS ``GrB_extract``).

The general dual of Assign: ``C = A(I, J)`` pulls the rows ``I`` and
columns ``J`` of ``A`` into a dense-index result.  Part of the
"approximately ten distinct functions" of the C API (paper §III); the paper
itself only implements the matching-domain Assign, so Extract here rounds
out the spec surface.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.sort import unique_sorted
from ..sparse.vector import SparseVector

__all__ = ["extract_vector", "extract_matrix", "extract_row", "extract_col"]


def extract_vector(x: SparseVector, indices: np.ndarray) -> SparseVector:
    """``z = x(I)``: ``z[k] = x[I[k]]`` where stored.

    ``I`` may repeat and reorder; the output capacity is ``len(I)``.
    Binary search against x's sorted index array.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= x.capacity):
        raise IndexError("extract index out of bounds")
    if x.nnz == 0 or indices.size == 0:
        return SparseVector.empty(indices.size, dtype=x.values.dtype)
    pos = np.searchsorted(x.indices, indices)
    pos_c = np.minimum(pos, x.nnz - 1)
    hit = x.indices[pos_c] == indices
    out_idx = np.flatnonzero(hit).astype(np.int64)
    out_val = x.values[pos_c[hit]]
    return SparseVector(indices.size, out_idx, out_val.copy())


def extract_matrix(a: CSRMatrix, rows: np.ndarray, cols: np.ndarray) -> CSRMatrix:
    """``C = A(I, J)``: the ``len(I) × len(J)`` submatrix.

    Row gather reuses :meth:`CSRMatrix.extract_rows`; the column selection
    remaps kept columns through an inverse permutation table.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= a.nrows):
        raise IndexError("row index out of bounds")
    if cols.size and (cols.min() < 0 or cols.max() >= a.ncols):
        raise IndexError("column index out of bounds")
    if unique_sorted(cols).size != cols.size:
        raise ValueError("repeated column indices are not supported")
    sub = a.extract_rows(rows)
    # map old column id -> new position (or -1)
    remap = np.full(a.ncols, -1, dtype=np.int64)
    remap[cols] = np.arange(cols.size)
    new_cols = remap[sub.colidx]
    keep = new_cols >= 0
    kept_rows = sub.row_indices()[keep]
    rowptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_rows, minlength=rows.size), out=rowptr[1:])
    c = CSRMatrix(rows.size, cols.size, rowptr, new_cols[keep], sub.values[keep])
    # column remap may break per-row ordering when J reorders columns
    if cols.size > 1 and np.any(np.diff(cols) < 0):
        coo = c.to_coo()
        c = CSRMatrix.from_coo(coo)
    return c


def extract_row(a: CSRMatrix, i: int) -> SparseVector:
    """Row ``i`` of ``A`` as a sparse vector of capacity ``ncols``."""
    if not 0 <= i < a.nrows:
        raise IndexError(f"row {i} out of bounds")
    cols, vals = a.row(i)
    return SparseVector(a.ncols, cols.copy(), vals.copy())


def extract_col(a: CSRMatrix, j: int) -> SparseVector:
    """Column ``j`` of ``A`` as a sparse vector of capacity ``nrows``.

    O(nnz) scan (CSR has no column index); use :class:`CSCMatrix` for
    repeated column access.
    """
    if not 0 <= j < a.ncols:
        raise IndexError(f"column {j} out of bounds")
    hits = a.colidx == j
    rows = a.row_indices()[hits]
    return SparseVector(a.nrows, rows, a.values[hits].copy())
