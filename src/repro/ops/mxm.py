"""MXM / SpGEMM — sparse matrix × sparse matrix over a semiring.

Part of the "approximately ten distinct functions" of the GraphBLAS C API
(paper §III) and the paper's stated future work ("finishing a complete
GraphBLAS-compliant library").  Two classic algorithms:

* :func:`mxm` — **ESC** (expand, sort, compress): materialise every
  partial product ``A[i,k] ⊗ B[k,j]`` as a triple, then coalesce with the
  additive monoid.  Fully vectorised; memory O(flops).
* :func:`mxm_gustavson` — row-wise Gustavson with a reusable SPA: memory
  O(ncols), the cache-friendly choice when flops ≫ output nnz.  This is the
  direct matrix analogue of the paper's SpMSpV kernel and shares its SPA.

Both accept an optional structural mask (the paper's §V "novel concepts in
GraphBLAS, such as masks"): only output positions present in the mask are
kept, enabling masked products like triangle counting's ``C⟨L⟩ = L·L``.
"""

from __future__ import annotations

import numpy as np

from ..runtime import fastpath
from ..sparse.csr import CSRMatrix
from ..sparse.sort import row_major_order
from ..sparse.spa import SPA
from .mask import mask_matrix
from ..algebra.semiring import PLUS_TIMES, Semiring

__all__ = ["mxm", "mxm_gustavson", "mxm_gustavson_reference", "flops"]


def flops(a: CSRMatrix, b: CSRMatrix) -> int:
    """Number of semiring multiplications ``A·B`` performs (size of the
    expanded product) — a pure function of the stored patterns."""
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    return _expansion_size(a, b)


def _expansion_size(a: CSRMatrix, b: CSRMatrix) -> int:
    """:func:`flops` without the shape check: the summed lengths of the B
    rows that A's nonzeros select."""
    return int(np.diff(b.rowptr)[a.colidx].sum())


def mxm(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: CSRMatrix | None = None,
    complement: bool = False,
) -> CSRMatrix:
    """ESC SpGEMM: ``C = A ⊗ B`` (optionally ``C⟨mask⟩``).

    Expansion: for every stored ``A[i,k]``, row ``k`` of B contributes
    triples ``(i, j, A[i,k] ⊗ B[k,j])``; :meth:`CSRMatrix.from_triples`
    performs the sort+compress with the semiring's additive monoid.

    With a mask (``complement`` honoured), the fast path
    drops every expanded product the mask excludes *before* the sort, so
    the compress only orders the survivors (Buluç & Gilbert's masked
    ESC).  Pruning removes whole output coordinates and keeps each
    survivor's products in expansion order, so the result is
    bit-identical to the reference: compress everything, then
    :func:`~repro.ops.mask.mask_matrix`.

    With a plain (not complemented) mask the fast path compares two
    counts: the candidates ``D`` that one dot product per mask entry
    tests (the nnz of A's row ``i``, summed over the mask entries
    ``(i, j)``) and the ``F`` products the expansion forms
    (:func:`flops`).  When ``D < F`` it runs :func:`_mxm_dot` instead,
    which is bit-identical to the pruned ESC.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    if mask is not None and mask.shape != (a.nrows, b.ncols):
        raise ValueError(f"shape mismatch: {(a.nrows, b.ncols)} vs {mask.shape}")
    if mask is not None and not complement and fastpath.enabled():
        d = int((np.diff(mask.rowptr) * np.diff(a.rowptr)).sum())
        if d < _expansion_size(a, b):
            return _mxm_dot(a, b, semiring, mask)
    expanded = b.extract_rows(a.colidx)  # one B-row per A-nonzero
    reps = np.diff(expanded.rowptr)
    out_rows = np.repeat(a.row_indices(), reps)
    out_cols = expanded.colidx
    avals = np.repeat(a.values, reps)
    bvals = expanded.values
    prune = mask is not None and fastpath.enabled()
    if prune:
        hit = _in_mask(out_rows, out_cols, mask)
        keep = ~hit if complement else hit
        out_rows, out_cols = out_rows[keep], out_cols[keep]
        avals, bvals = avals[keep], bvals[keep]
    out_vals = np.asarray(semiring.mult(avals, bvals))
    c = CSRMatrix.from_triples(
        a.nrows, b.ncols, out_rows, out_cols, out_vals, dup=semiring.add
    )
    if mask is not None and not prune:
        c = mask_matrix(c, mask, complement=complement)
    return c


def _mxm_dot(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring, mask: CSRMatrix
) -> CSRMatrix:
    """``C⟨mask⟩ = A ⊗ B`` by one dot product per mask entry.

    Mask entry ``(i, j)`` walks A's row ``i`` in column order and finds
    each ``B[k, j]`` by its row-major key ``k·ncols + j``
    (:func:`_find_keys`); the hits multiply as ``A ⊗ B`` and
    each entry's products fold with the additive monoid.  They reach the
    fold in ascending ``k``, the order the pruned ESC's stable compress
    gives them, and fold (or pass through) exactly as ``coalesce`` folds
    them, so structure, values and dtype equal the ESC result.  The
    output's structure is a subset of the mask's: no B rows are expanded
    and nothing is sorted.
    """
    mrows = mask.row_indices()
    lens = np.diff(a.rowptr)[mrows]  # candidates of each mask entry
    entry = np.repeat(np.arange(mask.nnz), lens)
    # each candidate's position in A: its entry's row, walked in order
    ends = np.cumsum(lens)
    apos = np.arange(entry.size) + (a.rowptr[mrows] - (ends - lens))[entry]
    keys = a.colidx[apos] * b.ncols + mask.colidx[entry]
    bpos = _find_keys(b, keys)
    hit = bpos >= 0
    entry = entry[hit]
    products = np.asarray(semiring.mult(a.values[apos[hit]], b.values[bpos[hit]]))
    starts = np.flatnonzero(np.diff(entry, prepend=-1))
    if starts.size == products.size:  # one product per output: no fold
        vals = products
    else:
        folded = semiring.add.reduceat_dense(products, starts)
        vals = np.asarray(folded, dtype=products.dtype)  # as coalesce casts
    kept = entry[starts]
    rowptr = np.searchsorted(kept, mask.rowptr)
    return CSRMatrix(a.nrows, b.ncols, rowptr, mask.colidx[kept], vals)


def _in_mask(rows: np.ndarray, cols: np.ndarray, mask: CSRMatrix) -> np.ndarray:
    """Whether each ``(row, col)`` is stored in ``mask``."""
    keys = rows * mask.ncols
    keys += cols
    return _find_keys(mask, keys) >= 0


#: :func:`_find_keys` looks keys up in a direct-address table when the
#: matrix has at most this many cells per key.  Filling the int32 table
#: costs 0.14–0.15 ns a cell and a read 1–2 ns, against 33–50 ns for one
#: binary search (the largest dot-path calls of a triangle count, 2-CPU
#: x86 host), so the table costs at most ~12 ns a key and holds at most
#: 256 B per key.
_TABLE_CELLS_PER_KEY = 64


def _find_keys(m: CSRMatrix, keys: np.ndarray) -> np.ndarray:
    """Where ``m`` stores each row-major key ``r·m.ncols + c`` (its index
    into ``m.colidx`` and ``m.values``), or −1 where it stores nothing.

    ``m``'s own keys are ascending and unique (sorted rows, sorted columns
    within a row), so both lookups return the same positions: a table
    with one cell per ``(row, col)`` when ``m`` has at most
    :data:`_TABLE_CELLS_PER_KEY` cells per key, a binary search otherwise.
    """
    if m.nnz == 0 or keys.size == 0:
        return np.full(keys.size, -1, dtype=np.intp)
    mkeys = m.row_indices() * m.ncols + m.colidx
    cells = m.nrows * m.ncols
    if cells <= _TABLE_CELLS_PER_KEY * keys.size:
        return _find_by_table(mkeys, cells, keys)
    return _find_by_search(mkeys, keys)


def _find_by_table(mkeys: np.ndarray, cells: int, keys: np.ndarray) -> np.ndarray:
    """:func:`_find_keys` by reading a table of ``cells`` positions."""
    dtype = np.int32 if mkeys.size < 2**31 else np.int64
    table = np.full(cells, -1, dtype=dtype)
    table[mkeys] = np.arange(mkeys.size, dtype=dtype)
    return table[keys]


def _find_by_search(mkeys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """:func:`_find_keys` by a ``searchsorted`` into the ascending, non-empty
    ``mkeys``."""
    pos = np.searchsorted(mkeys, keys)
    np.minimum(pos, mkeys.size - 1, out=pos)
    return np.where(mkeys[pos] == keys, pos, -1)


def mxm_gustavson(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: CSRMatrix | None = None,
    complement: bool = False,
) -> CSRMatrix:
    """Row-wise Gustavson SpGEMM: per-row SPA merge semantics.

    Fast path (default): all rows' SPA merges batched into one vectorized
    pass — expand every product, stable row-major order by ``(row, col)``,
    ``reduceat`` per output entry with the additive monoid, cast to the SPA
    accumulator dtype.  Per output coordinate the products arrive in
    exactly the order the per-row SPA sees them, so the result is
    bit-identical to :func:`mxm_gustavson_reference` (the retained per-row
    loop) — ``tests/ops/test_kernel_oracles.py`` pins it.
    """
    if not fastpath.enabled():
        return mxm_gustavson_reference(
            a, b, semiring=semiring, mask=mask, complement=complement
        )
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    # the reference accumulates into an O(ncols) SPA of this dtype; products
    # are reduced in their own dtype first and cast at the store, so the
    # batched pass reduces then casts in the same order
    acc_dtype = np.result_type(a.values, b.values)
    expanded = b.extract_rows(a.colidx)  # one B-row per A-nonzero
    reps = np.diff(expanded.rowptr)
    out_rows = np.repeat(a.row_indices(), reps)
    avals = np.repeat(a.values, reps)
    products = np.asarray(semiring.mult(avals, expanded.values))
    cols = expanded.colidx
    if products.size:
        # rows are already non-decreasing (row-major expansion); the stable
        # row-major order groups each output coordinate keeping product order
        order = row_major_order(out_rows, cols)
        out_rows, cols, products = out_rows[order], cols[order], products[order]
        is_first = np.empty(products.size, dtype=bool)
        is_first[0] = True
        is_first[1:] = (out_rows[1:] != out_rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(is_first)
        vals = semiring.add.reduceat_dense(products, starts).astype(
            acc_dtype, copy=False
        )
        kept_rows = out_rows[starts]
        kept_cols = cols[starts]
    else:
        vals = np.empty(0, dtype=acc_dtype)
        kept_rows = np.empty(0, dtype=np.int64)
        kept_cols = np.empty(0, dtype=np.int64)
    rowptr = np.zeros(a.nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_rows, minlength=a.nrows), out=rowptr[1:])
    if a.nrows == 0:
        vals = np.empty(0)  # the reference's empty-concatenate default dtype
    c = CSRMatrix(a.nrows, b.ncols, rowptr, kept_cols, vals)
    if mask is not None:
        c = mask_matrix(c, mask, complement=complement)
    return c


def mxm_gustavson_reference(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: CSRMatrix | None = None,
    complement: bool = False,
) -> CSRMatrix:
    """The per-row Gustavson loop with a reused SPA — the pure reference.

    For each output row ``i``: scatter the scaled B-rows selected by
    ``A[i, :]`` into the SPA, gather sorted, reset.  O(ncols) extra memory
    regardless of flops.  Kept as the oracle for :func:`mxm_gustavson`'s
    batched fast path.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    spa = SPA(b.ncols, dtype=np.result_type(a.values, b.values))
    rowptr = np.zeros(a.nrows + 1, dtype=np.int64)
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for i in range(a.nrows):
        acols, avals = a.row(i)
        if acols.size:
            sub = b.extract_rows(acols)
            reps = np.diff(sub.rowptr)
            scaled = np.asarray(semiring.mult(np.repeat(avals, reps), sub.values))
            spa.scatter(sub.colidx, scaled, monoid=semiring.add)
        row_vec = spa.gather(sort=True)
        out_cols.append(row_vec.indices)
        out_vals.append(row_vec.values)
        rowptr[i + 1] = rowptr[i] + row_vec.nnz
        spa.reset()
    c = CSRMatrix(
        a.nrows,
        b.ncols,
        rowptr,
        np.concatenate(out_cols) if out_cols else np.empty(0, np.int64),
        np.concatenate(out_vals) if out_vals else np.empty(0),
    )
    if mask is not None:
        c = mask_matrix(c, mask, complement=complement)
    return c
