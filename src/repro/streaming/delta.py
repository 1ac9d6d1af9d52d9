"""Update batches as sparse delta matrices.

A batch of edge updates against an ``n×m`` graph is two sparse matrices
over the same shape:

* **upserts** — entries to insert or reweight: ``A[i, j] ⊕= w`` under the
  batch's ``accum`` (default :data:`~repro.algebra.functional.SECOND`,
  i.e. overwrite-or-insert; pass ``PLUS`` for increment semantics);
* **deletes** — a structural pattern of entries to remove (values are
  ignored; deleting an absent entry is a no-op).

Application order is **deletes first, then upserts** — so one batch can
atomically move an edge, and a (delete e, upsert e) pair means "replace"
rather than "remove".  Both matrices are CSR, the one local format.

:func:`apply_batch_csr` is the one merge kernel both backends share —
a complement structural mask (delete) followed by a union merge with the
accumulator (upsert), i.e. entirely PR 4's ``accum``/mask machinery; the
backends differ only in *where* the merge runs and what it bills.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import SECOND, BinaryOp
from ..algebra.monoid import Monoid
from ..ops.ewise import ewiseadd_mm
from ..ops.mask import mask_matrix
from ..runtime.clock import Breakdown
from ..runtime.locale import Machine
from ..runtime.tasks import parallel_time
from ..sparse.csr import CSRMatrix

__all__ = ["UpdateBatch", "apply_batch_csr", "apply_cost"]


def _as_index_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).reshape(-1)


def _pattern(
    nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
    dup: BinaryOp,
) -> CSRMatrix:
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise IndexError(f"row index outside [0, {nrows})")
    if cols.size and (cols.min() < 0 or cols.max() >= ncols):
        raise IndexError(f"column index outside [0, {ncols})")
    return CSRMatrix.from_triples(nrows, ncols, rows, cols, vals, dup=Monoid(dup, None))


class UpdateBatch:
    """One batch of edge updates as CSR deltas.

    Build with :meth:`from_edges` (triples in) or wrap pre-built CSR
    matrices directly.
    """

    def __init__(
        self,
        nrows: int,
        ncols: int,
        *,
        upserts: CSRMatrix | None = None,
        deletes: CSRMatrix | None = None,
    ) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("batch shape must be non-negative")
        self.nrows = nrows
        self.ncols = ncols
        for name, mat in (("upserts", upserts), ("deletes", deletes)):
            if mat is not None and mat.shape != (nrows, ncols):
                raise ValueError(
                    f"{name} shape {mat.shape} != batch shape {(nrows, ncols)}"
                )
        self.upserts = upserts
        self.deletes = deletes

    @classmethod
    def from_edges(
        cls,
        nrows: int,
        ncols: int,
        *,
        inserts=None,
        deletes=None,
    ) -> "UpdateBatch":
        """Build from edge collections.

        ``inserts`` is ``(rows, cols)`` or ``(rows, cols, weights)``
        (weights default to 1.0); duplicate coordinates keep the **last**
        weight, matching the batch's overwrite semantics.  ``deletes`` is
        ``(rows, cols)``.
        """
        ups = dels = None
        if inserts is not None:
            rows, cols, *rest = inserts
            rows, cols = _as_index_array(rows), _as_index_array(cols)
            w = (
                np.ones(rows.size, dtype=np.float64)
                if not rest
                else np.asarray(rest[0], dtype=np.float64).reshape(-1)
            )
            if not (rows.size == cols.size == w.size):
                raise ValueError("insert triple arrays disagree in length")
            ups = _pattern(nrows, ncols, rows, cols, w, SECOND)
        if deletes is not None:
            rows, cols = deletes
            rows, cols = _as_index_array(rows), _as_index_array(cols)
            if rows.size != cols.size:
                raise ValueError("delete pair arrays disagree in length")
            dels = _pattern(
                nrows, ncols, rows, cols, np.ones(rows.size), SECOND
            )
        return cls(nrows, ncols, upserts=ups, deletes=dels)

    # -- views ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)`` of the graph the batch applies to."""
        return (self.nrows, self.ncols)

    @property
    def num_upserts(self) -> int:
        """Stored insert/reweight entries."""
        return 0 if self.upserts is None else self.upserts.nnz

    @property
    def num_deletes(self) -> int:
        """Stored delete-pattern entries."""
        return 0 if self.deletes is None else self.deletes.nnz

    @property
    def size(self) -> int:
        """Total entries the batch carries."""
        return self.num_upserts + self.num_deletes

    def upsert_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, weights)`` of the upserts (host-side view for
        incremental algorithms)."""
        if self.upserts is None:
            e = np.empty(0, np.int64)
            return e, e.copy(), np.empty(0)
        return self.upserts.row_indices(), self.upserts.colidx, self.upserts.values

    def delete_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the delete pattern."""
        if self.deletes is None:
            e = np.empty(0, np.int64)
            return e, e.copy()
        return self.deletes.row_indices(), self.deletes.colidx

    def symmetrized(self) -> "UpdateBatch":
        """The batch with every update mirrored (``(u,v)`` and ``(v,u)``)
        — for undirected graphs (CC requires a symmetric adjacency)."""
        if self.nrows != self.ncols:
            raise ValueError("symmetrized requires a square batch")
        ups = dels = None
        if self.upserts is not None:
            r, c, w = self.upsert_triples()
            ups = _pattern(
                self.nrows, self.ncols,
                np.concatenate([r, c]), np.concatenate([c, r]),
                np.concatenate([w, w]), SECOND,
            )
        if self.deletes is not None:
            r, c = self.delete_pairs()
            dels = _pattern(
                self.nrows, self.ncols,
                np.concatenate([r, c]), np.concatenate([c, r]),
                np.ones(2 * r.size), SECOND,
            )
        return UpdateBatch(self.nrows, self.ncols, upserts=ups, deletes=dels)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"UpdateBatch({self.nrows}x{self.ncols}, "
            f"upserts={self.num_upserts}, deletes={self.num_deletes})"
        )


def apply_batch_csr(
    a: CSRMatrix, batch: UpdateBatch, *, accum: BinaryOp | None = None
) -> CSRMatrix:
    """``a`` after ``batch``: deletes masked out, upserts union-merged.

    Pure (returns a new CSR; callers decide whether to write it back in
    place).  ``accum`` combines an upsert with an existing entry —
    ``SECOND`` (default) overwrites, ``PLUS`` increments; either way an
    absent entry is inserted.
    """
    if a.shape != batch.shape:
        raise ValueError(f"batch shape {batch.shape} != matrix shape {a.shape}")
    out = a
    dels = batch.deletes
    if dels is not None and dels.nnz:
        out = mask_matrix(out, dels, complement=True)
    ups = batch.upserts
    if ups is not None and ups.nnz:
        out = ewiseadd_mm(out, ups, accum or SECOND)
    elif out is a:
        out = a.copy()
    return out


def apply_cost(machine: Machine, nnz: int, batch: UpdateBatch) -> Breakdown:
    """Simulated seconds of one local delta application.

    One stream pass over the stored entries plus a sort/merge term over
    the batch — the same O(nnz + |delta|·log|delta|) shape as the e-wise
    merges it is built from.  Deterministic in (nnz, batch sizes) only.
    """
    cfg = machine.config
    pen = machine.compute_penalty
    delta = batch.size
    logd = max(float(np.log2(delta)), 1.0) if delta > 1 else 1.0
    work = (nnz + delta) * cfg.stream_cost + delta * logd * cfg.compare_cost
    return Breakdown(
        {"apply": parallel_time(cfg, work * pen, machine.threads_per_locale)}
    )
