"""Shared-memory backend: the frontend over ``CSRMatrix``/``SparseVector``.

Handles are the storage objects themselves
(:class:`~repro.sparse.csr.CSRMatrix`,
:class:`~repro.sparse.vector.SparseVector`), and each op calls its
kernel in :mod:`repro.ops` directly.  Every ``vxm`` routes through one
long-lived :class:`~repro.ops.dispatch.Dispatcher`, so the transpose
cache — the dispatcher's, shared with :meth:`ShmBackend.transpose` —
stays warm across an algorithm's iterations and every kernel choice is
recorded as a ``dispatch[vxm]`` span.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import BinaryOp, UnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from ..algebra.semiring import PLUS_TIMES, Semiring
from ..ops.dispatch import Dispatcher
from ..ops.ewise import ewiseadd_vv, ewisemult_vv
from ..ops.extract import extract_matrix
from ..ops.mxm import mxm
from ..ops.spmv import spmv, vxm_dense
from ..runtime.epoch import bump_epoch
from ..runtime.locale import Machine, shared_machine
from ..sparse.csr import CSRMatrix
from ..sparse.vector import DenseVector, SparseVector
from .backend import BackendBase
from .descriptor import Descriptor, merge_matrix

__all__ = ["ShmBackend"]


class ShmBackend(BackendBase):
    """Runs the frontend on a single shared-memory locale."""

    name = "shm"

    def __init__(
        self,
        machine: Machine | None = None,
        *,
        dispatcher: Dispatcher | None = None,
        mode: str = "auto",
        pull_threshold: float | None = None,
        assume_transpose_amortized: bool = True,
    ) -> None:
        super().__init__(machine or shared_machine(1))
        self.mode = mode
        self.dispatcher = dispatcher or Dispatcher(
            self.machine,
            mode=mode,
            pull_threshold=pull_threshold,
            assume_transpose_amortized=assume_transpose_amortized,
        )
        self._transposes = self.dispatcher._transposes

    # -- constructors / bridges -------------------------------------------------

    def matrix(self, a) -> CSRMatrix:
        """Adopt a :class:`CSRMatrix` as a handle (no copy)."""
        if not isinstance(a, CSRMatrix):
            raise TypeError(f"ShmBackend takes a CSRMatrix, got {type(a).__name__}")
        return a

    def vector(self, x) -> SparseVector:
        """Adopt a :class:`SparseVector` as a handle (no copy)."""
        if not isinstance(x, SparseVector):
            raise TypeError(f"ShmBackend takes a SparseVector, got {type(x).__name__}")
        return x

    def to_csr(self, a: CSRMatrix) -> CSRMatrix:
        """The global CSR of ``a`` (free here — the handle is the storage)."""
        return a

    def to_sparse(self, v: SparseVector) -> SparseVector:
        """The global sparse vector of ``v``."""
        return v

    # -- structure --------------------------------------------------------------

    def shape(self, a: CSRMatrix) -> tuple[int, int]:
        """The shape of ``a``."""
        return a.shape

    def matrix_nnz(self, a: CSRMatrix) -> int:
        """Stored entries of ``a``."""
        return a.nnz

    def vector_nnz(self, v: SparseVector) -> int:
        """Stored entries of ``v``."""
        return v.nnz

    def row_degrees(self, a: CSRMatrix) -> np.ndarray:
        """Stored entries per row (dense)."""
        return a.row_degrees()

    def transpose(self, a: CSRMatrix) -> CSRMatrix:
        """``Aᵀ`` from the dispatcher's transpose cache (built unbilled on
        a miss and registered both ways, so a later pull reuses it)."""
        at = self._transposes.get(a)
        if at is None:
            at = a.transposed()
            self.dispatcher.seed_transpose(a, at)
        return at

    def tril(self, a: CSRMatrix, k: int = 0) -> CSRMatrix:
        """Lower-triangular part (``col <= row + k``)."""
        return a.tril(k)

    def extract(self, a: CSRMatrix, rows, cols) -> CSRMatrix:
        """``C = A(I, J)``."""
        return extract_matrix(
            a, np.asarray(list(rows), np.int64), np.asarray(list(cols), np.int64)
        )

    def select_matrix(self, a: CSRMatrix, op, thunk=None) -> CSRMatrix:
        """``GrB_select`` with an index-unary op."""
        return a.select(op, thunk)

    # -- elementwise / apply / assign -------------------------------------------

    def apply_vector(self, v: SparseVector, op: UnaryOp) -> SparseVector:
        """Unary op over stored values (a new vector)."""
        return SparseVector(v.capacity, v.indices.copy(), np.asarray(op(v.values)))

    def apply_matrix(self, a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
        """Unary op over stored values (a new matrix)."""
        return a.apply(op)

    def assign(self, dst: SparseVector, src: SparseVector) -> SparseVector:
        """Matching-domain assign (the paper's restricted Assign): replaces
        ``dst``'s content with a copy of ``src``'s; returns ``dst``."""
        if src.capacity != dst.capacity:
            raise ValueError("assign requires matching capacities")
        dst.indices = src.indices.copy()
        dst.values = src.values.copy()
        return dst

    def ewise_mult(self, u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
        """Intersection merge."""
        return ewisemult_vv(u, v, op)

    def ewise_add(self, u: SparseVector, v: SparseVector, op=PLUS_MONOID) -> SparseVector:
        """Union merge."""
        return ewiseadd_vv(u, v, op)

    # -- streaming updates ------------------------------------------------------

    def apply_updates(
        self, a: CSRMatrix, batch, *, accum: BinaryOp | None = None
    ) -> CSRMatrix:
        """Mutate ``a`` in place by one delta batch (deletes, then upserts).

        The merged CSR's arrays are written back into ``a`` and its
        mutation epoch bumped, so every identity-anchored cache
        (dispatch plans, transposes) misses on the next use instead of
        serving pre-mutation results.
        """
        from ..streaming.delta import apply_batch_csr, apply_cost

        cost = apply_cost(self.machine, a.nnz, batch)
        merged = apply_batch_csr(a, batch, accum=accum)
        a.rowptr, a.colidx, a.values = merged.rowptr, merged.colidx, merged.values
        bump_epoch(a)
        self.machine.record("apply_updates", cost)
        return a

    # -- products ---------------------------------------------------------------

    def vxm(
        self,
        v: SparseVector,
        a: CSRMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        accum: BinaryOp | Monoid | None = None,
        out: SparseVector | None = None,
        desc: Descriptor | None = None,
        mode: str | None = None,
    ) -> SparseVector:
        """``out⟨mask, replace⟩ ⊕= v ⊗ A`` via the dispatch engine.

        ``mask`` is a dense Boolean array over the output space, fused
        into the chosen kernel; accumulation/replace are the dispatcher's
        uniform output step (:mod:`repro.exec.descriptor`).
        """
        d = desc or Descriptor()
        mat = self.transpose(a) if d.transpose_a else a
        y, _ = self.dispatcher.vxm(
            mat,
            v,
            semiring=semiring,
            mask=None if mask is None else np.asarray(mask, dtype=bool),
            accum=accum,
            out=out,
            desc=d,
            mode=mode or self.mode,
        )
        return y

    def vxm_dense(
        self, x: np.ndarray, a: CSRMatrix, *, semiring: Semiring = PLUS_TIMES
    ) -> np.ndarray:
        """``y = x ⊗ A`` over replicated dense state."""
        return vxm_dense(DenseVector(np.asarray(x)), a, semiring=semiring).values

    def mxv_dense(
        self, a: CSRMatrix, x: np.ndarray, *, semiring: Semiring = PLUS_TIMES
    ) -> np.ndarray:
        """``y = A ⊗ x`` over replicated dense state."""
        return spmv(a, DenseVector(np.asarray(x)), semiring=semiring).values

    def mxm(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: CSRMatrix | None = None,
        accum: BinaryOp | Monoid | None = None,
        out: CSRMatrix | None = None,
        desc: Descriptor | None = None,
    ) -> CSRMatrix:
        """``out⟨mask, replace⟩ ⊕= A ⊗ B`` (mask fused into the SpGEMM)."""
        d = desc or Descriptor()
        ma = self.transpose(a) if d.transpose_a else a
        mb = self.transpose(b) if d.transpose_b else b
        c = mxm(ma, mb, semiring=semiring, mask=mask, complement=d.complement)
        return merge_matrix(
            c, out, mask=mask, complement=d.complement, accum=accum, replace=d.replace
        )

    # -- reductions -------------------------------------------------------------

    def reduce_vector(self, v: SparseVector, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar."""
        return monoid.reduce(v.values)

    def reduce_matrix(self, a: CSRMatrix, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar."""
        return monoid.reduce(a.values)

    def reduce_rows_dense(self, a: CSRMatrix, monoid: Monoid = PLUS_MONOID) -> np.ndarray:
        """Per-row reduction as a dense array (identity for empty rows)."""
        return np.asarray(a.reduce_rows(monoid))

    # -- misc -------------------------------------------------------------------

    def scale_rows(self, a: CSRMatrix, factors: np.ndarray) -> CSRMatrix:
        """A new matrix with row ``i`` scaled by ``factors[i]``."""
        return CSRMatrix(
            a.nrows,
            a.ncols,
            a.rowptr.copy(),
            a.colidx.copy(),
            a.values * np.asarray(factors)[a.row_indices()],
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ShmBackend(threads={self.machine.threads_per_locale})"
