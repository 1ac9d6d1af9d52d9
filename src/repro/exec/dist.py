"""Distributed backend: the frontend over the block-distributed storage.

Handles are the storage objects themselves —
:class:`~repro.distributed.dist_matrix.DistSparseMatrix` /
:class:`~repro.distributed.dist_vector.DistSparseVector` — so every op
an algorithm issues runs on the simulated cluster: sparse products route
through the dispatch engine (cost-model kernel/transport selection
recorded as ``dispatch[...]`` spans), transfers run under the fault
injector attached to the machine, and aggregated transports use the
exchange layer — the algorithm sees none of it.

Grid generality: sparse SUMMA and the blockwise transpose exchange need
square locale grids; on other grids this backend transparently falls
back to the gather-based forms of :mod:`repro.ops.matrix_dist`, which
charge the full round trip they perform.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import TRIL, BinaryOp, UnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from ..algebra.semiring import PLUS_TIMES, Semiring
from ..distributed.dist_matrix import DistSparseMatrix
from ..distributed.dist_vector import DistDenseVector, DistSparseVector
from ..ops.apply import apply2
from ..ops.assign import assign2, assign_agg_bill
from ..ops.dispatch import Dispatcher
from ..ops.ewise import ewiseadd_vv, ewisemult_vv
from ..ops.extract import extract_matrix
from ..ops.matrix_dist import (
    reduce_rows_dense_dist,
    row_degrees_dist,
    scale_rows_dist,
    select_dist_matrix,
    transpose_any,
)
from ..ops.reduce import reduce_dist_vector
from ..ops.spmv import spmv_dist
from ..runtime.clock import Breakdown
from ..runtime.epoch import TransposeCache, bump_epoch
from ..runtime.locale import Machine
from ..runtime.tasks import local_time_ft
from ..sparse.csr import CSRMatrix
from ..sparse.vector import SparseVector
from .backend import BackendBase
from .descriptor import Descriptor

__all__ = ["DistBackend"]


class DistBackend(BackendBase):
    """Runs the frontend on the simulated distributed machine."""

    name = "dist"

    def __init__(
        self,
        machine: Machine,
        *,
        dispatcher: Dispatcher | None = None,
        gather_mode: str = "auto",
        scatter_mode: str = "auto",
        sort: str = "auto",
        comm_mode: str = "auto",
    ) -> None:
        super().__init__(machine)
        self.dispatcher = dispatcher or Dispatcher(machine)
        self.gather_mode = gather_mode
        self.scatter_mode = scatter_mode
        self.sort = sort
        self.comm_mode = comm_mode
        self._transposes = TransposeCache()

    def _check_grid(self, handle, kind: str) -> None:
        if handle.grid.size != self.machine.num_locales:
            raise ValueError(
                f"{kind}'s grid does not match the machine's locale count"
            )

    # -- constructors / bridges -------------------------------------------------

    def matrix(self, a) -> DistSparseMatrix:
        """Distribute a global :class:`CSRMatrix` (or adopt an existing
        distributed matrix laid out on this machine's grid)."""
        if isinstance(a, DistSparseMatrix):
            self._check_grid(a, "matrix")
            return a
        return DistSparseMatrix.from_global(a, self.machine.grid)

    def vector(self, x) -> DistSparseVector:
        """Distribute a global :class:`SparseVector` (or adopt an existing
        distributed vector laid out on this machine's grid)."""
        if isinstance(x, DistSparseVector):
            self._check_grid(x, "vector")
            return x
        return DistSparseVector.from_global(x, self.machine.grid)

    def to_csr(self, a: DistSparseMatrix) -> CSRMatrix:
        """Gather the global CSR (fault-aware: data owned by a failed
        locale raises :class:`~repro.runtime.faults.LocaleFailure`)."""
        return a.gather(faults=self.machine.faults)

    def to_sparse(self, v: DistSparseVector) -> SparseVector:
        """Gather the global sparse vector (fault-aware)."""
        return v.gather(faults=self.machine.faults)

    # -- structure --------------------------------------------------------------

    def shape(self, a: DistSparseMatrix) -> tuple[int, int]:
        """The shape of ``a``."""
        return a.shape

    def matrix_nnz(self, a: DistSparseMatrix) -> int:
        """Stored entries of ``a``."""
        return a.nnz

    def vector_nnz(self, v: DistSparseVector) -> int:
        """Stored entries of ``v``."""
        return v.nnz

    def row_degrees(self, a: DistSparseMatrix) -> np.ndarray:
        """Stored entries per row (blockwise partial counts)."""
        return row_degrees_dist(a, self.machine)

    def transpose(self, a: DistSparseMatrix) -> DistSparseMatrix:
        """``Aᵀ`` (blockwise exchange on square grids, gather/redistribute
        elsewhere), cached per handle and epoch for reuse across
        iterations; the entry dies with ``a``."""
        t = self._transposes.get(a)
        if t is None:
            t, _ = transpose_any(a, self.machine)
            self._transposes.put(a, t)
        return t

    def tril(self, a: DistSparseMatrix, k: int = 0) -> DistSparseMatrix:
        """Lower-triangular part (blockwise select, global coordinates)."""
        c, _ = select_dist_matrix(a, TRIL, self.machine, k)
        return c

    def extract(self, a: DistSparseMatrix, rows, cols) -> DistSparseMatrix:
        """``C = A(I, J)`` — gather, extract, redistribute (general index
        extraction has no aligned blockwise form)."""
        sub = extract_matrix(
            a.gather(faults=self.machine.faults),
            np.asarray(list(rows), np.int64),
            np.asarray(list(cols), np.int64),
        )
        return DistSparseMatrix.from_global(sub, a.grid)

    def select_matrix(self, a: DistSparseMatrix, op, thunk=None) -> DistSparseMatrix:
        """``GrB_select`` blockwise with rebased global indices."""
        c, _ = select_dist_matrix(a, op, self.machine, thunk)
        return c

    # -- elementwise / apply / assign -------------------------------------------

    def apply_vector(self, v: DistSparseVector, op: UnaryOp) -> DistSparseVector:
        """Unary op over stored values (SPMD apply on a copy)."""
        out = v.copy()
        apply2(out, op, self.machine)
        return out

    def apply_matrix(self, a: DistSparseMatrix, op: UnaryOp) -> DistSparseMatrix:
        """Unary op over stored values (SPMD apply on a copy)."""
        blocks = [blk.copy() for blk in a.blocks]
        out = DistSparseMatrix(a.nrows, a.ncols, a.grid, blocks)
        apply2(out, op, self.machine)
        return out

    def assign(self, dst: DistSparseVector, src: DistSparseVector) -> DistSparseVector:
        """Matching-distribution SPMD assign; returns ``dst``."""
        assign2(dst, src, self.machine)
        return dst

    def ewise_mult(
        self, u: DistSparseVector, v: DistSparseVector, op: BinaryOp
    ) -> DistSparseVector:
        """Intersection merge (blockwise on the aligned distributions)."""
        return self._ewise(u, v, lambda a, b: ewisemult_vv(a, b, op))

    def ewise_add(
        self, u: DistSparseVector, v: DistSparseVector, op=PLUS_MONOID
    ) -> DistSparseVector:
        """Union merge (blockwise on the aligned distributions)."""
        return self._ewise(u, v, lambda a, b: ewiseadd_vv(a, b, op))

    def _ewise(self, u: DistSparseVector, v: DistSparseVector, merge) -> DistSparseVector:
        if u.capacity != v.capacity or (u.grid.rows, u.grid.cols) != (
            v.grid.rows,
            v.grid.cols,
        ):
            raise ValueError("elementwise operands must share the distribution")
        blocks = [merge(a, b) for a, b in zip(u.blocks, v.blocks)]
        return DistSparseVector(u.capacity, u.grid, blocks)

    # -- streaming updates ------------------------------------------------------

    def apply_updates(self, a: DistSparseMatrix, batch, *, accum=None) -> DistSparseMatrix:
        """Mutate ``a`` in place by one delta batch, SPMD-style.

        The batch's deltas are cut into the same 2-D block partition as
        ``a`` and delivered to their owners, billed by
        :func:`~repro.ops.assign.assign_agg_bill` over the delta's
        per-locale entry counts — so delivery follows |Δ|, not nnz(A),
        and retries whole batches under fault injection.  Each locale then
        merges its share into its own block in place (cost = the slowest
        locale, coforall semantics, a straggler's merge stretched by its
        slowdown).  One ``apply_updates`` row carries
        the merge (``apply``) and the delivery.  A failed locale raises at
        entry, before any block is touched or billed.  The storage
        mutation epochs are bumped so identity-anchored plan and transpose
        caches miss from the next op on.
        """
        from ..streaming.delta import UpdateBatch, apply_batch_csr, apply_cost

        if batch.shape != a.shape:
            raise ValueError(
                f"batch shape {batch.shape} != matrix shape {a.shape}"
            )
        grid = a.grid
        faults = self.machine.faults
        if faults is not None:
            faults.check_grid(grid, "apply_updates")
        ups = batch.upserts
        dels = batch.deletes
        ups_d = None if ups is None else DistSparseMatrix.from_global(ups, grid)
        dels_d = None if dels is None else DistSparseMatrix.from_global(dels, grid)
        delta = np.zeros(grid.size, dtype=np.int64)
        for d in (ups_d, dels_d):
            if d is not None:
                delta += d.nnz_per_locale()
        deliver = assign_agg_bill(self.machine, delta)
        slowest = 0.0
        for k, blk in enumerate(a.blocks):
            local = UpdateBatch(
                blk.nrows,
                blk.ncols,
                upserts=None if ups_d is None else ups_d.blocks[k],
                deletes=None if dels_d is None else dels_d.blocks[k],
            )
            merge = apply_cost(self.machine, blk.nnz, local).total
            slowest = max(
                slowest,
                local_time_ft(merge, faults=faults, locale=k, site="apply_updates"),
            )
            merged = apply_batch_csr(blk, local, accum=accum)
            blk.rowptr, blk.colidx, blk.values = merged.rowptr, merged.colidx, merged.values
            bump_epoch(blk)
        bump_epoch(a)
        self.machine.record("apply_updates", Breakdown({"apply": slowest}) + deliver)
        return a

    # -- products ---------------------------------------------------------------

    def vxm(
        self,
        v: DistSparseVector,
        a: DistSparseMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        accum=None,
        out: DistSparseVector | None = None,
        desc: Descriptor | None = None,
        mode: str | None = None,
    ) -> DistSparseVector:
        """``out⟨mask, replace⟩ ⊕= v ⊗ A`` via the distributed dispatcher.

        ``mask`` (dense Boolean over the output space) is fused into the
        masked distributed SpMSpV — each locale drops masked-out products
        during local accumulation; the communication/sort axes come from
        the backend's configured modes (``mode`` is the shared-memory
        kernel knob and is ignored here).
        """
        d = desc or Descriptor()
        mat = self.transpose(a) if d.transpose_a else a
        y, _ = self.dispatcher.vxm_dist(
            mat,
            v,
            semiring=semiring,
            mask=None if mask is None else np.asarray(mask, dtype=bool),
            accum=accum,
            out=out,
            desc=d,
            gather_mode=self.gather_mode,
            scatter_mode=self.scatter_mode,
            sort=self.sort,
        )
        return y

    def vxm_dense(
        self, x: np.ndarray, a: DistSparseMatrix, *, semiring: Semiring = PLUS_TIMES
    ) -> np.ndarray:
        """``y = x ⊗ A`` over replicated dense state (distributed SpMV on
        the cached transpose)."""
        return self.mxv_dense(self.transpose(a), x, semiring=semiring)

    def mxv_dense(
        self, a: DistSparseMatrix, x: np.ndarray, *, semiring: Semiring = PLUS_TIMES
    ) -> np.ndarray:
        """``y = A ⊗ x`` over replicated dense state."""
        xd = DistDenseVector.from_global(np.asarray(x), self.machine.grid)
        y, _ = spmv_dist(a, xd, self.machine, semiring=semiring)
        return y.gather(faults=self.machine.faults).values

    def mxm(
        self,
        a: DistSparseMatrix,
        b: DistSparseMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: DistSparseMatrix | None = None,
        accum=None,
        out: DistSparseMatrix | None = None,
        desc: Descriptor | None = None,
    ) -> DistSparseMatrix:
        """``out⟨mask, replace⟩ ⊕= A ⊗ B``.

        Every grid shape routes through the dispatcher's schedule axis:
        square grids pick among the 2-D / 3-D×``c`` sparse SUMMA
        schedules, non-square grids take the gathered fallback (which
        charges its full round trip) — with the identical descriptor
        output step on either path.
        """
        d = desc or Descriptor()
        ma = self.transpose(a) if d.transpose_a else a
        mb = self.transpose(b) if d.transpose_b else b
        c, _ = self.dispatcher.mxm_dist(
            ma,
            mb,
            semiring=semiring,
            comm_mode=self.comm_mode,
            mask=mask,
            accum=accum,
            out=out,
            desc=d,
        )
        return c

    # -- reductions -------------------------------------------------------------

    def reduce_vector(self, v: DistSparseVector, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar (cross-locale reduction)."""
        return reduce_dist_vector(v, monoid)

    def reduce_matrix(self, a: DistSparseMatrix, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar (blockwise partials combined
        with the monoid)."""
        parts = [monoid.reduce(blk.values) for blk in a.blocks if blk.nnz]
        if not parts:
            return monoid.identity
        acc = parts[0]
        for p in parts[1:]:
            acc = monoid.op(acc, p)
        return acc

    def reduce_rows_dense(
        self, a: DistSparseMatrix, monoid: Monoid = PLUS_MONOID
    ) -> np.ndarray:
        """Per-row reduction as a dense array (identity for empty rows)."""
        return reduce_rows_dense_dist(a, self.machine, monoid)

    # -- misc -------------------------------------------------------------------

    def scale_rows(self, a: DistSparseMatrix, factors: np.ndarray) -> DistSparseMatrix:
        """A new matrix with row ``i`` scaled by ``factors[i]``."""
        c, _ = scale_rows_dist(a, factors, self.machine)
        return c

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistBackend(p={self.machine.num_locales}, "
            f"grid={self.machine.grid.rows}x{self.machine.grid.cols})"
        )
