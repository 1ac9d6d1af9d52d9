"""SpMV / MXV — sparse matrix × dense vector over a semiring.

The GraphBLAS ``MXV`` "can be used to multiply … a sparse matrix with a
dense vector" (paper §III); the backend "has to specialize their
implementations based on sparsity for optimal performance".  This is the
dense-vector specialisation: no SPA is needed because the output is dense —
a row-wise segmented reduction does everything.

Also provides ``vxm`` (vector × matrix, the orientation SpMSpV generalises),
the *pull*-direction :func:`vxm_pull` used by the direction-optimizing
dispatcher, and the distributed dense SpMV in both orientations
(:func:`spmv_dist`, :func:`vxm_dense_dist`) used by PageRank-style
iterations, which share one bill.
"""

from __future__ import annotations

import numpy as np

from ..distributed.block import GridBlock1D
from ..distributed.dist_matrix import DistSparseMatrix
from ..distributed.dist_vector import DistDenseVector
from ..runtime.clock import Breakdown
from ..runtime.comm import allgather
from ..runtime.faults import RETRY_STEP
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, local_time_ft, makespan, parallel_time
from ..sparse.csr import CSRMatrix
from ..sparse.vector import DenseVector, SparseVector
from ..algebra.semiring import PLUS_TIMES, Semiring

__all__ = ["spmv", "vxm_dense", "vxm_pull", "vxm_pull_cost", "spmv_dist", "vxm_dense_dist"]

#: component labels of the pull kernel's breakdown
DENSIFY_STEP = "Densify"
PULL_STEP = "Pull"
PULL_OUTPUT_STEP = "Output"


def spmv(
    a: CSRMatrix,
    x: DenseVector | np.ndarray,
    *,
    semiring: Semiring = PLUS_TIMES,
) -> DenseVector:
    """``y = A ⊗ x`` with a dense ``x``: ``y[i] = ⊕_j A[i,j] ⊗ x[j]``.

    Rows with no stored entries produce the semiring's zero.  Fully
    vectorised: gather ``x`` at the column indices, multiply, and reduce
    per row with the additive monoid's segmented reduction.
    """
    xv = x.values if isinstance(x, DenseVector) else np.asarray(x)
    if xv.size != a.ncols:
        raise ValueError(f"x has {xv.size} entries for {a.ncols} columns")
    products = np.asarray(semiring.mult(a.values, xv[a.colidx]))
    out = np.asarray(semiring.add.reduceat(products, a.rowptr[:-1]))
    return DenseVector(out)


def vxm_dense(
    x: DenseVector | np.ndarray,
    a: CSRMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
) -> DenseVector:
    """``y = x ⊗ A`` with dense ``x``: ``y[j] = ⊕_i x[i] ⊗ A[i,j]``.

    The push orientation of :func:`spmv`, on ``A`` itself: every stored
    entry forms ``x[i] ⊗ A[i,j]`` in GraphBLAS operand order, and the
    additive monoid folds the products into ``y[j]`` in CSR entry order
    (rows ascending within a column) from the identity, with no sort
    (:meth:`~repro.algebra.monoid.Monoid.scatter_reduce`).  Columns with
    no stored entries produce the semiring's zero.  ``x`` is expanded over
    the entries by a gather at the block's cached row ids
    (:meth:`~repro.sparse.csr.CSRMatrix.row_indices`), so an iteration
    over an unchanged matrix never re-expands its rows.
    """
    xv = x.values if isinstance(x, DenseVector) else np.asarray(x)
    if xv.size != a.nrows:
        raise ValueError(f"x has {xv.size} entries for {a.nrows} rows")
    products = np.asarray(semiring.mult(xv[a.row_indices()], a.values))
    return DenseVector(np.asarray(semiring.add.scatter_reduce(products, a.colidx, a.ncols)))


def vxm_pull_cost(
    machine: Machine,
    *,
    row_nnzs: np.ndarray,
    kept: int,
    out_nnz: int,
    x_capacity: int,
    x_nnz: int,
) -> Breakdown:
    """Simulated cost of the pull-direction ``y ← x A``.

    ``row_nnzs`` are the lengths of the scanned rows of ``Aᵀ`` (one per
    candidate output index, after mask restriction), so the makespan sees
    the real per-output work distribution.  Pull streams every scanned
    stored entry once — membership test plus a random dense gather of
    ``x`` — and emits its output *already sorted*, which is the structural
    advantage over push: no Step-2 sort at all.
    """
    cfg = machine.config
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    # building the dense value/pattern view of x: memset of the flag array
    # (cheap, bandwidth-bound) plus a scatter of the stored entries
    densify = parallel_time(
        cfg,
        (0.125 * x_capacity + 2.0 * x_nnz) * cfg.stream_cost * pen,
        threads,
    )
    # per scanned element: streaming read of (index, value) plus the random
    # x[colidx] gather — the same latency class as push's SPA scatter
    chunks = np.asarray(row_nnzs, dtype=np.float64) * (
        cfg.stream_cost + cfg.element_cost
    ) * pen
    scan = makespan(cfg, chunks, threads)
    # segmented reduce over the kept products + emitting the output pairs
    output = parallel_time(
        cfg, (2.0 * kept + 2.0 * out_nnz) * cfg.stream_cost * pen, threads
    )
    return Breakdown({DENSIFY_STEP: densify, PULL_STEP: scan, PULL_OUTPUT_STEP: output})


def vxm_pull(
    at: CSRMatrix,
    x: SparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: np.ndarray | None = None,
    complement: bool = False,
) -> tuple[SparseVector, Breakdown]:
    """Pull-direction ``y ← x A`` over the pre-transposed matrix ``at = Aᵀ``.

    Instead of scattering the frontier's rows into a SPA (push), every
    candidate *output* index ``j`` scans its row of ``Aᵀ`` and combines the
    ``x`` entries found on it — Beamer's pull direction in GraphBLAS terms,
    the CombBLAS 2.0 dense-frontier specialisation.  With a ``mask`` only
    the allowed output rows are scanned at all, which is what makes pull
    win for BFS once most vertices are visited.

    Bit-for-bit identical to :func:`repro.ops.spmspv.spmspv_shm`: products
    of output ``j`` are combined in ascending input-index order, exactly the
    order push's SPA sees them, so even non-associative float rounding
    agrees.  The output needs no sort — ``Aᵀ``'s row order *is* the output
    order.
    """
    if x.capacity != at.ncols:
        raise ValueError(
            f"dimension mismatch: x has capacity {x.capacity}, Aᵀ has {at.ncols} columns"
        )
    n_out = at.nrows
    if mask is not None:
        allowed = np.asarray(mask, dtype=bool)
        if allowed.size != n_out:
            raise ValueError(f"mask length {allowed.size} != output capacity {n_out}")
        rows = np.flatnonzero(~allowed if complement else allowed).astype(np.int64)
        sub = at.extract_rows(rows)
        row_map: np.ndarray | None = rows
    else:
        sub = at
        row_map = None
    row_nnzs = np.diff(sub.rowptr)
    # dense pattern + value view of x (values only read where the pattern
    # is set, so the zero fill never reaches the semiring)
    isthere = np.zeros(x.capacity, dtype=bool)
    isthere[x.indices] = True
    xdense = np.zeros(x.capacity, dtype=x.values.dtype)
    xdense[x.indices] = x.values
    keep = isthere[sub.colidx]
    kept = int(keep.sum())
    if kept:
        out_rows = sub.row_indices()[keep]  # ascending by construction
        in_cols = sub.colidx[keep]
        products = np.asarray(semiring.mult(xdense[in_cols], sub.values[keep]))
        is_first = np.empty(kept, dtype=bool)
        is_first[0] = True
        is_first[1:] = out_rows[1:] != out_rows[:-1]
        starts = np.flatnonzero(is_first)
        out_vals = np.asarray(semiring.add.reduceat(products, starts))
        out_idx = out_rows[starts]
    else:
        out_idx = np.empty(0, dtype=np.int64)
        out_vals = np.empty(0, dtype=np.result_type(x.values, sub.values))
    if row_map is not None:
        out_idx = row_map[out_idx] if out_idx.size else out_idx
    y = SparseVector(n_out, out_idx.copy(), out_vals)
    b = vxm_pull_cost(
        machine,
        row_nnzs=row_nnzs,
        kept=kept,
        out_nnz=y.nnz,
        x_capacity=x.capacity,
        x_nnz=x.nnz,
    )
    return y, machine.record("vxm_pull", b)


def _spmv_dist_bill(a: DistSparseMatrix, machine: Machine, *, vxm: bool) -> Breakdown:
    """The one bill of distributed dense SpMV, for both orientations.

    Each locale gathers the slice of ``x`` its block multiplies (the
    block's column range for ``A ⊗ x``, its row range for ``x ⊗ A``),
    touches every stored entry once at ``stream_cost``, and reduces the
    slice of ``y`` it produces.  Each collective is a ring over its own
    team: the gather over the slice's owners (``grid.rows`` of them for
    ``A ⊗ x``, ``grid.cols`` for ``x ⊗ A``), each sending its share of
    the slice; the reduce over the locales whose partials combine (the
    processor row for ``A ⊗ x``, the column for ``x ⊗ A``).  The pull
    side's gather of ``x`` and the push side's fold into ``y`` are
    priced alike: each touches one block-wide dense array at random.  A
    failed locale raises before anything is billed; a straggler
    stretches its multiply.

    Under a plan that can inject faults, each collective is also a set of
    legs into the locale, one ring step each: the gather's from every
    other owner of its ``x`` slice, the reduce's from every other locale
    its partial combines with (its processor row for ``A ⊗ x``, its
    processor column for ``x ⊗ A``).  A leg with a straggler endpoint adds
    its extra goodput to its collective, and transient faults retry the
    leg into ``Retries``.  A quiet plan bills the fault-free row.
    """
    cfg = machine.config
    grid = a.grid
    faults = machine.faults
    if faults is not None:
        faults.check_grid(grid, "spmv_dist")
    legs = faults is not None and not faults.plan.quiet
    if legs:
        x_dist = GridBlock1D.for_grid(a.nrows if vxm else a.ncols, grid)
    gather_team, reduce_team = (grid.cols, grid.rows) if vxm else (grid.rows, grid.cols)
    per_locale: list[Breakdown] = []
    for loc in grid:
        rlo, rhi, clo, chi = a.layout.extent(loc.row, loc.col)
        (x_lo, x_hi), y_len = ((rlo, rhi), chi - clo) if vxm else ((clo, chi), rhi - rlo)
        x_bytes, y_bytes = (x_hi - x_lo) * 8 // gather_team, y_len * 8
        multiply = parallel_time(
            cfg,
            a.block(loc.row, loc.col).nnz * cfg.stream_cost * machine.compute_penalty,
            machine.threads_per_locale,
        )
        parts = {
            "gather": allgather(cfg, gather_team, x_bytes),
            "multiply": local_time_ft(multiply, faults=faults, locale=loc.id, site="spmv_dist"),
            "reduce": allgather(cfg, reduce_team, y_bytes),
        }
        if legs:
            owners = range(x_dist.owner(x_lo), x_dist.owner(x_hi - 1) + 1) if x_hi > x_lo else ()
            team = grid.col_team(loc.col) if vxm else grid.row_team(loc.row)
            retry = 0.0
            for what, srcs, nbytes in (
                ("gather", owners, x_bytes),
                ("reduce", [t.id for t in team], y_bytes),
            ):
                step = allgather(cfg, 2, nbytes)
                for src in srcs:
                    if src == loc.id:
                        continue
                    goodput, extra = faults.transfer(
                        f"spmv_dist.{what}[{src}->{loc.id}]", step, src=src, dst=loc.id
                    )
                    parts[what] += goodput - step
                    retry += extra
            parts[RETRY_STEP] = retry
        per_locale.append(Breakdown(parts))
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    return Breakdown({"gather": spawn}) + Breakdown.parallel(per_locale)


def spmv_dist(
    a: DistSparseMatrix,
    x: DistDenseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
) -> tuple[DistDenseVector, Breakdown]:
    """Distributed ``y = A ⊗ x`` with a dense ``x`` on the 2-D distribution.

    Each locale multiplies its block by the column-block slice of ``x``
    (:func:`spmv`) into a partial of its row-block slice of ``y``; the
    partials are combined across each processor row in locale-column
    order.  Billed by :func:`_spmv_dist_bill`.
    """
    if x.capacity != a.ncols:
        raise ValueError("x capacity must equal the matrix column count")
    b = _spmv_dist_bill(a, machine, vxm=False)
    grid = a.grid
    layout = a.layout
    xg = x.gather().values
    out_global = np.full(a.nrows, semiring.zero, dtype=np.float64)
    for i in range(grid.rows):
        acc = None
        for j in range(grid.cols):
            clo, chi = layout.col_blocks.extent(j)
            part = spmv(a.block(i, j), xg[clo:chi], semiring=semiring).values
            acc = part if acc is None else np.asarray(semiring.add.op(acc, part))
        rlo, rhi = layout.row_blocks.extent(i)
        out_global[rlo:rhi] = acc
    y = DistDenseVector.from_global(out_global, grid)
    return y, machine.record("spmv_dist", b)


def vxm_dense_dist(
    x: DistDenseVector,
    a: DistSparseMatrix,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
) -> tuple[DistDenseVector, Breakdown]:
    """Distributed ``y = x ⊗ A`` with a dense ``x``, on A's own blocks.

    Each locale multiplies its block by the row-block slice of ``x`` in
    GraphBLAS operand order (``x[i] ⊗ A[i,j]``) and folds the products
    into a dense partial of its column-block slice of ``y``
    (:func:`vxm_dense`); the partials are combined down each processor
    column in locale-row order.  No ``Aᵀ`` is built.  Billed by
    :func:`_spmv_dist_bill`, so on a square grid the row equals the one
    :func:`spmv_dist` records over ``Aᵀ``.
    """
    if x.capacity != a.nrows:
        raise ValueError("x capacity must equal the matrix row count")
    b = _spmv_dist_bill(a, machine, vxm=True)
    grid = a.grid
    layout = a.layout
    xg = x.gather().values
    out_global = np.full(a.ncols, semiring.zero, dtype=np.float64)
    for j in range(grid.cols):
        acc = None
        for i in range(grid.rows):
            rlo, rhi = layout.row_blocks.extent(i)
            part = vxm_dense(xg[rlo:rhi], a.block(i, j), semiring=semiring).values
            acc = part if acc is None else np.asarray(semiring.add.op(acc, part))
        clo, chi = layout.col_blocks.extent(j)
        out_global[clo:chi] = acc
    y = DistDenseVector.from_global(out_global, grid)
    return y, machine.record("spmv_dist", b)
