"""Blockwise distributed matrix operations for the execution frontend.

The structural matrix ops (select/tril, row scaling, row reductions,
degree counts) are embarrassingly parallel over the 2-D blocks — each
locale works on its own block with indices rebased to the global frame,
then row-team partials combine.  They exist so
:class:`~repro.exec.dist.DistBackend` can serve the full frontend op
surface without gathering.

Two gather-based fallbacks round out the set: ``transpose_any`` and
``mxm_gathered`` cover the non-square locale grids where the square-grid
exchange (:func:`~repro.ops.transpose.transpose_dist`) and sparse SUMMA
(:func:`~repro.ops.mxm_dist.mxm_dist`) do not apply; both charge the
allgather + recompute + redistribute they actually perform, so the cost
model stays honest about the penalty of an awkward grid.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import IndexUnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from ..algebra.semiring import PLUS_TIMES, Semiring
from ..distributed.dist_matrix import DistSparseMatrix
from ..runtime.clock import Breakdown
from ..runtime.comm import bulk
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, parallel_time
from ..sparse.csr import CSRMatrix
from .mxm import mxm

__all__ = [
    "select_dist_matrix",
    "scale_rows_dist",
    "row_degrees_dist",
    "reduce_rows_dense_dist",
    "transpose_any",
    "mxm_gathered",
]

_ITEMSIZE = 16


def _block_origin(a: DistSparseMatrix, i: int, j: int) -> tuple[int, int]:
    return (
        int(a.layout.row_blocks.bounds[i]),
        int(a.layout.col_blocks.bounds[j]),
    )


def _local_span(machine: Machine, per_locale_work: list[float]) -> Breakdown:
    cfg = machine.config
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    per = [
        Breakdown(
            {
                "Local Compute": parallel_time(
                    cfg,
                    w * cfg.element_cost * machine.compute_penalty,
                    machine.threads_per_locale,
                )
            }
        )
        for w in per_locale_work
    ]
    return Breakdown({"Local Compute": spawn}) + Breakdown.parallel(per)


def select_dist_matrix(
    a: DistSparseMatrix, op: IndexUnaryOp, machine: Machine, thunk=None
) -> tuple[DistSparseMatrix, Breakdown]:
    """``GrB_select`` blockwise: every locale filters its block with row/
    column indices rebased to the global frame (so positional ops like
    TRIL see global coordinates)."""
    grid = a.grid
    blocks = []
    work = []
    for loc in grid:
        blk = a.block(loc.row, loc.col)
        rlo, clo = _block_origin(a, loc.row, loc.col)
        rebased = IndexUnaryOp(
            f"{op.name}@({rlo},{clo})",
            lambda v, r, c, k, _rlo=rlo, _clo=clo: op(v, r + _rlo, c + _clo, k),
        )
        blocks.append(blk.select(rebased, thunk))
        work.append(float(blk.nnz))
    c = DistSparseMatrix(a.nrows, a.ncols, grid, blocks)
    return c, machine.record("select_dist", _local_span(machine, work))


def scale_rows_dist(
    a: DistSparseMatrix, factors: np.ndarray, machine: Machine
) -> tuple[DistSparseMatrix, Breakdown]:
    """Scale row ``i`` of ``a`` by ``factors[i]`` (factors replicated)."""
    factors = np.asarray(factors)
    grid = a.grid
    blocks = []
    work = []
    for loc in grid:
        blk = a.block(loc.row, loc.col)
        rlo, _ = _block_origin(a, loc.row, loc.col)
        blocks.append(
            CSRMatrix(
                blk.nrows,
                blk.ncols,
                blk.rowptr.copy(),
                blk.colidx.copy(),
                blk.values * factors[rlo + blk.row_indices()],
            )
        )
        work.append(float(blk.nnz))
    c = DistSparseMatrix(a.nrows, a.ncols, grid, blocks)
    return c, machine.record("scale_rows_dist", _local_span(machine, work))


def row_degrees_dist(a: DistSparseMatrix, machine: Machine) -> np.ndarray:
    """Global stored-entries-per-row counts (row-team partial sums)."""
    deg = np.zeros(a.nrows, dtype=np.int64)
    work = []
    for loc in a.grid:
        blk = a.block(loc.row, loc.col)
        rlo, _ = _block_origin(a, loc.row, loc.col)
        deg[rlo : rlo + blk.nrows] += np.diff(blk.rowptr)
        work.append(float(blk.nrows))
    machine.record("reduce_rows_dist", _local_span(machine, work))
    return deg


def reduce_rows_dense_dist(
    a: DistSparseMatrix, machine: Machine, monoid: Monoid = PLUS_MONOID
) -> np.ndarray:
    """Per-row monoid reduction as a dense global array.

    Each locale reduces its block's rows; row-team partials combine with
    the monoid (exact for min/max/integer sums; floating-point sums may
    differ from the shared-memory order in the last bits — the usual
    distributed-reduction caveat).
    """
    out = np.full(a.nrows, monoid.identity, dtype=np.float64)
    work = []
    for loc in a.grid:
        blk = a.block(loc.row, loc.col)
        rlo, _ = _block_origin(a, loc.row, loc.col)
        sl = slice(rlo, rlo + blk.nrows)
        out[sl] = monoid.op(out[sl], blk.reduce_rows(monoid))
        work.append(float(blk.nnz + blk.nrows))
    machine.record("reduce_rows_dist", _local_span(machine, work))
    return out


def _gather_cost(machine: Machine, nnz: int) -> float:
    """Allgather of ``nnz`` stored entries to every locale (tree bulk)."""
    return machine.num_locales * bulk(
        machine.config, (nnz / max(machine.num_locales, 1)) * _ITEMSIZE,
        local=machine.oversubscribed,
    )


def transpose_any(
    a: DistSparseMatrix, machine: Machine
) -> tuple[DistSparseMatrix, Breakdown]:
    """Distributed transpose on *any* grid.

    Square grids use the blockwise exchange of
    :func:`~repro.ops.transpose.transpose_dist`; non-square grids fall
    back to allgather → local transpose → redistribute and charge that
    full round trip under a ``transpose_dist[gathered]`` span.
    """
    from .transpose import transpose_dist

    if a.grid.rows == a.grid.cols:
        return transpose_dist(a, machine)
    cfg = machine.config
    g = a.gather(faults=machine.faults)
    comm = _gather_cost(machine, a.nnz) * 2  # collect + redistribute
    compute = parallel_time(
        cfg,
        a.nnz * cfg.element_cost * machine.compute_penalty,
        machine.threads_per_locale,
    )
    t = DistSparseMatrix.from_global(g.transposed(), a.grid)
    b = Breakdown({"Gather": comm, "transpose": compute})
    return t, machine.record("transpose_dist[gathered]", b)


def mxm_gathered(
    a: DistSparseMatrix,
    b: DistSparseMatrix,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: DistSparseMatrix | None = None,
    complement: bool = False,
) -> tuple[DistSparseMatrix, Breakdown]:
    """SpGEMM fallback for grids sparse SUMMA cannot run on.

    Gathers both operands, multiplies with the shared-memory masked
    Gustavson kernel, redistributes the product — and charges the whole
    round trip (the honest price of an mxm on a non-square grid).
    """
    ga = a.gather(faults=machine.faults)
    gb = b.gather(faults=machine.faults)
    gm = None if mask is None else mask.gather(faults=machine.faults)
    c = mxm(ga, gb, semiring=semiring, mask=gm, complement=complement)
    flops_est = ga.nnz * (gb.nnz / max(gb.nrows, 1))
    bd = gathered_bill(machine, ga.nnz, gb.nnz, flops_est, c.nnz)
    cd = DistSparseMatrix.from_global(c, a.grid)
    return cd, machine.record("mxm_dist[gathered]", bd)


def gathered_bill(
    machine: Machine, a_nnz: int, b_nnz: int, flops: float, out_nnz: float
) -> Breakdown:
    """The bill of :func:`mxm_gathered` — and the dispatcher's
    ``gathered`` estimate — over its statistics: allgather both operands
    (``a_nnz + b_nnz`` entries), one shared-memory multiply of ``flops``
    (**not** divided by ``p``), redistribute ``out_nnz`` product entries."""
    cfg = machine.config
    comm = _gather_cost(machine, a_nnz + b_nnz) + _gather_cost(machine, out_nnz)
    compute = parallel_time(
        cfg,
        flops * cfg.element_cost * machine.compute_penalty,
        machine.threads_per_locale,
    )
    return Breakdown({"Gather": comm, "multiply": compute})
