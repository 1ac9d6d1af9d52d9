"""Distributed SpGEMM — sparse SUMMA on the 2-D grid, with a 2.5D/3D
communication-avoiding variant and mask fusion.

The paper's future work aims at "finishing a complete GraphBLAS-compliant
library" including distributed matrix-matrix multiply; this is the classic
sparse SUMMA of Buluç & Gilbert [8] on the same 2-D block distribution as
SpMSpV_dist:

for each stage ``s`` of ``q = √p`` stages:
    * the owners of A's column-block ``s`` broadcast their block along
      their processor **row**;
    * the owners of B's row-block ``s`` broadcast theirs along their
      processor **column**;
    * every locale multiplies the received pair locally (ESC SpGEMM) and
      accumulates into its output block with the semiring's add.

Communication is bulk by construction — SUMMA is the bulk-synchronous
answer to the fine-grained problems of §IV.  Requires a square grid.

Two orthogonal extensions (see ``docs/spgemm.md``):

* **Mask fusion** (``mask_mode="fused"``, the default with a mask) — each
  stage's product is pruned against the local mask block *before* it
  enters the accumulator, so the merge bill scales with the masked
  output instead of the full product and the final filter pass
  disappears.  Structural filtering commutes with the stage fold (a kept
  entry receives exactly the same stage contributions in the same
  order), so fused results are bit-identical to ``mask_mode="post"``
  (the filter-after-last-stage form, retained for ledger comparison).
* **2.5D/3D replication** (``variant="3d"``, ``layers=c`` with
  ``c = k²``, ``k | q``) — the CombBLAS 2.0 scaling recipe on a *fixed*
  machine: the p locales re-group as ``c`` replication layers, each a
  coarse ``q/k × q/k`` grid (``c·(q/k)² = p`` exactly), the ``q/k``
  coarse stages split contiguously across layers, and a final
  reduce-scatter over the layers combines the partial products — billed
  through the aggregation/overlap model.  The *value plane* stays the
  canonical fine-stage fold (same code as 2-D), so every variant is
  bit-identical and the dispatcher may choose freely on price alone;
  only the communication/compute *schedule billed* changes.

One fold, one bill: :func:`_fold` computes the product blocks and
measures the per-(stage, locale) :class:`SummaStats`;
:class:`SummaSchedule` charges any schedule over such statistics.  The
kernel bills the measured statistics (metered, under the machine's fault
plan); :meth:`~repro.ops.dispatch.Dispatcher.estimate_mxm_dist` bills
predicted ones (pure), so the estimate and the ledger cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from ..algebra.semiring import PLUS_TIMES, Semiring
from ..distributed.dist_matrix import DistSparseMatrix
from ..runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    flush_cost,
    flush_startup,
    num_flushes,
    overlap_exposed,
)
from ..runtime.clock import Breakdown
from ..runtime.comm import bulk, bulk_ft
from ..runtime.faults import RETRY_STEP
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, local_time_ft, parallel_time
from ..sparse.csr import CSRMatrix
from .ewise import ewiseadd_mm
from .mxm import mxm

__all__ = ["mxm_dist", "replication_factors"]

_ITEMSIZE = 16


def replication_factors(q: int) -> list[int]:
    """Valid 3-D replication factors ``c`` for a ``q×q`` grid.

    ``c = k²`` for each ``k ≥ 2`` dividing ``q``: the ``p = q²`` locales
    re-group exactly as ``c`` layers of ``(q/k)×(q/k)`` coarse cells.
    """
    return [k * k for k in range(2, q + 1) if q % k == 0]


def _validate(a, b, mask, comm_mode, mask_mode, variant, layers):
    if comm_mode not in ("bulk", "agg"):
        raise ValueError(f"unknown comm_mode {comm_mode!r}")
    if mask_mode not in ("fused", "post"):
        raise ValueError(f"unknown mask_mode {mask_mode!r}")
    if variant not in ("2d", "3d"):
        raise ValueError(f"unknown variant {variant!r}")
    grid = a.grid
    if grid.rows != grid.cols:
        raise ValueError("sparse SUMMA requires a square locale grid")
    if (b.grid.rows, b.grid.cols) != (grid.rows, grid.cols):
        raise ValueError("A and B must share the locale grid")
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    # inner-dimension blockings must agree (A's column blocks == B's row blocks)
    if not np.array_equal(a.layout.col_blocks.bounds, b.layout.row_blocks.bounds):
        raise ValueError("inner-dimension block boundaries of A and B disagree")
    if mask is not None:
        if (mask.grid.rows, mask.grid.cols) != (grid.rows, grid.cols) or mask.shape != (
            a.nrows,
            b.ncols,
        ):
            raise ValueError("mask must share the product's distribution")
    q = grid.rows
    if variant == "3d":
        k = math.isqrt(int(layers))
        if layers < 4 or k * k != layers or q % k != 0:
            raise ValueError(
                f"3d replication layers must be k^2 with k dividing q={q}; "
                f"valid: {replication_factors(q)}, got {layers}"
            )


def mxm_dist(
    a: DistSparseMatrix,
    b: DistSparseMatrix,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    comm_mode: str = "bulk",
    mask: DistSparseMatrix | None = None,
    complement: bool = False,
    mask_mode: str = "fused",
    variant: str = "2d",
    layers: int = 1,
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseMatrix, Breakdown]:
    """Sparse SUMMA: ``C = A ⊗ B`` on matching square 2-D distributions.

    Returns the distributed product and a Breakdown with ``broadcast`` /
    ``multiply`` / ``merge`` components (per-stage costs, max over
    locales); the 3-D variant adds ``replicate`` and ``reduce``.

    ``mask`` (an aligned distributed matrix, ``complement`` honoured)
    restricts the output structurally.  ``mask_mode="fused"`` (default)
    prunes each stage product against the local mask block before the
    accumulator merge; ``"post"`` filters the accumulated block after the
    last stage.  Both produce bit-identical matrices — fusion only
    shrinks the merge/output bill (and, in 3-D, the reduce volume), never
    a surviving sum.

    ``comm_mode="agg"`` receives each stage's operand blocks through the
    aggregation layer's flush buffers and software-pipelines the stages:
    stage ``s``'s broadcasts stream while stage ``s-1``'s local multiply
    runs, so only the exposed share — ``max(comm - compute, 0)`` plus the
    pipeline-fill flush — extends the makespan (stage 0 has nothing to
    hide behind).  Fault repair stays batch-granular and un-overlapped.

    ``variant="3d"`` with ``layers=c`` bills the communication-avoiding
    2.5D schedule (replicate → ``⌈(q/k)/c⌉`` coarse stage slots → layer
    reduce-scatter) instead of the ``q``-stage 2-D one; the returned
    matrix is identical by construction (canonical value plane).
    """
    _validate(a, b, mask, comm_mode, mask_mode, variant, layers)
    if machine.faults is not None:
        machine.faults.check_grid(a.grid, "mxm_dist")
    blocks, stats = _fold(a, b, semiring, mask, complement, mask_mode)
    c = int(layers) if variant == "3d" else 1
    bill = SummaSchedule(machine, stats, c, run=True).bill(comm_mode, agg)
    out = DistSparseMatrix(a.nrows, b.ncols, a.grid, blocks)
    return out, machine.record("mxm_dist" if c == 1 else "mxm_dist[3d]", bill)


@dataclass(frozen=True)
class SummaStats:
    """The sparsity statistics a SUMMA bill reads, as flat row-major lists
    over the ``q×q`` grid (``p = q²`` locales, locale ``(i, j)`` is
    ``i·q + j``).  The kernel's fold measures them; the dispatcher
    predicts them (``docs/dispatch.md`` says which are exact).
    """

    a_nnz: list
    """``q×q``: stored entries of A's block ``(i, s)`` at ``i·q + s``."""
    b_nnz: list
    """``q×q``: stored entries of B's block ``(s, j)`` at ``s·q + j``."""
    flops: list
    """``q×p``: multiplies of stage ``s`` on locale ``l`` at ``s·p + l``."""
    prod: list
    """``q×p``: entries of each stage product merged into the accumulator
    (after the fused mask's prune), indexed as ``flops``."""
    unfiltered: list | None = None
    """``p``: accumulated entries of each block the ``mask_mode="post"``
    filter scans; ``None`` when there is no post filter."""


def stage_flops(a: DistSparseMatrix, b: DistSparseMatrix) -> np.ndarray:
    """``(q, p)`` multiplies of every SUMMA stage on every locale: stage
    ``s`` on locale ``(i, j)`` performs :func:`~repro.ops.mxm.flops` of
    ``A(i, s)·B(s, j)`` — the summed lengths of the B rows that A's
    nonzeros select.  Exact, and far cheaper than a stage."""
    q = a.grid.rows
    out = np.zeros((q, q, q))  # [s, i, j]
    for s in range(q):
        lengths = [np.diff(b.block(s, j).rowptr) for j in range(q)]
        for i in range(q):
            cols = a.block(i, s).colidx
            if cols.size:
                out[s, i] = [rows.take(cols).sum() for rows in lengths]
    return out.reshape(q, q * q)


def _fold(a, b, semiring, mask, complement, mask_mode):
    """The canonical fine-stage fold — the value plane of every SUMMA
    schedule — and the statistics it measured on the way.

    Every locale accumulates its ``q`` stage products in stage order with
    the semiring's add; which schedule is billed never touches the values,
    so the 2-D and 3-D variants are bit-identical by construction.
    """
    from .mask import mask_matrix

    grid = a.grid
    q = grid.rows
    fused = mask is not None and mask_mode == "fused"
    acc: list[CSRMatrix | None] = [None] * grid.size
    stage_prod = []
    for s in range(q):
        for loc in grid:
            k = loc.id
            c_blk = mxm(
                a.block(loc.row, s),
                b.block(s, loc.col),
                semiring=semiring,
                mask=mask.blocks[k] if fused else None,
                complement=complement,
            )
            stage_prod.append(c_blk.nnz)
            acc[k] = c_blk if acc[k] is None else ewiseadd_mm(acc[k], c_blk, semiring.add)
    # every cell received a product in stage 0, so acc is fully populated
    blocks = [blk for blk in acc if blk is not None]
    assert len(blocks) == grid.size
    unfiltered = None
    if mask is not None and not fused:
        unfiltered = [blk.nnz for blk in blocks]
        blocks = [
            mask_matrix(blk, m, complement=complement)
            for blk, m in zip(blocks, mask.blocks)
        ]
    stats = SummaStats(
        a_nnz=[blk.nnz for blk in a.blocks],
        b_nnz=[blk.nnz for blk in b.blocks],
        flops=stage_flops(a, b).ravel().tolist(),
        prod=stage_prod,
        unfiltered=unfiltered,
    )
    return blocks, stats


def _coarsen(flat: list, q: int, ndim: int, k: int) -> list:
    """Sum a flattened ``q^ndim`` array over consecutive groups of ``k``
    along every axis, flattened again (exact on the integer-valued
    measured statistics)."""
    if k == 1:
        return flat
    return [sum(group(flat)) for group in _coarse_groups(q, ndim, k)]


@lru_cache(maxsize=None)
def _coarse_groups(q: int, ndim: int, k: int) -> tuple:
    """Per coarse entry, a getter of the ``k^ndim`` fine entries it sums."""
    idx = np.arange(q**ndim).reshape([d for _ in range(ndim) for d in (q // k, k)])
    idx = idx.transpose(list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2)))
    return tuple(itemgetter(*g) for g in idx.reshape((q // k) ** ndim, k**ndim).tolist())


@lru_cache(maxsize=None)
def _layout(q: int, c: int) -> tuple[tuple, tuple]:
    """Who does what in the ``c``-layer schedule on a ``q×q`` grid.

    Locale ``(i, j)`` plays layer ``l = (i mod k)·k + (j mod k)`` of
    coarse cell ``(I, J) = (i//k, j//k)`` of the ``q2 = q/k`` coarse grid
    and, in slot ``t``, works on coarse stage ``s2 = l·slots + t`` when
    that is below ``min((l+1)·slots, q2)`` (``slots = ⌈q2/c⌉``; layers
    past ``q2`` sit idle).  Returns, per slot, the working locales as
    ``(locale, stage, work, A block, A source, B block, B source)`` —
    ``work`` indexes the coarse ``flops``/``prod``, the blocks index the
    coarse ``a_nnz``/``b_nnz`` and are ``-1`` when the operand is the
    locale's own — and every locale's coarse cell ``I·q2 + J``.
    """
    k = math.isqrt(c)
    q2 = q // k
    slots = max(-(-q2 // c), 1)
    cell = tuple((i // k) * q2 + j // k for i in range(q) for j in range(q))
    per_slot = []
    for t in range(slots):
        cells = []
        for loc in range(q * q):
            (big_i, di), (big_j, dj) = divmod(loc // q, k), divmod(loc % q, k)
            layer = di * k + dj
            s2 = layer * slots + t
            if s2 >= min((layer + 1) * slots, q2):
                continue
            # A's coarse block (I, s2) arrives along the row, B's (s2, J)
            # along the column, each from the replica in the same layer
            a_blk = src_a = b_blk = src_b = -1
            if s2 != big_j:
                a_blk, src_a = big_i * q2 + s2, (big_i * k + di) * q + s2 * k + dj
            if s2 != big_i:
                b_blk, src_b = s2 * q2 + big_j, (s2 * k + di) * q + big_j * k + dj
            work = (s2 * q2 + big_i) * q2 + big_j
            cells.append((loc, s2, work, a_blk, src_a, b_blk, src_b))
        per_slot.append(tuple(cells))
    return tuple(per_slot), cell


class SummaSchedule:
    """The bill of one SUMMA schedule over :class:`SummaStats`.

    ``layers=1`` is the 2-D schedule: ``q`` stages in which every locale
    receives ``A(i, s)`` along its row and ``B(s, j)`` along its column
    and multiplies them.  ``layers=c=k²`` is the 2.5D/3D schedule on the
    same ``p`` locales (see :func:`_layout`): the ``c`` replicas of a
    coarse cell are the ``k×k`` fine locales under it, each layer runs
    ``⌈(q/k)/c⌉`` coarse stage slots, a replication phase assembles each
    locale's copy of its coarse A/B cell first, and a reduce-scatter over
    the layers folds the partial products last.  Coarse statistics are
    exact sums of the fine ones; a coarse product's size is the sum of its
    fine stage products (an upper bound — unions can only dedupe).  The
    2-D schedule is the 3-D one with one layer and neither phase.

    Construction charges everything the transport does not change — the
    local compute, the always-bulk replication, the layer fold and the
    post filter — so one schedule prices both transports; :meth:`bill`
    adds the broadcasts and the reduce-scatter over ``"bulk"`` or
    ``"agg"``.  With ``run=True`` it is the executing kernel's bill:
    straggler factors stretch the local compute, each locale's compute
    seconds go to ``tasks.compute.seconds``, and blocks move through the
    metered transports under the machine's fault plan (construct, then
    bill once).  Otherwise it is pure — fault-free and unmetered: the
    dispatcher's estimate.
    """

    def __init__(
        self, machine: Machine, stats: SummaStats, layers: int = 1, *, run: bool = False
    ) -> None:
        cfg = machine.config
        ec = cfg.element_cost
        pen = machine.compute_penalty
        threads = machine.threads_per_locale
        q = math.isqrt(len(stats.a_nnz))
        p = q * q
        c = int(layers)
        k = math.isqrt(c)
        q2 = q // k
        per_slot, cell = _layout(q, c)
        self.cfg = cfg
        self.local = machine.oversubscribed
        self.layers = c
        self.faults = faults = machine.faults if run else None
        self._run = run
        self._site = "mxm_dist" if c == 1 else "mxm_dist3d"
        self.spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)

        coarse_a = _coarsen(stats.a_nnz, q, 2, k)  # [I·q2 + s2]
        coarse_b = _coarsen(stats.b_nnz, q, 2, k)  # [s2·q2 + J]
        coarse_flops = _coarsen(stats.flops, q, 3, k)  # [(s2·q2 + I)·q2 + J]
        coarse_prod = _coarsen(stats.prod, q, 3, k)

        def seconds(entries):  # one locale streaming ``entries`` through its threads
            return parallel_time(cfg, entries * ec * pen, threads)

        # per slot, every locale a nonempty block reaches: (locale, stage,
        # A nnz, A source, B nnz, B source, previous compute) — nothing
        # arriving costs nothing on either transport
        self.slots: list[list[tuple]] = []
        self.multiply = merge = 0.0
        # each locale's previous-slot compute: what slot t's broadcasts can
        # hide behind (zeros at slot 0 — the pipeline fill)
        prev = [0.0] * p
        for cells in per_slot:
            busy = [0.0] * p
            recv = []
            mult_max = merge_max = 0.0
            for loc, s2, w, a_blk, src_a, b_blk, src_b in cells:
                mult, mrg = seconds(coarse_flops[w]), seconds(coarse_prod[w])
                if run:
                    local_time_ft(mult + mrg, faults=faults, locale=loc, site=self._site)
                if faults is not None:
                    slow = faults.slowdown(loc)
                    mult, mrg = mult * slow, mrg * slow
                busy[loc] = mult + mrg
                mult_max = max(mult_max, mult)
                merge_max = max(merge_max, mrg)
                nnz_a = coarse_a[a_blk] if a_blk >= 0 else 0
                nnz_b = coarse_b[b_blk] if b_blk >= 0 else 0
                if nnz_a or nnz_b:
                    recv.append((loc, s2, nnz_a, src_a, nnz_b, src_b, prev[loc]))
            self.slots.append(recv)
            self.multiply += mult_max
            merge += merge_max
            prev = busy
        self.last_compute = prev

        self.replicate = self.repl_retry = fold = post = 0.0
        self.reduce: list[int] = []
        if c > 1:
            # all coarse stages of a coarse cell's product, over its layers
            cell_total = [sum(coarse_prod[g::q2 * q2]) for g in range(q2 * q2)]
            for loc, g in enumerate(cell):
                # every locale assembles its layer's copy of its coarse A/B
                # cell: the k×k region but its own fine share (always bulk)
                vol = coarse_a[g] - stats.a_nnz[loc] + coarse_b[g] - stats.b_nnz[loc]
                base, extra = self._move("bulk", max(vol, 0), None, loc, loc, "repl", None)
                self.replicate = max(self.replicate, base)
                self.repl_retry = max(self.repl_retry, extra)
                # the reduce-scatter hands it (c-1)/c of its cell's layer
                # partials to fold
                elems = int(round(cell_total[g] * (c - 1) / c))
                self.reduce.append(elems)
                fold = max(fold, seconds(elems))
        if stats.unfiltered is not None:
            # the unfused output filter scans every accumulated block
            post = max(seconds(n) for n in stats.unfiltered)
        self.merge = merge + fold + post

    def _move(self, comm_mode, nnz, agg, src, dst, what, stage):
        """One block of ``nnz`` entries from ``src`` to ``dst``:
        ``(goodput, retry)`` seconds; an empty block moves for free on
        every transport.  The fault site ``<kernel>.<what>[<stage>-><dst>]``
        is only built for a draw."""
        if nnz <= 0:
            return 0.0, 0.0
        cfg, local, faults = self.cfg, self.local, self.faults
        site = ""
        if faults is not None:
            where = dst if stage is None else f"{stage}->{dst}"
            site = f"{self._site}.{what}[{where}]"
        if comm_mode == "agg":
            cost = flush_cost(cfg, nnz, agg=agg, local=local)
            if faults is None:
                return cost, 0.0
            batches = num_flushes(nnz, agg.flush_elems)
            return faults.batched_transfer(site, batches, cost / batches, src=src, dst=dst)
        if not self._run:
            return bulk(cfg, nnz * _ITEMSIZE, local=local), 0.0
        return bulk_ft(
            cfg, nnz * _ITEMSIZE, faults=faults, site=site, src=src, dst=dst, local=local
        )

    def bill(self, comm_mode: str = "bulk", agg: AggregationConfig = AGG_DEFAULT) -> Breakdown:
        """The schedule's Breakdown over ``comm_mode`` (``"bulk"`` or
        ``"agg"``): per phase the max over locales, phases summed."""
        overlap = comm_mode == "agg" and agg.overlap
        layered = self.layers > 1
        retries = self.repl_retry
        broadcast = self.spawn
        for cells in self.slots:
            cast_max = retry_max = 0.0
            for loc, stage, nnz_a, src_a, nnz_b, src_b, prev in cells:
                cast_a, retry_a = self._move(comm_mode, nnz_a, agg, src_a, loc, "bcastA", stage)
                cast_b, retry_b = self._move(comm_mode, nnz_b, agg, src_b, loc, "bcastB", stage)
                if overlap and layered:
                    # each coarse operand streams behind the previous
                    # slot's compute as its own pipeline
                    cast_a = self._exposed(cast_a, prev, nnz_a, agg)
                    cast_b = self._exposed(cast_b, prev, nnz_b, agg)
                cast = cast_a + cast_b
                if overlap and not layered:
                    # a 2-D stage's broadcasts share one pipeline behind
                    # the previous stage's compute
                    cast = self._exposed(cast, prev, nnz_a + nnz_b, agg)
                cast_max = max(cast_max, cast)
                retry_max = max(retry_max, retry_a + retry_b)
            broadcast += cast_max
            retries += retry_max

        reduce = 0.0
        if layered:
            # reduce-scatter over the c layers of each coarse cell (fused
            # masking shrank the partials, so it shrinks this volume too)
            reduce_retry = 0.0
            for loc, elems in enumerate(self.reduce):
                comm, extra = self._move(comm_mode, elems, agg, loc, loc, "reduce", None)
                if overlap:
                    comm = self._exposed(comm, self.last_compute[loc], elems, agg)
                reduce = max(reduce, comm)
                reduce_retry = max(reduce_retry, extra)
            retries += reduce_retry

        parts = {"broadcast": broadcast}
        if layered:
            parts["replicate"] = self.replicate
        if self.faults is not None:
            parts[RETRY_STEP] = retries
        parts["multiply"] = self.multiply
        parts["merge"] = self.merge
        if layered:
            parts["reduce"] = reduce
        return Breakdown(parts)

    def _exposed(self, comm, compute, nnz, agg):
        """The share of ``comm`` a flush pipeline of ``nnz`` entries cannot
        hide behind ``compute``."""
        if comm <= 0.0:
            return comm
        startup = flush_startup(self.cfg, nnz, agg=agg, local=self.local)
        return overlap_exposed(comm, compute, startup)
