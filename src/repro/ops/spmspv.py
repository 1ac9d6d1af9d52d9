"""SpMSpV — sparse matrix × sparse vector over a semiring (paper §III-D).

``y ← x A`` where ``A ∈ R^{m×n}`` is CSR and ``x ∈ R^{1×m}`` is sparse:
for every stored ``x[i]`` fetch row ``A[i, :]`` and merge the products into
a sparse accumulator (SPA).

Shared memory (:func:`spmspv_shm`, Listing 7) has three timed components,
plotted separately in the paper's Fig 7:

* **SPA** — merge the selected rows through the accumulator;
* **Sorting** — sort the accumulated indices (parallel merge sort in the
  paper; radix sort available as the paper's proposed improvement);
* **Output** — build the output sparse vector from the sorted SPA.

Distributed memory (:func:`spmspv_dist`, Listing 8) uses the shared-memory
kernel per locale and has the Fig 8-9 components:

* **Gather Input** — assemble each locale's row-block slice of ``x`` from
  the locales of its processor row (fine-grained in the paper; a
  bulk-synchronous variant is provided for the §IV recommendation);
* **Local Multiply** — per-locale :func:`spmspv_shm`;
* **Scatter output** — merge per-locale partial outputs through a global
  SPA across processor columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributed.block import GridBlock1D
from ..runtime import fastpath
from ..distributed.dist_matrix import DistSparseMatrix, DistSparseMatrix1D
from ..distributed.dist_vector import DistSparseVector
from ..runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    ceil_div,
    default_pool,
    exchange,
    exchange_cost,
    flush_startup,
    gather_agg,
    gather_agg_ft,
    group_by_owner,
    merge_superstep_batches,
    overlap_exposed,
)
from ..runtime.atomics import scattered_rmw
from ..runtime.clock import Breakdown
from ..runtime.comm import (
    allgather,
    bulk,
    bulk_ft,
    fine_grained,
    gather_parts_fine,
    gather_parts_ft,
    reduce_scatter,
)
from ..runtime.config import MachineConfig
from ..runtime.faults import RETRY_STEP
from ..runtime.locale import LocaleGrid, Machine
from ..runtime.tasks import coforall_spawn, local_time_ft, makespan, parallel_time, sort_time
from ..sparse.csr import CSRMatrix, _ranges as _csr_ranges
from ..sparse.sort import merge_sort, radix_sort, stable_argsort_bounded
from ..sparse.spa import SPA
from ..sparse.vector import SparseVector
from ..algebra.semiring import PLUS_TIMES, Semiring

__all__ = [
    "spmspv_shm",
    "spmspv_dist",
    "spmspv_dist_1d",
    "spmspv_shm_cost",
    "bulk_scatter_cost",
]

#: component labels, matching the paper's figure legends
SPA_STEP = "SPA"
SORT_STEP = "Sorting"
OUTPUT_STEP = "Output"
GATHER_STEP = "Gather Input"
MULTIPLY_STEP = "Local Multiply"
SCATTER_STEP = "Scatter output"

#: the communication modes of the distributed gather and scatter
COMM_MODES = ("fine", "bulk", "agg")
_ITEMSIZE = 16  # (int64 index, float64 value) per transferred element


def bulk_scatter_cost(
    cfg: MachineConfig, pr: int, remote_elems: int, itemsize: int = 16
) -> float:
    """One locale's ``scatter_mode="bulk"`` bill: an allgather over the
    processor column approximating its share of the batched exchange.

    Per-peer volume uses *ceiling* division: with fewer remote elements
    than peers, floor division charged 0 bytes and undercut even the
    remote-latency floor of the fine-grained path.
    """
    per_peer = ceil_div(remote_elems, max(pr - 1, 1)) if remote_elems > 0 else 0
    return allgather(cfg, pr, per_peer * itemsize)


def spmspv_shm_cost(
    machine: Machine,
    *,
    row_nnzs: np.ndarray,
    out_nnz: int,
    ncols: int,
    sort: str = "merge",
) -> Breakdown:
    """Simulated cost of the shared-memory SpMSpV.

    ``row_nnzs`` are the lengths of the matrix rows selected by the input
    vector's nonzeros — the real per-iteration work items, so skewed inputs
    produce genuine load imbalance in the makespan.
    """
    cfg = machine.config
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    t_mem = max(min(threads, cfg.mem_channels), 1)
    touched = int(np.asarray(row_nnzs).sum())
    # the SPA scatter is random access over an O(ncols) array: a large
    # fraction of it is memory-latency/bandwidth bound and stops speeding
    # up beyond the memory channels — this (not the atomics) is what caps
    # SpMSpV at the paper's 9-11x rather than Apply's ~20x.
    mem_fraction = 0.4
    chunks = np.asarray(row_nnzs, dtype=np.float64) * cfg.element_cost * pen
    spa_scan = makespan(cfg, chunks * (1.0 - mem_fraction), threads) + (
        mem_fraction * touched * cfg.element_cost * pen / t_mem
    )
    spa_atomics = scattered_rmw(cfg, touched, threads, n_addresses=max(ncols, 1))
    # radix passes depend on the actual key range: indices are < ncols
    key_bits = max(int(ncols - 1).bit_length(), 1) if ncols > 1 else 1
    sorting = sort_time(cfg, out_nnz, threads, algorithm=sort, key_bits=key_bits) * pen
    output = parallel_time(cfg, 2.0 * out_nnz * cfg.element_cost * pen, threads)
    return Breakdown(
        {
            SPA_STEP: spa_scan + spa_atomics * pen,
            SORT_STEP: sorting,
            OUTPUT_STEP: output,
        }
    )


def spmspv_shm(
    a: CSRMatrix,
    x: SparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    sort: str = "merge",
    mask: np.ndarray | None = None,
    complement: bool = False,
) -> tuple[SparseVector, Breakdown]:
    """Listing 7: SPA-based shared-memory SpMSpV, ``y ← x A``.

    Generalises the listing's "keep row index as value" special case to an
    arbitrary semiring: products ``x[i] ⊗ A[i, j]`` are combined into
    ``y[j]`` with the additive monoid.  ``sort`` selects the Step-2
    algorithm: ``"merge"`` (the paper's) or ``"radix"`` (its recommended
    replacement).

    ``mask`` (a dense Boolean array over the output index space, optionally
    ``complement``-ed) applies *during accumulation*: masked-out products
    never enter the SPA, so the masked kernel does less work — the paper's
    §V future-work feature ("masks … have not been attempted in distributed
    memory before").
    """
    if x.capacity != a.nrows:
        raise ValueError(
            f"dimension mismatch: x has capacity {x.capacity}, A has {a.nrows} rows"
        )
    y, row_nnzs = _local_spmspv(
        a, x, semiring, sort, mask=mask, complement=complement
    )
    b = spmspv_shm_cost(
        machine, row_nnzs=row_nnzs, out_nnz=y.nnz, ncols=a.ncols, sort=sort
    )
    return y, machine.record("spmspv_shm", b)


def _local_spmspv(
    a: CSRMatrix,
    x: SparseVector,
    semiring: Semiring,
    sort: str,
    *,
    mask: np.ndarray | None = None,
    complement: bool = False,
) -> tuple[SparseVector, np.ndarray]:
    """Compute-only local SpMSpV; returns (result, selected row lengths).

    ``mask`` filters products by output index *before* SPA insertion.
    """
    if fastpath.enabled():
        # raw row gather: same arrays extract_rows would produce, without
        # materialising the intermediate CSRMatrix (its rowptr is only
        # ever diffed back into the per-row lengths we already have)
        starts = a.rowptr[x.indices]
        row_nnzs = a.rowptr[x.indices + 1] - starts
        gather = _csr_ranges(starts, row_nnzs)
        cols = a.colidx[gather]
        xvals = np.repeat(x.values, row_nnzs)
        products = np.asarray(semiring.mult(xvals, a.values[gather]))
    else:
        sub = a.extract_rows(x.indices)
        row_nnzs = np.diff(sub.rowptr)
        xvals = np.repeat(x.values, row_nnzs)
        products = np.asarray(semiring.mult(xvals, sub.values))
        cols = sub.colidx
    if mask is not None:
        allowed = np.asarray(mask, dtype=bool)
        if allowed.size != a.ncols:
            raise ValueError(
                f"mask length {allowed.size} != output capacity {a.ncols}"
            )
        keep = ~allowed[cols] if complement else allowed[cols]
        cols = cols[keep]
        products = products[keep]
    if fastpath.enabled():
        # Sort-reduce fast path, bit-identical to the SPA reference below:
        # a stable argsort of `cols` applies the same permutation as the
        # SPA's stable argsort of the unique-inverse (the inverse is the
        # rank of the column, so the two key sequences have identical
        # relative order), the segment heads are the ascending unique
        # columns (== the SPA's sorted nzinds), and each segment is folded
        # left-to-right by the same monoid.reduceat in the same dtype, then
        # cast at store exactly as the dense SPA array would.  The `sort`
        # parameter only shapes the *simulated* cost (spmspv_shm_cost); the
        # result is the sorted output either way.
        if products.size == 0:
            return (
                SparseVector(
                    a.ncols,
                    np.empty(0, np.int64),
                    np.empty(0, dtype=products.dtype),
                ),
                row_nnzs,
            )
        order = stable_argsort_bounded(cols, a.ncols)
        sc = cols[order]
        is_first = np.empty(sc.size, dtype=bool)
        is_first[0] = True
        is_first[1:] = sc[1:] != sc[:-1]
        if is_first.all():
            # no duplicate columns: mirror the SPA's no-fold shortcut,
            # which stores the raw products without a reduceat round-trip
            vals = products[order]
        else:
            starts = np.flatnonzero(is_first)
            # boundary starts are strictly increasing and in range by
            # construction — the dense reduceat applies
            vals = semiring.add.reduceat_dense(products[order], starts).astype(
                products.dtype, copy=False
            )
            sc = sc[starts]
        return SparseVector(a.ncols, sc, vals), row_nnzs
    spa = SPA(a.ncols, dtype=products.dtype)
    spa.scatter(cols, products, monoid=semiring.add)
    nzinds = spa.nzinds
    sorted_inds = radix_sort(nzinds) if sort == "radix" else merge_sort(nzinds)
    return SparseVector(a.ncols, sorted_inds, spa.values[sorted_inds]), row_nnzs


def _local_multiplies(a, x, semiring, sort, mask, complement):
    """Steps 1-2 of every locale: ``(ly, row_nnzs)`` in grid order.

    The gathered slice ``lx`` is a pure function of the processor ROW
    (every locale of row ``i`` assembles the same parts shifted by the
    same ``rlo``), so it is built once per row and shared read-only.
    """
    grid, layout = a.grid, a.layout
    xb_bounds = x.dist.bounds
    slices = []
    for i in range(grid.rows):
        rlo, rhi = layout.row_blocks.extent(i)
        team = [t.id for t in grid.row_team(i)]
        slices.append(
            SparseVector(
                rhi - rlo,
                np.concatenate([x.blocks[t].indices + (xb_bounds[t] - rlo) for t in team]),
                np.concatenate([x.blocks[t].values for t in team]),
            )
        )
    kept = None if mask is None else np.asarray(mask, dtype=bool)
    return [
        _local_spmspv(
            a.block(loc.row, loc.col),
            slices[loc.row],
            semiring,
            sort,
            mask=None if kept is None else kept[slice(*layout.col_blocks.extent(loc.col))],
            complement=complement,
        )
        for loc in grid
    ]


def spmspv_dist(
    a: DistSparseMatrix,
    x: DistSparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    sort: str = "merge",
    gather_mode: str = "fine",
    scatter_mode: str = "fine",
    mask: np.ndarray | None = None,
    complement: bool = False,
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseVector, Breakdown]:
    """Listing 8: distributed SpMSpV on a 2-D block distribution.

    ``gather_mode`` / ``scatter_mode`` select ``"fine"`` (the paper's
    element-at-a-time implementation, whose communication dominates at
    scale — Figs 8-9), ``"bulk"`` (a one-shot allgather approximation of
    the §IV recommendation; compared in
    ``benchmarks/test_abl_bulk_scatter.py``), or ``"agg"`` (the
    destination-buffered exchange of :mod:`repro.runtime.aggregation`:
    coalescing flush buffers, two-hop row-then-column routing for the
    scatter, and comm/compute overlap — tuned by ``agg``; see
    ``docs/aggregation.md`` and ``benchmarks/test_abl_aggregation.py``).

    ``mask``/``complement`` implement the paper's §V future work —
    *distributed masks*: each locale applies its column-block slice of the
    dense Boolean mask during local accumulation, so masked-out entries are
    neither computed nor scattered (BFS's visited-pruning moves inside the
    kernel and the scatter volume drops accordingly).

    When ``machine.faults`` is set the kernel runs under that fault plan:
    transient gather faults are repaired by re-gathering the part from its
    owning locale, dropped/duplicated scatter puts are re-sent/de-duplicated
    at the owner, stragglers stretch their locale's local multiply — all
    charged to the ``Retries`` breakdown component, with the result still
    bit-identical to fault-free execution.  A failed locale (or an
    exhausted retry budget) raises
    :class:`~repro.runtime.faults.LocaleFailure` instead.

    One fold, one bill: :func:`_fold` computes the output and measures the
    :class:`SpmspvStats`; :class:`SpmspvBill` charges the chosen modes
    over them.  :meth:`~repro.ops.dispatch.Dispatcher.estimate_vxm_dist`
    evaluates the same bill on predicted statistics.
    """
    if mask is not None and np.asarray(mask).size != a.ncols:
        raise ValueError("mask length must equal the matrix column count")
    if x.capacity != a.nrows:
        raise ValueError("x capacity must equal the matrix row count")
    if x.grid is not a.grid and (x.grid.rows, x.grid.cols) != (a.grid.rows, a.grid.cols):
        raise ValueError("x and A must share the locale grid")
    for axis, mode in (("gather_mode", gather_mode), ("scatter_mode", scatter_mode)):
        if mode not in COMM_MODES:
            raise ValueError(f"unknown {axis} {mode!r}")
    faults = machine.faults
    if faults is not None:
        # an SPMD kernel needs every locale of the grid alive; a down
        # locale is an uncovered fault and fails the whole op up front
        faults.check_grid(a.grid, "spmspv_dist")
    # New pool epoch at op entry: last superstep's scratch (the traffic
    # matrix, the exchange's cost vectors) is recycled, so a steady-state
    # BFS/PageRank iteration allocates nothing here.
    default_pool.reset()
    # element-wise puts can drop/duplicate individually; the aggregated
    # exchange ships sequence-tagged batches, so its delivery is exact by
    # construction and its batch-level faults are billed by exchange()
    puts = faults if scatter_mode != "agg" else None
    y, stats = _fold(a, x, machine, semiring, sort, mask, complement, puts)
    bill = SpmspvBill(machine, stats, run=True).bill(gather_mode, scatter_mode, sort, agg)
    return y, machine.record("spmspv_dist", bill)


@dataclass(frozen=True)
class SpmspvStats:
    """The sparsity statistics a distributed SpMSpV bill reads, one entry
    per locale in id order.  The kernel's fold measures them; the
    dispatcher predicts them (``docs/dispatch.md`` says which are exact).
    """

    grid: LocaleGrid
    x_nnz: list
    """Stored entries of x's block on each locale: the gather parts."""
    rows: list
    """Each locale's local-multiply work items: the lengths of the rows it
    selects (the dispatcher predicts per-thread sums instead)."""
    out_nnz: list
    """Entries of each locale's local output."""
    ncols: list
    """Width of each locale's column block."""
    traffic: np.ndarray
    """``p×p`` int64: entries locale ``s`` scatters to owner ``d``."""
    merged: list
    """Entries of each owner's merged output block."""
    repairs: list | None = None
    """Per locale, the retry seconds of each element-wise put stream it
    sent under a fault plan, in send order; ``None`` when exact."""


def _fold(a, x, machine, semiring, sort, mask, complement, puts):
    """Listing 8's value plane — row-team gather, masked local multiplies,
    owner grouping, superstep merge — and the statistics it measured.

    ``puts`` is the fault injector the element-wise scatter puts travel
    through (``None``: exact delivery); what each repaired stream cost is
    measured into :attr:`SpmspvStats.repairs`.
    """
    grid = a.grid
    p = grid.size
    # The output index space is the matrix's COLUMN space — for
    # non-square matrices this differs from x's partition (over the rows).
    out_dist = GridBlock1D.for_grid(a.ncols, grid)
    owner_indices: list[list[np.ndarray]] = [[] for _ in range(p)]
    owner_values: list[list[np.ndarray]] = [[] for _ in range(p)]
    # fast path: keep every locale's full sorted batch and merge the whole
    # superstep with ONE global stable sort after the loop instead of one
    # sort per owner.  Faulty puts keep the per-owner loop — deliver_puts
    # must see each (src, dst) stream individually.
    global_merge = fastpath.enabled() and puts is None
    sent_idx: list[np.ndarray] = []
    sent_vals: list[np.ndarray] = []
    traffic = default_pool.take((p, p), np.int64)
    repairs = None if puts is None else [[] for _ in range(p)]
    if puts is not None:
        put_cost = fine_grained(
            machine.config, 1, threads=machine.threads_per_locale,
            concurrent_peers=grid.rows, local=machine.oversubscribed,
        )
    products = _local_multiplies(a, x, semiring, sort, mask, complement)
    for loc, (ly, _) in zip(grid, products):
        # ---- Step 3: scatter ly into the global output -------------------
        # element-wise puts to the owning locales; under fault injection
        # dropped puts are re-sent after an ack timeout and duplicated puts
        # de-duplicated at the owner by their sequence tag, so the merged
        # output stays bit-identical to fault-free execution
        gidx = ly.indices + a.layout.col_blocks.extent(loc.col)[0]
        owners = out_dist.owners(gidx) if gidx.size else np.empty(0, np.int64)
        # group the outgoing puts by owner in one vectorised pass (stable,
        # ascending owners — bit-compatible with the per-owner mask loop).
        # ly.indices is sorted and out_dist is contiguous, so owners is
        # already non-decreasing: the fast path skips the identity argsort.
        uniq, offsets, (gidx_s, vals_s) = group_by_owner(
            owners, gidx, ly.values, assume_sorted=fastpath.enabled()
        )
        if uniq.size:
            traffic[loc.id, uniq] = offsets[1:] - offsets[:-1]
        if global_merge:
            if gidx_s.size:
                sent_idx.append(gidx_s)
                sent_vals.append(vals_s)
            continue
        for k, o in enumerate(uniq.tolist()):
            idx_o = gidx_s[offsets[k] : offsets[k + 1]] - out_dist.bounds[o]
            val_o = vals_s[offsets[k] : offsets[k + 1]]
            if puts is not None and o != loc.id:
                idx_o, val_o, extra = puts.deliver_puts(
                    f"spmspv_dist.scatter[{loc.id}->{o}]", idx_o, val_o,
                    src=loc.id, dst=o, per_element_seconds=put_cost,
                )
                repairs[loc.id].append(extra)
            owner_indices[o].append(idx_o)
            owner_values[o].append(val_o)

    # merge partial outputs at their owners (the "global SPA" + denseToSparse)
    if global_merge:
        # see merge_superstep_batches for the bit-identity argument: the
        # owner is a function of the index, equal-index entries keep the
        # source-locale batch order, dedup segments never cross an owner
        # boundary, and each segment folds left-to-right with the same
        # monoid in the same dtype
        midx, mvals, cutpos = merge_superstep_batches(
            a.ncols, out_dist.bounds, sent_idx, sent_vals,
            combine=semiring.add.reduceat_dense, argsort=stable_argsort_bounded,
        )
    out_blocks: list[SparseVector] = []
    for k in range(p):
        cap = out_dist.size_of(k)
        if global_merge:
            lo, hi = int(cutpos[k]), int(cutpos[k + 1])
            idx, vals = midx[lo:hi] - out_dist.bounds[k], mvals[lo:hi]
            out_blocks.append(SparseVector(cap, idx, vals) if hi > lo else SparseVector.empty(cap))
        elif owner_indices[k]:
            idx = np.concatenate(owner_indices[k])
            vals = np.concatenate(owner_values[k])
            out_blocks.append(SparseVector.from_pairs(cap, idx, vals, dup=semiring.add))
        else:
            out_blocks.append(SparseVector.empty(cap))
    stats = SpmspvStats(
        grid=grid,
        x_nnz=[blk.nnz for blk in x.blocks],
        rows=[row_nnzs for _, row_nnzs in products],
        out_nnz=[ly.nnz for ly, _ in products],
        ncols=[a.layout.col_blocks.size_of(loc.col) for loc in grid],
        traffic=traffic,
        merged=[blk.nnz for blk in out_blocks],
        repairs=repairs,
    )
    return DistSparseVector(a.ncols, grid, out_blocks), stats


class SpmspvBill:
    """The bill of Listing 8 over :class:`SpmspvStats`, axis by axis.

    :meth:`gather`, :meth:`multiply` and :meth:`scatter` charge one
    component each for one mode; :meth:`bill` assembles the kernel's
    Breakdown from them.  With ``run=True`` it is the executing kernel's
    bill: parts move through the metered transports under the machine's
    fault plan, straggler factors stretch the local multiplies, and each
    locale's multiply seconds go to ``tasks.compute.seconds`` (call
    :meth:`bill` once).  Otherwise it is pure — fault-free and
    unmetered: the dispatcher's estimate.
    """

    def __init__(self, machine: Machine, stats: SpmspvStats, *, run: bool = False) -> None:
        self.machine = machine
        self.cfg = cfg = machine.config
        self.stats = stats
        self.threads = threads = machine.threads_per_locale
        self.local = machine.oversubscribed
        self.faults = machine.faults if run else None
        self._run = run
        self.spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
        # each owner compacts its dense SPA slice back to sparse
        self.finalize = max(
            parallel_time(cfg, n * cfg.element_cost * machine.compute_penalty, threads)
            for n in stats.merged
        )
        # every locale's row team: the remote parts' owners and sizes
        pc = stats.grid.cols
        self.teams = []
        for k in range(stats.grid.size):
            srcs = [t for t in range(k - k % pc, k - k % pc + pc) if t != k]
            self.teams.append((srcs, [stats.x_nnz[t] for t in srcs]))

    def gather(
        self, mode: str, agg: AggregationConfig = AGG_DEFAULT
    ) -> tuple[float, list[float]]:
        """``Gather Input`` over ``mode``, and each locale's retry seconds."""
        cfg, local, faults, run = self.cfg, self.local, self.faults, self._run
        pc, site = self.stats.grid.cols, "spmspv_dist.gather"
        seconds, retries = [], []
        for k, (srcs, parts) in enumerate(self.teams):
            # Listing 8 copies the locale's OWN part into lxDom too — a local
            # memcpy that gives the 1-node gather its (small) measured cost
            gt = bulk(cfg, self.stats.x_nnz[k] * _ITEMSIZE, local=True)
            base, retry = 0.0, 0.0
            if mode == "bulk":
                for size, src in zip(parts, srcs):
                    if not run:
                        gt += bulk(cfg, size * _ITEMSIZE, local=local)
                        continue
                    part, extra = bulk_ft(
                        cfg, size * _ITEMSIZE, faults=faults, site=f"{site}.bulk[{src}->{k}]",
                        src=src, dst=k, local=local,
                    )
                    gt += part
                    retry += extra
            elif mode == "fine" and run:
                base, retry = gather_parts_ft(
                    cfg, parts, srcs, faults=faults, site=site, dst=k,
                    threads=self.threads, concurrent_peers=pc, local=local,
                )
            elif mode == "fine":
                base = gather_parts_fine(
                    cfg, parts, threads=self.threads, concurrent_peers=pc, local=local
                )
            elif run:
                # flush-batched streams from the row team: one buffer setup
                # for the whole team, batch-granular retries
                base, retry = gather_agg_ft(
                    cfg, parts, srcs, faults=faults, site=site, dst=k, agg=agg, local=local
                )
            else:
                base = gather_agg(cfg, parts, agg=agg, local=local)
            seconds.append(gt + base)
            retries.append(retry)
        return self.spawn + max(seconds), retries

    def multiply(self, sort: str) -> list[float]:
        """Each locale's ``Local Multiply`` seconds under ``sort``."""
        s = self.stats
        out = []
        for k, (rows, nnz, width) in enumerate(zip(s.rows, s.out_nnz, s.ncols)):
            sec = spmspv_shm_cost(
                self.machine, row_nnzs=rows, out_nnz=nnz, ncols=width, sort=sort
            ).total
            if self._run:
                sec = local_time_ft(
                    sec, faults=self.faults, locale=k, site="spmspv_dist.multiply"
                )
            out.append(sec)
        return out

    def scatter(
        self, mode: str, multiply: list[float], agg: AggregationConfig = AGG_DEFAULT
    ) -> tuple[float, np.ndarray | None]:
        """``Scatter output`` over ``mode`` given each locale's
        :meth:`multiply` seconds (the aggregated exchange streams behind
        them), and the exchange's per-locale retry seconds (``None`` for
        the element-wise modes)."""
        cfg, local, threads = self.cfg, self.local, self.threads
        grid, traffic = self.stats.grid, self.stats.traffic
        pr = grid.rows
        remote = (traffic.sum(axis=1) - traffic.diagonal()).tolist()
        retries = None
        if mode == "fine":
            seconds = [
                fine_grained(cfg, n, threads=threads, concurrent_peers=pr, local=local)
                for n in remote
            ]
        elif mode == "bulk":
            seconds = [bulk_scatter_cost(cfg, pr, n, _ITEMSIZE) for n in remote]
        else:
            # two-hop destination-buffered exchange over the whole grid; each
            # locale's transfer streams behind its local multiply, so only
            # the exposed share (plus the pipeline-fill flush) hits the
            # makespan
            if self._run:
                ex = exchange(
                    cfg, grid, traffic, agg=agg, local=local, faults=self.faults,
                    site="spmspv_dist.scatter",
                )
            else:
                ex = exchange_cost(cfg, grid, traffic, agg=agg, local=local)
            seconds = ex.send_seconds.tolist()
            if agg.overlap:
                for k, comm in enumerate(seconds):
                    if comm > 0.0:
                        startup = flush_startup(cfg, remote[k], agg=agg, local=local)
                        seconds[k] = overlap_exposed(comm, multiply[k], startup)
            retries = ex.retry_seconds
        return max(seconds) + self.finalize, retries

    def bill(
        self,
        gather_mode: str,
        scatter_mode: str,
        sort: str,
        agg: AggregationConfig = AGG_DEFAULT,
    ) -> Breakdown:
        """The kernel's Breakdown for one (gather, scatter, sort) choice:
        per component the max over locales; under a fault plan each
        locale's gather, put and exchange repairs add up to ``Retries``."""
        gather, retries = self.gather(gather_mode, agg)
        multiply = self.multiply(sort)
        scatter, exchanged = self.scatter(scatter_mode, multiply, agg)
        total = Breakdown(
            {GATHER_STEP: gather, MULTIPLY_STEP: max(multiply), SCATTER_STEP: scatter}
        )
        if self.faults is None:
            return total
        for k, extras in enumerate(self.stats.repairs or ()):
            for extra in extras:
                retries[k] += extra
        if exchanged is not None:
            retries = [r + float(e) for r, e in zip(retries, exchanged)]
        # robustness overhead is an explicit component (possibly 0.0), so
        # fault-free runs keep byte-identical breakdowns while fault runs
        # surface their retry bill next to the paper's components
        return total + Breakdown({RETRY_STEP: max(retries)})


def spmspv_dist_1d(
    a: DistSparseMatrix1D,
    x: DistSparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    sort: str = "merge",
) -> tuple[DistSparseVector, Breakdown]:
    """SpMSpV on a 1-D row distribution — the 1-D vs 2-D ablation baseline.

    With whole rows per locale the needed slice of ``x`` is locale-local
    (no gather), but every locale produces a *full-width* partial output
    that must be reduced across **all** p locales — a reduce-scatter over
    the entire output index space, which is what makes 1-D lose at scale
    (paper §II-B).
    """
    if x.capacity != a.nrows:
        raise ValueError("x capacity must equal the matrix row count")
    cfg = machine.config
    grid = a.grid
    p = grid.size
    threads = machine.threads_per_locale
    row_dist = a.row_dist
    if not np.array_equal(x.dist.bounds, row_dist.bounds):
        raise ValueError(
            "x blocks must align with the 1-D row bands; distribute x on a "
            "1-row locale grid (LocaleGrid(1, p))"
        )
    spawn = coforall_spawn(cfg, p, machine.locales_per_node)

    multiply_bs: list[Breakdown] = []
    partials: list[SparseVector] = []
    for k in range(p):
        # x's block k covers exactly the row band of locale k only when the
        # two Block1D partitions agree — they do by construction.
        lx = x.blocks[k]
        ly, row_nnzs = _local_spmspv(a.blocks[k], lx, semiring, sort)
        partials.append(ly)
        mb = spmspv_shm_cost(
            machine, row_nnzs=row_nnzs, out_nnz=ly.nnz, ncols=a.ncols, sort=sort
        )
        multiply_bs.append(Breakdown({MULTIPLY_STEP: mb.total}))

    # reduce partial full-width outputs, then scatter blocks to owners.
    # The reduce-scatter moves every partial's stored entries, so its volume
    # is the TOTAL partial nnz — a mean over partials (empty ones included)
    # collapsed under skew, undercharging exactly the imbalanced inputs the
    # 1-D ablation exists to expose.
    itemsize = 16
    total_partial = int(sum(ly.nnz for ly in partials))
    scatter = Breakdown(
        {SCATTER_STEP: reduce_scatter(cfg, p, max(total_partial, 1) * itemsize)}
    )
    idx = np.concatenate([ly.indices for ly in partials])
    vals = np.concatenate([ly.values for ly in partials])
    merged = SparseVector.from_pairs(a.ncols, idx, vals, dup=semiring.add)
    y = DistSparseVector.from_global(merged, grid)
    total = (
        Breakdown({MULTIPLY_STEP: spawn})
        + Breakdown.parallel(multiply_bs)
        + scatter
    )
    return y, machine.record("spmspv_dist_1d", total)
