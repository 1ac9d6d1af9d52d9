"""Distributed elementwise union/intersection of sparse vectors.

Completes the distributed operation matrix: the paper's eWiseMult covers
the sparse × dense case (:func:`repro.ops.ewise.ewisemult_dist`); these are
the sparse × sparse union (eWiseAdd) and intersection (eWiseMult) on the
2-D grid — blockwise SPMD compute, with mismatched distributions repaired
up front by :func:`redistribute` through the aggregation exchange layer
(``docs/aggregation.md``) instead of rejected.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import BinaryOp, TIMES
from ..algebra.monoid import Monoid, PLUS_MONOID
from ..distributed.block import GridBlock1D
from ..distributed.dist_vector import DistSparseVector
from ..runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    default_pool,
    flush_cost,
    group_by_owner,
    num_flushes,
)
from ..runtime.clock import Breakdown
from ..runtime.comm import fine_grained
from ..runtime.faults import RETRY_STEP
from ..runtime.locale import LocaleGrid, Machine
from ..runtime.tasks import coforall_spawn, local_time_ft, parallel_time
from ..sparse.vector import SparseVector
from .ewise import ewiseadd_vv, ewisemult_vv

__all__ = ["ewiseadd_dist_vv", "ewisemult_dist_vv", "redistribute"]


def redistribute(
    v: DistSparseVector,
    grid: LocaleGrid,
    machine: Machine,
    *,
    mode: str = "agg",
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseVector, Breakdown]:
    """Move a distributed sparse vector onto another locale grid.

    Every element whose owner changes is shipped directly to its new
    locale — ``mode="agg"`` through per-destination coalescing flush
    buffers (direct routing: the traffic pattern is a personalized
    all-to-all between *different* partitions, so there is no grid to
    route two-hop over), ``mode="fine"`` as the paper-style element-wise
    puts.  Locales are identified by id across the two grids, so entries
    whose owner id is unchanged move with a free local copy.

    Under fault injection, aggregated batches retry whole
    (sequence-tagged) batches and fine puts repair drop/duplicate per
    element — the result is bit-identical either way.
    """
    if mode not in ("agg", "fine"):
        raise ValueError(f"unknown redistribute mode {mode!r}")
    if (v.grid.rows, v.grid.cols) == (grid.rows, grid.cols):
        return v, Breakdown({"redistribute": 0.0})
    cfg = machine.config
    threads = machine.threads_per_locale
    local = machine.oversubscribed
    faults = machine.faults
    if faults is not None:
        faults.check_grid(grid, "redistribute")
        v.require_available(faults)
    # new pool epoch: scratch taken by the previous op (possibly on a
    # different grid shape) is recycled rather than leaked
    default_pool.reset()
    tgt_dist = GridBlock1D.for_grid(v.capacity, grid)
    src_bounds = v.dist.bounds
    owner_idx: list[list[np.ndarray]] = [[] for _ in range(grid.size)]
    owner_val: list[list[np.ndarray]] = [[] for _ in range(grid.size)]
    per_src: list[Breakdown] = []
    retry_bs: list[Breakdown] = []
    put_cost = fine_grained(
        cfg, 1, threads=threads, concurrent_peers=grid.size, local=local
    )
    for k, blk in enumerate(v.blocks):
        gidx = blk.indices + src_bounds[k]
        owners = tgt_dist.owners(gidx) if gidx.size else np.empty(0, np.int64)
        uniq, offsets, (g_s, v_s) = group_by_owner(owners, gidx, blk.values)
        send = 0.0
        retry = 0.0
        for t, o in enumerate(uniq):
            o = int(o)
            idx_o = g_s[offsets[t] : offsets[t + 1]] - tgt_dist.bounds[o]
            val_o = v_s[offsets[t] : offsets[t + 1]]
            n = idx_o.size
            if o != k:
                if mode == "agg":
                    cost = flush_cost(cfg, n, agg=agg, local=local)
                    if faults is not None:
                        batches = num_flushes(n, agg.flush_elems)
                        base, extra = faults.batched_transfer(
                            f"redistribute.agg[{k}->{o}]",
                            batches,
                            cost / batches,
                            src=k,
                            dst=o,
                        )
                        send += base
                        retry += extra
                    else:
                        send += cost
                else:
                    send += fine_grained(
                        cfg,
                        n,
                        threads=threads,
                        concurrent_peers=grid.size,
                        local=local,
                    )
                    if faults is not None:
                        idx_o, val_o, extra = faults.deliver_puts(
                            f"redistribute.fine[{k}->{o}]",
                            idx_o,
                            val_o,
                            src=k,
                            dst=o,
                            per_element_seconds=put_cost,
                        )
                        retry += extra
            owner_idx[o].append(idx_o)
            owner_val[o].append(val_o)
        per_src.append(Breakdown({"redistribute": send}))
        retry_bs.append(Breakdown({RETRY_STEP: retry}))
    blocks: list[SparseVector] = []
    finalize: list[Breakdown] = []
    for o in range(grid.size):
        cap = tgt_dist.size_of(o)
        if owner_idx[o]:
            idx = np.concatenate(owner_idx[o])
            vals = np.concatenate(owner_val[o])
            order = np.argsort(idx, kind="stable")
            blocks.append(SparseVector(cap, idx[order], vals[order]))
        else:
            blocks.append(SparseVector.empty(cap))
        finalize.append(
            Breakdown(
                {
                    "redistribute": parallel_time(
                        cfg,
                        blocks[-1].nnz
                        * cfg.stream_cost
                        * machine.compute_penalty,
                        threads,
                    )
                }
            )
        )
    out = DistSparseVector(v.capacity, grid, blocks)
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    b = (
        Breakdown({"redistribute": spawn})
        + Breakdown.parallel(per_src)
        + Breakdown.parallel(finalize)
    )
    if faults is not None:
        b = b + Breakdown.parallel(retry_bs)
    return out, machine.record("redistribute", b)


def _blockwise(
    x: DistSparseVector,
    y: DistSparseVector,
    machine: Machine,
    kernel,
    op,
    label: str,
    *,
    redistribute_mode: str = "agg",
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseVector, Breakdown]:
    if x.capacity != y.capacity:
        raise ValueError("operands must share capacity")
    pre = Breakdown({label: 0.0})
    if (x.grid.rows, x.grid.cols) != (y.grid.rows, y.grid.cols):
        # mismatched distributions are repaired, not rejected: move y onto
        # x's grid through the aggregation exchange (or fine-grained puts)
        y, rb = redistribute(
            y, x.grid, machine, mode=redistribute_mode, agg=agg
        )
        pre = pre + rb
    cfg = machine.config
    faults = machine.faults
    if faults is not None:
        faults.check_grid(x.grid, label)
    blocks = [kernel(xb, yb, op) for xb, yb in zip(x.blocks, y.blocks)]
    per_locale = []
    for k, (xb, yb) in enumerate(zip(x.blocks, y.blocks)):
        work = (xb.nnz + yb.nnz) * cfg.stream_cost * machine.compute_penalty
        seconds = local_time_ft(
            parallel_time(cfg, work, machine.threads_per_locale),
            faults=faults,
            locale=k,
            site=label,
        )
        per_locale.append(Breakdown({label: seconds}))
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    out = DistSparseVector(x.capacity, x.grid, blocks)
    b = Breakdown({label: spawn}) + Breakdown.parallel(per_locale)
    return out, pre + machine.record(label, b)


def ewiseadd_dist_vv(
    x: DistSparseVector,
    y: DistSparseVector,
    machine: Machine,
    op: BinaryOp | Monoid = PLUS_MONOID,
    *,
    redistribute_mode: str = "agg",
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseVector, Breakdown]:
    """Distributed union merge: entries of either operand, overlaps
    combined by ``op``.  A distribution mismatch redistributes ``y`` onto
    ``x``'s grid first (``redistribute_mode``: ``"agg"`` or ``"fine"``)."""
    return _blockwise(
        x,
        y,
        machine,
        ewiseadd_vv,
        op,
        "ewiseadd_dist",
        redistribute_mode=redistribute_mode,
        agg=agg,
    )


def ewisemult_dist_vv(
    x: DistSparseVector,
    y: DistSparseVector,
    machine: Machine,
    op: BinaryOp = TIMES,
    *,
    redistribute_mode: str = "agg",
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseVector, Breakdown]:
    """Distributed intersection merge; mismatched distributions are
    redistributed like :func:`ewiseadd_dist_vv`."""
    return _blockwise(
        x,
        y,
        machine,
        ewisemult_vv,
        op,
        "ewisemult_dist_vv",
        redistribute_mode=redistribute_mode,
        agg=agg,
    )
