"""Assign — copy one sparse array into another (paper §III-B).

The paper implements the restricted GraphBLAS Assign where source and
destination share the same domain distribution: "we implement a restrictive
version of Assign that requires the domains of A and B to match.  The
computation complexity of this simplified Assign is O(nnz(A)) and it does
not require any communication."

* :func:`assign1` — Listing 4: clear the destination domain, add the source
  domain, then ``forall i in DA do A[i] = B[i]``.  Because zipper iteration
  over two sparse arrays is unimplemented, each ``A[i]``/``B[i]`` access is
  an index lookup costing O(log nnz) — the order-of-magnitude single-node
  gap in Fig 2 left — and in distributed memory each lookup is fine-grained
  communication (Fig 2 right).
* :func:`assign2` — Listing 5: SPMD; per locale, copy the local domain
  (``mySparseBlock += …``) then zip the *dense* backing arrays of the local
  blocks, which Chapel does support.

Both mutate the destination in place and return the simulated
:class:`~repro.runtime.clock.Breakdown`.
"""

from __future__ import annotations

import math

import numpy as np

from ..distributed.dist_matrix import DistSparseMatrix
from ..distributed.dist_vector import DistSparseVector
from ..runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    flush_cost,
    flush_startup,
    num_flushes,
    overlap_exposed,
)
from ..runtime.clock import Breakdown
from ..runtime.comm import fine_grained
from ..runtime.faults import RETRY_STEP
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, parallel_time
from ..sparse.vector import SparseVector

__all__ = [
    "assign_shm1",
    "assign_shm2",
    "assign1",
    "assign2",
    "assign_agg",
    "assign_agg_bill",
    "assign1_cost",
    "assign2_cost",
    "assign_agg_cost",
]


def _copy_into(dst, src) -> None:
    """Replace dst's domain and values with copies of src's.

    Handles both local block kinds: :class:`SparseVector`
    (indices+values) and CSR matrix blocks.
    """
    if isinstance(dst, SparseVector):
        if dst.capacity != src.capacity:
            raise ValueError(
                f"assign requires matching capacities ({dst.capacity} != {src.capacity})"
            )
        dst.indices = src.indices.copy()
        dst.values = src.values.copy()
    else:  # CSR matrix block
        if dst.shape != src.shape:
            raise ValueError(
                f"assign requires matching shapes ({dst.shape} != {src.shape})"
            )
        dst.rowptr = src.rowptr.copy()
        dst.colidx = src.colidx.copy()
        dst.values = src.values.copy()


def _log_nnz(nnz: int) -> float:
    return math.log2(nnz) if nnz > 1 else 1.0


def assign_shm1(dst: SparseVector, src: SparseVector, machine: Machine) -> Breakdown:
    """Single-locale Assign1: domain rebuild + per-index binary-search copy.

    The per-element cost is ``search_cost * log2(nnz)`` *twice* (a lookup in
    the source and one in the freshly rebuilt destination) — this is what
    makes Assign1 an order of magnitude slower than Assign2 on one node
    (Fig 2 left).
    """
    _copy_into(dst, src)
    cfg = machine.config
    nnz = src.nnz
    pen = machine.compute_penalty
    # rebuilding the domain: clear + sorted insert of nnz indices
    domain = parallel_time(
        cfg, nnz * cfg.element_cost * pen, machine.threads_per_locale
    )
    per_elem = 2.0 * cfg.search_cost * _log_nnz(nnz) + cfg.stream_cost
    arr = parallel_time(cfg, nnz * per_elem * pen, machine.threads_per_locale)
    return machine.record("assign_shm1", Breakdown({"assign": domain + arr}))


def assign_shm2(dst: SparseVector, src: SparseVector, machine: Machine) -> Breakdown:
    """Single-locale Assign2: domain bulk-copy + zippered dense copy."""
    _copy_into(dst, src)
    cfg = machine.config
    nnz = src.nnz
    pen = machine.compute_penalty
    domain = parallel_time(
        cfg, nnz * cfg.stream_cost * pen, machine.threads_per_locale
    )
    arr = parallel_time(cfg, nnz * cfg.stream_cost * pen, machine.threads_per_locale)
    return machine.record("assign_shm2", Breakdown({"assign": domain + arr}))


def assign1_cost(machine: Machine, nnz_per_locale: np.ndarray) -> Breakdown:
    """Simulated Assign1 on a distributed vector.

    The forall over the destination domain runs on the initiating locale;
    every element of a remote block costs a fine-grained get (source
    lookup) and put (destination write), each preceded by a log-time index
    search on the owning side.
    """
    cfg = machine.config
    nnz_per_locale = np.asarray(nnz_per_locale, dtype=np.int64)
    total = int(nnz_per_locale.sum())
    local_nnz = int(nnz_per_locale[0]) if nnz_per_locale.size else 0
    remote_nnz = total - local_nnz
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    search = 2.0 * cfg.search_cost * _log_nnz(total)
    compute = parallel_time(cfg, total * (search + cfg.element_cost) * pen, threads)
    comm = fine_grained(
        cfg, 2 * remote_nnz, threads=threads, local=machine.oversubscribed
    )
    return Breakdown({"assign": compute + comm})


def assign1(
    dst: DistSparseVector | DistSparseMatrix,
    src: DistSparseVector | DistSparseMatrix,
    machine: Machine,
) -> Breakdown:
    """Listing 4 on a block-distributed vector or matrix (fine-grained, slow)."""
    for d, s in zip(dst.blocks, src.blocks):
        _copy_into(d, s)
    return machine.record("assign1", assign1_cost(machine, src.nnz_per_locale()))


def assign_agg_cost(
    machine: Machine,
    nnz_per_locale: np.ndarray,
    *,
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[Breakdown, float]:
    """Simulated cost of :func:`assign_agg` and its un-overlapped comm time.

    Listing 4's driver-initiated copy, with each remote block moved as two
    coalesced flush streams (source get, destination put) instead of
    ``2·nnz`` fine-grained round trips.  The per-element log-time domain
    searches still happen — they are compute at the owners, and the streams
    overlap them.
    """
    cfg = machine.config
    nnz_per_locale = np.asarray(nnz_per_locale, dtype=np.int64)
    total = int(nnz_per_locale.sum())
    remote = nnz_per_locale[1:]
    remote_nnz = int(remote.sum())
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    search = 2.0 * cfg.search_cost * _log_nnz(total)
    compute = parallel_time(cfg, total * (search + cfg.element_cost) * pen, threads)
    oversub = machine.oversubscribed
    comm = 2.0 * sum(
        flush_cost(cfg, int(n), agg=agg, local=oversub) for n in remote if n
    )
    exposed = comm
    if agg.overlap and comm > 0.0:
        exposed = overlap_exposed(
            comm,
            compute,
            flush_startup(cfg, remote_nnz, agg=agg, local=oversub),
        )
    return Breakdown({"assign": compute + exposed}), comm


def assign_agg_bill(
    machine: Machine,
    nnz_per_locale: np.ndarray,
    *,
    agg: AggregationConfig = AGG_DEFAULT,
) -> Breakdown:
    """The bill of moving ``nnz_per_locale`` entries between locale 0 and
    their owners as aggregated streams.

    :func:`assign_agg_cost`, plus — under fault injection — every remote
    block's get and put legs, each a sequence of flush batches that retry
    whole (sequence-tagged): their overhead lands in ``Retries``, and the
    extra goodput of a leg with a straggler endpoint lands in ``assign``
    (zero, bit for bit, on a leg without one).  Shared by
    :func:`assign_agg` and the distributed ``apply_updates``, which bills
    its delta's delivery with it.
    """
    b, _ = assign_agg_cost(machine, nnz_per_locale, agg=agg)
    faults = machine.faults
    if faults is None:
        return b
    cfg = machine.config
    stretch = 0.0
    retry = 0.0
    for k, n in enumerate(nnz_per_locale):
        n = int(n)
        if k == 0 or n == 0:
            continue
        cost = flush_cost(cfg, n, agg=agg, local=machine.oversubscribed)
        batches = num_flushes(n, agg.flush_elems)
        per_batch = cost / batches
        for leg, src_id, dst_id in (("get", k, 0), ("put", 0, k)):
            goodput, extra = faults.batched_transfer(
                f"assign_agg.{leg}[{src_id}->{dst_id}]",
                batches,
                per_batch,
                src=src_id,
                dst=dst_id,
            )
            stretch += goodput - batches * per_batch
            retry += extra
    return b + Breakdown({"assign": stretch, RETRY_STEP: retry})


def assign_agg(
    dst: DistSparseVector | DistSparseMatrix,
    src: DistSparseVector | DistSparseMatrix,
    machine: Machine,
    *,
    agg: AggregationConfig = AGG_DEFAULT,
) -> Breakdown:
    """Listing 4 semantics with aggregated remote access.

    Same result as :func:`assign1`; remote blocks travel as flush-batched
    streams overlapped with the domain searches, billed by
    :func:`assign_agg_bill` over the source's per-locale nnz."""
    if machine.faults is not None:
        machine.faults.check_grid(dst.grid, "assign_agg")
    for d, s in zip(dst.blocks, src.blocks):
        _copy_into(d, s)
    return machine.record(
        "assign_agg", assign_agg_bill(machine, src.nnz_per_locale(), agg=agg)
    )


def assign2_cost(machine: Machine, nnz_per_locale: np.ndarray) -> Breakdown:
    """Simulated Assign2: coforall spawn + slowest local domain+array copy."""
    cfg = machine.config
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    pen = machine.compute_penalty
    slowest = max(
        (
            parallel_time(
                cfg, 2.0 * int(nnz) * cfg.stream_cost * pen, machine.threads_per_locale
            )
            for nnz in np.asarray(nnz_per_locale, dtype=np.int64)
        ),
        default=0.0,
    )
    # "update global nnz of DA": a small all-to-one reduction
    nnz_update = (machine.num_locales - 1) * cfg.alpha
    return Breakdown({"assign": spawn + slowest + nnz_update})


def assign2(
    dst: DistSparseVector | DistSparseMatrix,
    src: DistSparseVector | DistSparseMatrix,
    machine: Machine,
) -> Breakdown:
    """Listing 5 on a block-distributed vector or matrix (SPMD, scalable)."""
    for d, s in zip(dst.blocks, src.blocks):
        _copy_into(d, s)
    return machine.record("assign2", assign2_cost(machine, src.nnz_per_locale()))
