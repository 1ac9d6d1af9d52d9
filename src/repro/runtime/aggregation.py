"""Message-aggregation exchange layer: buffers, two-hop routing, overlap.

The paper's §IV findings — reproduced in Figs 8-9 — show the distributed
SpMSpV drowning in fine-grained element-at-a-time communication: every
remote put pays ``remote_latency`` and the congestion of all its peers.
CombBLAS 2.0 (Azad et al.) and Buluç & Gilbert's 2-D SpGEMM work show the
exchange algorithm that scales, which this module provides as three
composable pieces:

* **Per-destination coalescing buffers** — element-wise puts are packed
  into destination buffers and flushed as ``alpha + bytes/beta`` bulk
  transfers once :attr:`AggregationConfig.flush_elems` elements accumulate
  (:func:`flush_cost`).  A million one-element messages become a few
  hundred bulk ones.
* **Two-hop grid routing** (:func:`exchange`) — a locale ``(i, j)`` with
  traffic for arbitrary grid cells first coalesces everything destined for
  grid *column* ``j'`` into one buffered stream to its row-mate
  ``(i, j')``; the row-mate merges its whole row's traffic and forwards one
  stream per destination *row*.  Each locale therefore sends
  ``O(pr + pc)`` messages per exchange instead of ``O(p)`` — the
  "bulk-synchronous communication of sparse arrays" the paper recommends,
  done the CombBLAS way.
* **Comm/compute overlap** (:func:`overlap_exposed`) — buffers stream
  while the local multiply runs, so a software-pipelined step's makespan
  is ``max(compute, comm) + startup`` rather than ``compute + comm``;
  only the *exposed* communication extends the critical path.

Fault tolerance composes at batch granularity: every flush carries a
``(source, sequence)`` tag, so a dropped batch is re-sent verbatim and a
duplicated one discarded at the receiver — delivery is idempotent and the
payload always reconstructs exactly.  Retry overhead is charged through
:meth:`~repro.runtime.faults.FaultInjector.batched_transfer` to the
``Retries`` breakdown component, never to the data.

:func:`group_by_owner` is the *real* (wall-clock) half of the layer: the
argsort-based group-by that replaces per-owner boolean scans in the
kernels' scatter paths, turning an ``O(nnz · p)`` Python loop into one
``O(nnz log nnz)`` vectorised pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fastpath
from .config import MachineConfig
from .faults import FaultInjector
from .locale import LocaleGrid
from .telemetry import registry as _metrics

__all__ = [
    "AggregationConfig",
    "AGG_DEFAULT",
    "BufferPool",
    "PoolStats",
    "default_pool",
    "ceil_div",
    "group_by_owner",
    "merge_superstep_batches",
    "num_flushes",
    "flush_cost",
    "flush_startup",
    "gather_agg",
    "gather_agg_ft",
    "ExchangeCost",
    "exchange",
    "exchange_cost",
    "overlap_exposed",
    "split_exposed",
]


def ceil_div(a: int, b: int) -> int:
    """``ceil(a / b)`` for non-negative ints without floats."""
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


@dataclass(frozen=True)
class AggregationConfig:
    """Tunables of the aggregation layer.

    Parameters
    ----------
    flush_elems:
        Destination-buffer flush threshold, in elements.  Smaller values
        start the pipeline sooner (lower startup latency) but pay more
        ``alpha`` per byte; larger ones amortise ``alpha`` better.
    itemsize:
        Bytes per transferred element — 16 for the kernels' (int64 index,
        float64 value) pairs.
    routing:
        ``"twohop"`` (row-then-column over the grid, O(pr + pc) messages
        per locale) or ``"direct"`` (one buffered stream per active
        destination, O(active destinations)).
    overlap:
        Whether transfers software-pipeline behind local compute
        (:func:`overlap_exposed`); disable to measure raw exchange cost.
    """

    flush_elems: int = 4096
    itemsize: int = 16
    routing: str = "twohop"
    overlap: bool = True

    def __post_init__(self) -> None:
        if self.flush_elems < 1:
            raise ValueError("flush_elems must be >= 1")
        if self.itemsize < 1:
            raise ValueError("itemsize must be >= 1")
        if self.routing not in ("twohop", "direct"):
            raise ValueError(f"unknown routing {self.routing!r}")

    def with_(self, **kw) -> "AggregationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


#: The default aggregation tuning used by every ``"agg"`` kernel mode.
AGG_DEFAULT = AggregationConfig()


# ---------------------------------------------------------------------------
# buffer pool (epoch/arena recycling of exchange scratch arrays)
# ---------------------------------------------------------------------------


@dataclass
class PoolStats:
    """Wall-clock telemetry of a :class:`BufferPool`.

    ``hits``/``misses`` count :meth:`BufferPool.take` calls served from the
    free lists vs freshly allocated; ``live`` is the number of arrays handed
    out this epoch; ``pooled`` the number parked on the free lists.
    """

    hits: int = 0
    misses: int = 0
    live: int = 0
    pooled: int = 0


class BufferPool:
    """Epoch/arena recycler for the exchange layer's numpy scratch arrays.

    The distributed kernels allocate the same small dense arrays every
    superstep — the ``(p, p)`` traffic matrices and per-locale cost vectors
    of :func:`exchange` — which at ~50× interpreter overhead is real wall
    time.  The pool turns steady-state supersteps into zero-allocation
    ones:

    * :meth:`take` hands out an array of the requested shape/dtype, reusing
      a free one when available (zeroed on request);
    * :meth:`reset` *starts a new epoch*: every array handed out since the
      previous reset goes back on the free lists.  Callers invoke it at
      **operation entry** (``spmspv_dist``, ``redistribute``), never
      mid-operation, so everything taken during one op — including the
      arrays an :class:`ExchangeCost` still references — stays valid until
      the next op begins.

    Arrays obtained from the pool are therefore valid until the next epoch
    only; copy anything that must outlive the operation.  With
    :mod:`repro.runtime.fastpath` disabled, :meth:`take` degrades to plain
    allocation and the pool stays empty — reference runs are pool-free by
    construction.  Free lists are capped per (shape, dtype) so a one-off
    grid size can never pin memory forever.
    """

    #: free-list retention cap per (shape, dtype) key
    MAX_PER_KEY = 16

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._live: list[np.ndarray] = []
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(shape, dtype) -> tuple:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        return shape, np.dtype(dtype).str

    def _allocate(self, shape, dtype) -> np.ndarray:
        """The single allocation seam — the counting-allocator tests patch
        this to prove steady-state supersteps allocate nothing."""
        return np.empty(shape, dtype=dtype)

    def take(self, shape, dtype=np.float64, *, zero: bool = True) -> np.ndarray:
        """Return an array of ``shape``/``dtype``, recycled when possible.

        ``zero=True`` (the default) guarantees the array reads as
        ``np.zeros`` would; recycled arrays are re-zeroed in one C fill.
        The array belongs to the current epoch — see :meth:`reset`.
        """
        key = self._key(shape, dtype)
        if not fastpath.enabled():
            arr = self._allocate(key[0], dtype)
            if zero:
                arr.fill(0)
            return arr
        bucket = self._free.get(key)
        if bucket:
            arr = bucket.pop()
            self.hits += 1
        else:
            arr = self._allocate(key[0], dtype)
            self.misses += 1
        if zero:
            arr.fill(0)
        self._live.append(arr)
        return arr

    def reset(self) -> None:
        """Start a new epoch: recycle every array handed out since the last
        one.  Called at operation entry only — never between a ``take`` and
        the last read of that array."""
        for arr in self._live:
            bucket = self._free.setdefault(self._key(arr.shape, arr.dtype), [])
            if len(bucket) < self.MAX_PER_KEY:
                bucket.append(arr)
        self._live.clear()

    def clear(self) -> None:
        """Drop every pooled and live array (test isolation / grid churn)."""
        self._free.clear()
        self._live.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> PoolStats:
        """Snapshot of hit/miss counters and current occupancy."""
        return PoolStats(
            hits=self.hits,
            misses=self.misses,
            live=len(self._live),
            pooled=sum(len(b) for b in self._free.values()),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        s = self.stats()
        return (
            f"BufferPool(hits={s.hits}, misses={s.misses}, "
            f"live={s.live}, pooled={s.pooled})"
        )


#: The process-wide pool used by the exchange layer and the dist kernels.
default_pool = BufferPool()


# ---------------------------------------------------------------------------
# vectorised group-by (the wall-clock hot path)
# ---------------------------------------------------------------------------


def group_by_owner(
    owners: np.ndarray, *payloads: np.ndarray, assume_sorted: bool = False
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Group payload arrays by their owner locale in one vectorised pass.

    Returns ``(unique_owners, offsets, permuted_payloads)``: group ``k``
    (owner ``unique_owners[k]``) occupies rows
    ``offsets[k]:offsets[k+1]`` of every permuted payload.  The sort is
    stable, so elements keep their original relative order within each
    group — bit-compatible with the per-owner boolean-mask loop it
    replaces, at ``O(n log n)`` instead of ``O(n · p)``.

    ``assume_sorted=True`` promises the caller's ``owners`` are already
    non-decreasing (e.g. owners of a sorted index array under a contiguous
    partition); the stable sort is then the identity permutation and the
    payloads are returned as-is, boundaries found with one scan.
    """
    owners = np.asarray(owners, dtype=np.int64)
    if owners.size == 0:
        return (
            np.empty(0, np.int64),
            np.zeros(1, np.int64),
            tuple(p[:0] for p in payloads),
        )
    if assume_sorted:
        is_first = np.empty(owners.size, dtype=bool)
        is_first[0] = True
        is_first[1:] = owners[1:] != owners[:-1]
        starts = np.flatnonzero(is_first)
        offsets = np.append(starts, owners.size).astype(np.int64)
        return owners[starts], offsets, tuple(np.asarray(p) for p in payloads)
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    uniq, starts = np.unique(sorted_owners, return_index=True)
    offsets = np.append(starts, owners.size).astype(np.int64)
    return uniq, offsets, tuple(np.asarray(p)[order] for p in payloads)


def merge_superstep_batches(
    capacity: int,
    bounds: np.ndarray,
    idx_batches: list[np.ndarray],
    val_batches: list[np.ndarray],
    *,
    combine,
    argsort=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-superstep scatter/gather seam: merge per-source batches of
    globally-indexed ``(index, value)`` pairs into owner blocks with one
    global stable sort.

    ``idx_batches``/``val_batches`` are the supersteps' outbound batches in
    **source-locale order** — the order is part of the contract: entries
    with equal global index keep batch order (the stable sort preserves
    it), which makes the merge bit-identical to a per-owner concatenation
    regardless of which worker *computed* each batch first.  This is what
    lets the SPMD pool (:mod:`repro.runtime.spmd`) return per-locale
    partials in any completion order: the kernel re-assembles batches by
    task index and this seam's output is a pure function of that sequence.

    ``combine(values, starts)`` folds duplicate-index segments (the
    monoid's ``reduceat``); ``argsort(keys, bound)`` supplies the stable
    permutation (the kernels pass ``sparse.sort.stable_argsort_bounded``,
    which this layer must not import — the sparse layer sits above the
    runtime).  Returns ``(merged_idx, merged_vals, cutpos)`` where
    ``cutpos = searchsorted(merged_idx, bounds)`` marks each owner's slice.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if not idx_batches:
        return (
            np.empty(0, np.int64),
            np.empty(0),
            np.zeros(bounds.size, dtype=np.int64),
        )
    midx = np.concatenate(idx_batches)
    mvals = np.concatenate(val_batches)
    if argsort is None:
        order = np.argsort(midx, kind="stable")
    else:
        order = argsort(midx, capacity)
    midx, mvals = midx[order], mvals[order]
    is_first = np.empty(midx.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = midx[1:] != midx[:-1]
    if not is_first.all():
        dstarts = np.flatnonzero(is_first)
        mvals = np.asarray(combine(mvals, dstarts), dtype=mvals.dtype)
        midx = midx[dstarts]
    return midx, mvals, np.searchsorted(midx, bounds)


# ---------------------------------------------------------------------------
# coalescing buffers
# ---------------------------------------------------------------------------


def num_flushes(n_elems: int, flush_elems: int) -> int:
    """How many buffer flushes ``n_elems`` elements to one destination take."""
    if n_elems <= 0:
        return 0
    return ceil_div(n_elems, max(flush_elems, 1))


def flush_cost(
    cfg: MachineConfig,
    n_elems: int,
    *,
    agg: AggregationConfig = AGG_DEFAULT,
    local: bool = False,
) -> float:
    """Cost of shipping ``n_elems`` elements to *one* destination through a
    coalescing buffer.

    Pack (one streaming copy into the buffer) + one ``alpha`` per flush +
    volume over the bulk bandwidth.  No ``remote_latency`` per element and
    no congestion term: flushed transfers are scheduled bulk messages, not
    a swarm of concurrent fine-grained accesses.
    """
    if n_elems <= 0:
        return 0.0
    bw = cfg.remote_bandwidth * (8.0 if local else 1.0)
    pack = n_elems * cfg.stream_cost
    flushes = num_flushes(n_elems, agg.flush_elems)
    return pack + flushes * cfg.alpha + n_elems * agg.itemsize / bw


def flush_startup(
    cfg: MachineConfig,
    n_elems: int,
    *,
    agg: AggregationConfig = AGG_DEFAULT,
    local: bool = False,
) -> float:
    """Pipeline-fill latency: the first flush, which nothing can hide."""
    if n_elems <= 0:
        return 0.0
    bw = cfg.remote_bandwidth * (8.0 if local else 1.0)
    first = min(n_elems, agg.flush_elems)
    return cfg.alpha + first * agg.itemsize / bw


# ---------------------------------------------------------------------------
# aggregated gather (SpMSpV Step 1)
# ---------------------------------------------------------------------------


def gather_agg(
    cfg: MachineConfig,
    part_sizes: list[int],
    *,
    agg: AggregationConfig = AGG_DEFAULT,
    local: bool = False,
) -> float:
    """Aggregated row-team gather: assemble a vector from remote parts as
    flush-batched bulk streams.

    One buffer setup covers the whole team (versus ``part_setup`` *per
    part* in the fine-grained path — the Listing 8 Step 1 bookkeeping is
    hoisted out of the loop), and each part arrives as coalesced bulk
    transfers with no per-element latency and no congestion blow-up.
    """
    if not part_sizes or not any(part_sizes):
        return 0.0
    total = cfg.part_setup * (0.02 if local else 1.0)
    for size in part_sizes:
        total += flush_cost(cfg, size, agg=agg, local=local)
    return total


def gather_agg_ft(
    cfg: MachineConfig,
    part_sizes: list[int],
    part_srcs: list[int],
    *,
    faults: FaultInjector | None = None,
    site: str = "",
    dst: int = 0,
    agg: AggregationConfig = AGG_DEFAULT,
    local: bool = False,
) -> tuple[float, float]:
    """:func:`gather_agg` under fault injection.

    Each part's batched stream is independently retried as whole
    sequence-tagged batches.  Returns ``(base_seconds, retry_seconds)``.
    """
    elems = sum(s for s in part_sizes if s > 0)
    if elems:
        _metrics.counter("agg.gather.elems").inc(elems, local=local)
        _metrics.counter("agg.flush.batches").inc(
            sum(num_flushes(s, agg.flush_elems) for s in part_sizes if s > 0),
            site="gather",
        )
        _metrics.counter("agg.bytes").inc(elems * agg.itemsize, site="gather")
    if faults is None:
        return gather_agg(cfg, part_sizes, agg=agg, local=local), 0.0
    if not part_sizes or not any(part_sizes):
        return 0.0, 0.0
    total = cfg.part_setup * (0.02 if local else 1.0)
    retries = 0.0
    for size, src in zip(part_sizes, part_srcs):
        if size <= 0:
            continue
        batches = num_flushes(size, agg.flush_elems)
        per_batch = flush_cost(cfg, size, agg=agg, local=local) / batches
        base, extra = faults.batched_transfer(
            f"{site}.agg[{src}->{dst}]", batches, per_batch, src=src, dst=dst
        )
        total += base
        retries += extra
    return total, retries


# ---------------------------------------------------------------------------
# the exchange (scatter / redistribution superstep)
# ---------------------------------------------------------------------------


@dataclass
class ExchangeCost:
    """Per-locale accounting of one aggregated exchange superstep.

    ``send_seconds[k]``: simulated seconds locale ``k`` spends sending
    (both hops it executes); ``retry_seconds[k]``: its repair bill under
    fault injection; ``messages[k]``: how many flush batches it issued —
    the O(pr + pc) bound the routing exists to enforce.
    """

    send_seconds: np.ndarray
    retry_seconds: np.ndarray
    messages: np.ndarray

    @property
    def total_messages(self) -> int:
        """Flush batches issued across all locales."""
        return int(self.messages.sum())


def exchange(
    cfg: MachineConfig,
    grid: LocaleGrid,
    counts: np.ndarray,
    *,
    agg: AggregationConfig = AGG_DEFAULT,
    local: bool = False,
    faults: FaultInjector | None = None,
    site: str = "exchange",
) -> ExchangeCost:
    """One bulk-synchronous aggregated exchange of ``counts[s, d]`` elements
    from every locale ``s`` to every locale ``d``.

    ``routing="direct"``: each source sends one coalesced stream per
    active destination.  ``routing="twohop"``: traffic aggregates along
    the processor row first (one stream per destination *column*), then
    the row-mates merge their row's traffic and forward one stream per
    destination *row* — so a locale issues at most ``(pc-1) + (pr-1)``
    streams however many of the ``p-1`` peers it addresses.  Data already
    in the right column (or already at its destination) short-circuits the
    hop it does not need.

    Under fault injection every flush batch is a retriable, sequence-tagged
    transfer via :meth:`~repro.runtime.faults.FaultInjector.batched_transfer`:
    covered faults re-send whole batches (charged to ``Retries``) and the
    payload reconstructs exactly.  Every stream is metered
    (``agg.flush.batches``, ``agg.bytes``, ``agg.exchange.messages``);
    :func:`exchange_cost` is the same bill, fault-free and unmetered.
    """
    return _exchange(cfg, grid, counts, agg, local, faults, site, metered=True)


def exchange_cost(
    cfg: MachineConfig,
    grid: LocaleGrid,
    counts: np.ndarray,
    *,
    agg: AggregationConfig = AGG_DEFAULT,
    local: bool = False,
) -> ExchangeCost:
    """The fault-free :func:`exchange` bill, pure: it draws no fault and
    records no metric — what a cost model prices."""
    return _exchange(cfg, grid, counts, agg, local, None, "", metered=False)


def _exchange(cfg, grid, counts, agg, local, faults, site, *, metered) -> ExchangeCost:
    p = grid.size
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (p, p):
        raise ValueError(f"counts must be ({p}, {p}), got {counts.shape}")
    # pooled per-epoch scratch: valid until the calling op's next entry
    # (the returned ExchangeCost references these arrays — see BufferPool)
    send = default_pool.take(p, np.float64)
    retry = default_pool.take(p, np.float64)
    msgs = default_pool.take(p, np.int64)
    # metric increments are batched per leg (one inc per counter per leg
    # instead of three per shipped stream) when the fast path is on —
    # counter totals and labels are unchanged, only the call count drops
    batch_metrics = fastpath.enabled()
    pending: dict[str, list[int]] = {}

    def _ship(k: int, n_elems: int, src: int, dst: int, leg: str) -> None:
        if n_elems <= 0 or src == dst:
            return
        batches = num_flushes(n_elems, agg.flush_elems)
        cost = flush_cost(cfg, n_elems, agg=agg, local=local)
        if metered and batch_metrics:
            acc = pending.setdefault(leg, [0, 0])
            acc[0] += batches
            acc[1] += n_elems * agg.itemsize
        elif metered:
            _metrics.counter("agg.flush.batches").inc(batches, site="exchange", leg=leg)
            _metrics.counter("agg.bytes").inc(
                n_elems * agg.itemsize, site="exchange", leg=leg
            )
            _metrics.counter("agg.exchange.messages").inc(batches, leg=leg)
        if faults is not None:
            base, extra = faults.batched_transfer(
                f"{site}.{leg}[{src}->{dst}]", batches, cost / batches,
                src=src, dst=dst,
            )
            send[k] += base
            retry[k] += extra
        else:
            send[k] += cost
        msgs[k] += batches

    if agg.routing == "direct":
        for s in range(p):
            for d in range(p):
                _ship(s, int(counts[s, d]), s, d, "direct")
    else:
        # two-hop: row aggregation, then column forwarding.  Locale ids are
        # row-major by construction (LocaleGrid: id == i*pc + j), so both
        # legs' volumes are reshape-sums of the traffic matrix.
        pr, pc = grid.rows, grid.cols
        # hop 1: locale s ships everything bound for grid column j2 to its
        # row-mate (i, j2) — a no-op for its own column
        hop1 = counts.reshape(p, pr, pc).sum(axis=1).tolist()  # [s][j2]
        # hop 2: row-mate (i, j) forwards to each d of grid column j what
        # its whole row sent there — skipping d itself
        hop2 = counts.reshape(pr, pc, p).sum(axis=1).tolist()  # [i][d]
        for s in range(p):
            row_base = s - s % pc
            for j2, vol in enumerate(hop1[s]):
                _ship(s, vol, s, row_base + j2, "hop1")
        for m in range(p):
            i, j = divmod(m, pc)
            for d in range(j, p, pc):
                _ship(m, hop2[i][d], m, d, "hop2")
    for leg, (batches, nbytes) in pending.items():
        _metrics.counter("agg.flush.batches").inc(batches, site="exchange", leg=leg)
        _metrics.counter("agg.bytes").inc(nbytes, site="exchange", leg=leg)
        _metrics.counter("agg.exchange.messages").inc(batches, leg=leg)
    return ExchangeCost(send, retry, msgs)


# ---------------------------------------------------------------------------
# comm/compute overlap
# ---------------------------------------------------------------------------


def overlap_exposed(comm: float, compute: float, startup: float) -> float:
    """Exposed (critical-path) communication of a software-pipelined step.

    The pipelined makespan is ``max(compute, comm) + startup`` instead of
    ``compute + comm``, so the communication that actually extends the
    critical path beyond compute is ``max(comm - compute, 0) + startup``
    — capped at ``comm`` (a pipeline can hide time, never invent it).
    """
    if comm <= 0.0:
        return 0.0
    return min(comm, max(comm - compute, 0.0) + startup)


def split_exposed(
    parts: dict[str, float], compute: float, startup: float
) -> dict[str, float]:
    """Overlap several communication components against one compute block.

    Returns the parts scaled so their sum equals
    :func:`overlap_exposed` of their total — keeping per-component
    breakdown semantics (components still sum to the step's wall time)
    while the pipeline hides the hideable share.
    """
    comm = sum(parts.values())
    if comm <= 0.0:
        return dict(parts)
    scale = overlap_exposed(comm, compute, startup) / comm
    return {name: value * scale for name, value in parts.items()}
