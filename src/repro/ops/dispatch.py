"""Cost-model-driven kernel dispatch — automatic direction optimization.

The paper hand-picks its kernel variants: merge vs radix sort (§III-D),
fine-grained vs bulk communication (§IV), push (SpMSpV) vs pull (SpMV)
direction.  CombBLAS 2.0 (Azad et al., 2021) shows the single biggest lever
for BFS-style workloads is choosing among exactly these variants *per
operation* from the input sparsity.  :class:`Dispatcher` is that engine:

* it *estimates* every candidate's simulated cost from cheap sparsity
  statistics (frontier density, selected-row lengths, locale grid shape)
  using the same cost functions the kernels themselves charge — so the
  estimate tracks the eventual bill by construction;
* it *executes* the argmin candidate (results are identical across
  candidates — the dispatcher can only change cost, never values);
* it *records* every decision as a named span in the machine's ledger
  (``dispatch[vxm]:pull`` etc.), so a :class:`~repro.runtime.trace.Trace`
  of an algorithm run shows where each direction switch happened.

Candidates per operation:

=============  ==========================================================
``vxm``        ``push[merge]`` / ``push[radix]`` (SPA SpMSpV, Listing 7),
               ``push[sortbased]`` (SPA-free expand/sort/compress),
               ``pull`` (masked dense-direction scan of ``Aᵀ``)
``vxm_dist``   ``fine`` / ``bulk`` / ``agg`` gather and scatter ×
               ``merge`` / ``radix`` sort (Listing 8; ``agg`` is the
               destination-buffered exchange of ``docs/aggregation.md``)
``mxm_dist``   schedule × transport: ``2d[bulk]`` / ``2d[agg]`` SUMMA,
               ``3d[c=N][bulk]`` / ``3d[c=N][agg]`` for every valid
               replication factor ``N`` of the grid, and ``gathered``
               (the allgather fallback — the only candidate on
               non-square grids; see ``docs/spgemm.md``)
=============  ==========================================================
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..runtime import fastpath
from ..runtime.epoch import TransposeCache, epoch_of

from ..algebra.semiring import PLUS_TIMES, Semiring
from ..distributed.block import GridBlock1D
from ..distributed.dist_matrix import DistSparseMatrix
from ..distributed.dist_vector import DistSparseVector
from ..runtime.aggregation import AGG_DEFAULT, AggregationConfig
from ..runtime.clock import Breakdown
from ..runtime.locale import Machine
from ..runtime.tasks import chunk_sizes, parallel_time
from ..runtime.telemetry import registry as _metrics
from ..sparse.csr import CSRMatrix
from ..sparse.sort import unique_sorted
from ..sparse.vector import SparseVector
from .matrix_dist import gathered_bill, mxm_gathered
from .mxm_dist import SummaSchedule, SummaStats, replication_factors, stage_flops
from .mxm_dist import mxm_dist as _mxm_dist
from .spmspv import COMM_MODES, SpmspvBill, SpmspvStats, spmspv_dist, spmspv_shm, spmspv_shm_cost
from .spmspv_merge import spmspv_merge_cost, spmspv_shm_merge
from .spmv import vxm_pull, vxm_pull_cost

__all__ = [
    "Dispatcher",
    "Decision",
    "PlanCache",
    "nnz_bucket",
    "PUSH_MERGE",
    "PUSH_RADIX",
    "PUSH_SORTBASED",
    "PULL",
]

#: candidate kernel names for the shared-memory vxm dispatch
PUSH_MERGE = "push[merge]"
PUSH_RADIX = "push[radix]"
PUSH_SORTBASED = "push[sortbased]"
PULL = "pull"
PUSH_KERNELS = (PUSH_MERGE, PUSH_RADIX, PUSH_SORTBASED)
VXM_KERNELS = PUSH_KERNELS + (PULL,)
#: the sort axis of the distributed vxm dispatch
SORTS = ("merge", "radix")


@dataclass(frozen=True)
class Decision:
    """One recorded dispatch decision.

    ``estimates`` maps every considered candidate to its estimated
    simulated seconds; ``chosen`` is the executed one; ``forced`` marks
    decisions where the caller (or a threshold policy) overrode the cost
    model.
    """

    op: str
    chosen: str
    estimates: dict[str, float] = field(default_factory=dict)
    forced: bool = False

    @property
    def direction(self) -> str:
        """``"pull"`` or ``"push"`` (dist/ewise decisions count as push)."""
        return PULL if self.chosen == PULL else "push"


def nnz_bucket(n: int) -> int:
    """Log2 bucket of a nonzero count: the plan-cache granularity.

    Two inputs land in the same bucket exactly when their nnz has the same
    bit length, so a cached plan is only ever reused for inputs within 2×
    of the one it was priced for — coarse enough that an iterative
    algorithm's steady state hits, fine enough that the argmin candidate
    does not flip (the regression gate on ``BENCH_frontend``/``BENCH_agg``
    pins that empirically, the plan-cache property suite structurally).
    """
    return int(n).bit_length()


class PlanCache:
    """Memoised dispatch pricing, keyed by (op, shape, nnz-bucket, grid,
    descriptor).

    :class:`Dispatcher` re-prices every candidate kernel on every call —
    per BFS level, per PageRank iteration — even though the inputs barely
    change between iterations.  The cache stores each priced ``estimates``
    dict under a structural key plus *identity anchors* (weak references
    to the actual operand matrices, compared with ``is``, so a cached
    plan never keeps its operands alive), so:

    * a hit returns the **identical** plan object — no re-pricing, no new
      allocation (the property suite pins ``lookup(k) is lookup(k)``);
    * any nnz-bucket crossing, grid change, or descriptor
      (:class:`~repro.runtime.aggregation.AggregationConfig`) change is a
      different key — stale plans are unreachable, not patched;
    * a different matrix object that happens to reuse a key — or any key
      whose operands have since been collected — misses via the anchor
      check instead of replaying the wrong plan;
    * **in-place mutation** — identity anchors cannot see it, so every
      matrix-keyed plan also carries the operands' mutation epochs
      (:func:`~repro.runtime.epoch.epoch_of`) in its structural key.  The
      streaming engine bumps the epoch on every applied delta batch,
      making all plans priced against the pre-update data unreachable
      (the regression suite in ``tests/ops/test_plan_cache.py`` pins
      this).

    Simulated time is unaffected by construction: the decision span charged
    by ``Dispatcher._decide`` depends only on the candidate count and the
    chosen name, and the chosen argmin is re-derived from the (replayed)
    estimates on every call.  Entries are evicted FIFO past
    ``max_entries``.  With :mod:`repro.runtime.fastpath` disabled the cache
    is bypassed entirely.

    Every hit/miss/eviction also increments the labelled
    ``dispatch.plan_cache`` counter in the telemetry registry (visible in
    ``repro telemetry``) — observability only, outside the determinism
    contract like the buffer pool's ``pool_stats()``.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple[tuple, dict[str, float]]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _count(outcome: str, key: tuple) -> None:
        op = str(key[0]) if key else "?"
        _metrics.counter("dispatch.plan_cache").inc(1, outcome=outcome, op=op)

    def lookup(self, key: tuple, anchors: tuple = ()) -> dict[str, float] | None:
        """Return the cached plan for ``key`` (or ``None``).

        ``anchors`` are the operand objects the plan was priced from; an
        entry whose anchors are not the *same live objects* is treated as
        a miss and dropped.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("miss", key)
            return None
        stored_anchors, estimates = entry
        if len(stored_anchors) != len(anchors) or any(
            ref() is not a for ref, a in zip(stored_anchors, anchors)
        ):
            del self._entries[key]
            self.misses += 1
            self._count("miss", key)
            return None
        self.hits += 1
        self._count("hit", key)
        return estimates

    def store(
        self, key: tuple, estimates: dict[str, float], anchors: tuple = ()
    ) -> dict[str, float]:
        """Insert a freshly priced plan; returns it unchanged."""
        while len(self._entries) >= self.max_entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self.evictions += 1
            self._count("eviction", evicted_key)
        self._entries[key] = (tuple(weakref.ref(a) for a in anchors), estimates)
        return estimates

    def invalidate(self) -> None:
        """Drop every cached plan (counters survive for inspection)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PlanCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


def _expected_out_nnz(ncols: int, flops: float, allowed: int | None = None) -> int:
    """Expected distinct output indices for ``flops`` uniform column draws.

    The standard collision model ``m(1-(1-1/m)^f)``; with a mask only the
    ``allowed`` columns can appear.
    """
    if ncols <= 0 or flops <= 0:
        return 0
    hit_p = -np.expm1(flops * np.log1p(-1.0 / ncols)) if ncols > 1 else 1.0
    live = ncols if allowed is None else allowed
    return int(min(max(live * hit_p, 1.0), min(flops, live)))


class Dispatcher:
    """Per-operation kernel selection for a simulated :class:`Machine`.

    Parameters
    ----------
    machine:
        The simulated machine whose cost model prices the candidates and
        whose ledger receives the decision spans.
    mode:
        Default direction policy for :meth:`vxm`: ``"auto"`` (cost argmin
        over all candidates), ``"push"`` (argmin over push variants),
        ``"pull"``, or an explicit kernel name such as ``"push[merge]"``.
    pull_threshold:
        Optional frontier-density threshold: when set, :meth:`vxm` in
        ``"auto"`` mode switches to the pull direction exactly when
        ``nnz(x)/nrows > pull_threshold`` (the classic direction-optimizing
        BFS alpha parameter), and the cost model only picks the variant
        *within* the chosen direction.  ``None`` (default) lets the cost
        model choose the direction too.
    assume_transpose_amortized:
        When ``Aᵀ`` has not been materialised yet, the pull estimate
        normally includes the one-time transpose-build cost, so one-shot
        calls don't pay for a transpose they can't amortise.  Iterative
        algorithms (BFS) set this to ``True`` to price pull as if the
        transpose were free, since it is reused every level.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        mode: str = "auto",
        pull_threshold: float | None = None,
        assume_transpose_amortized: bool = False,
    ) -> None:
        if mode not in ("auto", "push", "pull") + VXM_KERNELS:
            raise ValueError(f"unknown dispatch mode {mode!r}")
        self.machine = machine
        self.mode = mode
        self.pull_threshold = pull_threshold
        self.assume_transpose_amortized = assume_transpose_amortized
        self.decisions: list[Decision] = []
        self._transposes = TransposeCache()
        #: memoised candidate pricing (see :class:`PlanCache`); bypassed
        #: when the fast path is disabled
        self.plan_cache = PlanCache()

    def _priced(self, key: tuple, anchors: tuple, pricer) -> dict[str, float]:
        """The plan-cache seam: replay ``key``'s estimates or price fresh."""
        if not fastpath.enabled():
            return pricer()
        est = self.plan_cache.lookup(key, anchors)
        if est is not None:
            return est
        return self.plan_cache.store(key, pricer(), anchors)

    # -- transpose cache ----------------------------------------------------

    def _transpose_build_cost(self, a: CSRMatrix) -> float:
        """Estimated one-time cost of materialising ``Aᵀ`` (two counting
        passes plus a stable scatter of (index, value) pairs)."""
        cfg = self.machine.config
        return parallel_time(
            cfg,
            4.0 * a.nnz * cfg.stream_cost * self.machine.compute_penalty,
            self.machine.threads_per_locale,
        )

    def transpose_of(self, a: CSRMatrix) -> CSRMatrix:
        """``Aᵀ``, materialised once per matrix *epoch* and cached.

        The build is charged to the ledger as a ``dispatch[transpose]``
        span the first time, then reused for every later pull.  An
        in-place mutation of ``a`` (a streaming delta batch bumping its
        epoch) invalidates the entry, so the next pull rebuilds — and
        re-bills — the transpose instead of reading stale data.  Both
        directions are registered (the reverse weakly), and the entries
        die with ``a``.
        """
        at = self._transposes.get(a)
        if at is None:
            at = a.transposed()
            self.seed_transpose(a, at)
            self.machine.record(
                "dispatch[transpose]",
                Breakdown({"build": self._transpose_build_cost(a)}),
            )
        return at

    def seed_transpose(self, a: CSRMatrix, at: CSRMatrix) -> "Dispatcher":
        """Register an already-materialised ``at = Aᵀ`` in both directions
        (the reverse weakly) without charging a build — for callers that
        hold both orientations anyway; returns self."""
        self._transposes.put(a, at)
        self._transposes.put(at, a, weak=True)
        return self

    def _has_transpose(self, a: CSRMatrix) -> bool:
        return self._transposes.get(a) is not None

    # -- decision bookkeeping -----------------------------------------------

    def _decide(self, op: str, chosen: str, estimates: dict[str, float], *, forced: bool) -> Decision:
        d = Decision(op=op, chosen=chosen, estimates=dict(estimates), forced=forced)
        self.decisions.append(d)
        _metrics.counter("dispatch.decisions").inc(1, op=op, choice=chosen, forced=forced)
        # a real dispatch costs a handful of comparisons; charging it makes
        # every decision visible as a `dispatch[op]:<choice>` span in Trace
        cfg = self.machine.config
        cost = cfg.compare_cost * max(len(estimates), 1) + cfg.stream_cost
        self.machine.record(f"dispatch[{op}]", Breakdown({chosen: cost}))
        return d

    def stats(self) -> dict[str, int]:
        """Decision counts by chosen candidate (plus push/pull totals)."""
        out: dict[str, int] = {}
        for d in self.decisions:
            if d.op == "vxm":
                out[d.direction] = out.get(d.direction, 0) + 1
                if d.chosen != d.direction:  # pull IS its own direction
                    out[d.chosen] = out.get(d.chosen, 0) + 1
            else:
                out[d.chosen] = out.get(d.chosen, 0) + 1
        return out

    # -- shared-memory vxm ---------------------------------------------------

    def estimate_vxm(
        self,
        a: CSRMatrix,
        x: SparseVector,
        *,
        mask: np.ndarray | None = None,
        complement: bool = False,
    ) -> dict[str, float]:
        """Estimated simulated seconds for every ``y ← x A`` candidate.

        Uses only O(nnz(x) + ncols) statistics: the exact lengths of the
        rows the frontier selects, the collision-model output size, and —
        for pull — the exact scanned-row lengths of ``Aᵀ`` when it is
        already materialised.
        """
        machine = self.machine
        ncols = a.ncols
        row_nnzs = np.diff(a.rowptr)[x.indices] if x.nnz else np.empty(0, np.int64)
        flops = int(row_nnzs.sum())
        if mask is not None:
            allowed_mask = np.asarray(mask, dtype=bool)
            if complement:
                allowed_mask = ~allowed_mask
            allowed = int(allowed_mask.sum())
            flops_eff = flops * (allowed / ncols) if ncols else 0.0
        else:
            allowed_mask = None
            allowed = None
            flops_eff = float(flops)
        # the collision model masks by itself: feed it every product
        out_est = _expected_out_nnz(ncols, flops, allowed)

        est: dict[str, float] = {}
        for name, sort in ((PUSH_MERGE, "merge"), (PUSH_RADIX, "radix")):
            est[name] = spmspv_shm_cost(
                machine, row_nnzs=row_nnzs, out_nnz=out_est, ncols=ncols, sort=sort
            ).total
        est[PUSH_SORTBASED] = spmspv_merge_cost(
            machine, row_nnzs=row_nnzs, flops=int(flops_eff), out_nnz=out_est, ncols=ncols
        ).total

        if self._has_transpose(a):
            at = self.transpose_of(a)
            if allowed_mask is not None:
                scan_nnzs = np.diff(at.rowptr)[allowed_mask]
            else:
                scan_nnzs = np.diff(at.rowptr)
            build = 0.0
        else:
            # Aᵀ row lengths unknown without building it: assume the mask
            # keeps a proportional share of the nonzeros, evenly spread
            frac = 1.0 if allowed is None else (allowed / ncols if ncols else 0.0)
            n_scan = ncols if allowed is None else allowed
            mean = a.nnz * frac / n_scan if n_scan else 0.0
            scan_nnzs = np.full(max(n_scan, 0), mean)
            build = 0.0 if self.assume_transpose_amortized else self._transpose_build_cost(a)
        est[PULL] = build + vxm_pull_cost(
            machine,
            row_nnzs=scan_nnzs,
            kept=int(flops_eff),
            out_nnz=out_est,
            x_capacity=x.capacity,
            x_nnz=x.nnz,
        ).total
        return est

    def vxm(
        self,
        a: CSRMatrix,
        x: SparseVector,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        complement: bool = False,
        accum=None,
        out: SparseVector | None = None,
        desc=None,
        mode: str | None = None,
    ) -> tuple[SparseVector, Breakdown]:
        """``y ← x A`` through the cheapest kernel.

        Every candidate produces bit-identical results (the property suite
        pins this against the scipy oracle); only the simulated cost —
        and therefore the ledger — depends on the choice.

        ``accum``/``out``/``desc`` apply the GraphBLAS output step
        ``out⟨mask, replace⟩ ⊕= y`` after the kernel
        (:mod:`repro.exec.descriptor`); ``desc.complement`` folds into
        ``complement``.  The dispatch decision is unaffected.
        """
        replace = False
        if desc is not None:
            complement = complement or bool(getattr(desc, "complement", False))
            replace = bool(getattr(desc, "replace", False))
        mode = self.mode if mode is None else mode
        if mode not in ("auto", "push", "pull") + VXM_KERNELS:
            raise ValueError(f"unknown dispatch mode {mode!r}")
        # the sort-based kernel has no fused mask, so it leaves the pool
        # whenever a mask is present
        push_pool = PUSH_KERNELS if mask is None else (PUSH_MERGE, PUSH_RADIX)
        if mode == PUSH_SORTBASED and mask is not None:
            raise ValueError("push[sortbased] does not support masks")
        # plan-cache key: matrix identity (anchored) + mutation epoch +
        # shape, the frontier's and mask's nnz buckets, and the
        # transpose-availability state the pull estimate depends on
        mask_key = (
            None
            if mask is None
            else (nnz_bucket(int(np.count_nonzero(mask))), bool(complement))
        )
        key = (
            "vxm",
            a.nrows,
            a.ncols,
            nnz_bucket(a.nnz),
            epoch_of(a),
            nnz_bucket(x.nnz),
            mask_key,
            self._has_transpose(a),
            self.assume_transpose_amortized,
        )
        estimates = self._priced(
            key,
            (a,),
            lambda: self.estimate_vxm(a, x, mask=mask, complement=complement),
        )
        forced = mode != "auto"
        if mode in VXM_KERNELS:
            chosen = mode
        elif mode == "pull":
            chosen = PULL
        elif mode == "push":
            chosen = min(push_pool, key=estimates.__getitem__)
        else:  # auto
            if self.pull_threshold is not None:
                density = x.nnz / a.nrows if a.nrows else 0.0
                pool = (PULL,) if density > self.pull_threshold else push_pool
                chosen = min(pool, key=estimates.__getitem__)
                forced = True
            else:
                chosen = min(push_pool + (PULL,), key=estimates.__getitem__)
        self._decide("vxm", chosen, estimates, forced=forced)
        if chosen == PULL:
            at = self.transpose_of(a)
            y, b = vxm_pull(
                at, x, self.machine, semiring=semiring, mask=mask, complement=complement
            )
        elif chosen == PUSH_SORTBASED:
            y, b = spmspv_shm_merge(a, x, self.machine, semiring=semiring)
        else:
            y, b = spmspv_shm(
                a,
                x,
                self.machine,
                semiring=semiring,
                sort="radix" if chosen == PUSH_RADIX else "merge",
                mask=mask,
                complement=complement,
            )
        if accum is None and out is None and not replace:
            return y, b
        from ..exec.descriptor import merge_vector

        return (
            merge_vector(
                y, out, mask=mask, complement=complement, accum=accum, replace=replace
            ),
            b,
        )

    # -- distributed vxm ----------------------------------------------------

    def estimate_vxm_dist(
        self,
        a: DistSparseMatrix,
        x: DistSparseVector,
        *,
        mask: np.ndarray | None = None,
        complement: bool = False,
        agg: AggregationConfig = AGG_DEFAULT,
    ) -> dict[str, float]:
        """Estimated seconds for each axis of the distributed SpMSpV
        (Listing 8): one component of the kernel's own bill
        (:class:`~repro.ops.spmspv.SpmspvBill`), fault-free and unmetered,
        over the statistics :meth:`_vxm_dist_stats` predicts —
        ``gather:<mode>`` is ``Gather Input``, ``sort:<sort>`` is ``Local
        Multiply`` and ``scatter:<mode>`` is ``Scatter output`` under the
        cheaper sort.
        """
        bill = SpmspvBill(self.machine, self._vxm_dist_stats(a, x, mask=mask, complement=complement))
        multiply = {s: bill.multiply(s) for s in SORTS}
        cheaper = multiply[min(SORTS, key=lambda s: max(multiply[s]))]
        est = {f"gather:{m}": bill.gather(m, agg)[0] for m in COMM_MODES}
        est.update({f"scatter:{m}": bill.scatter(m, cheaper, agg)[0] for m in COMM_MODES})
        est.update({f"sort:{s}": max(multiply[s]) for s in SORTS})
        return est

    def _vxm_dist_stats(
        self, a: DistSparseMatrix, x: DistSparseVector, *, mask, complement: bool
    ) -> SpmspvStats:
        """The statistics the SpMSpV bill reads, predicted from the operands.

        The gather parts are exact.  Each locale's selected rows take its
        block's mean row length, passed as per-thread sums; its output is
        the collision model over its column block's mask-allowed columns,
        fed the unmasked flops, and splits over the block's owners by their
        allowed counts.  Each owner merges what it receives by the same
        model over its own allowed columns.
        """
        grid, layout, pc = a.grid, a.layout, a.grid.cols
        x_nnz = [blk.nnz for blk in x.blocks]
        # the owners' and the column blocks' bounds cut the output space
        # into segments; each segment's allowed columns are counted once
        owner_bounds = GridBlock1D.for_grid(a.ncols, grid).bounds
        col_bounds = layout.col_blocks.bounds
        cuts = unique_sorted(np.concatenate([owner_bounds, col_bounds]))
        allowed = np.diff(cuts)
        if mask is not None:
            kept = np.asarray(mask, dtype=bool)
            hits = [np.count_nonzero(kept[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]
            allowed = allowed - hits if complement else np.array(hits, np.int64)
        seg_owner = np.searchsorted(owner_bounds, cuts[:-1], side="right") - 1
        first = np.searchsorted(cuts, col_bounds).tolist()
        # per column block: its owners and their cumulative allowed columns
        blocks = [
            (seg_owner[lo:hi], np.cumsum(allowed[lo:hi]).tolist())
            for lo, hi in zip(first[:-1], first[1:])
        ]
        widths = np.diff(col_bounds).tolist()
        heights = np.diff(layout.row_blocks.bounds).tolist()
        teams = [sum(x_nnz[i * pc : (i + 1) * pc]) for i in range(grid.rows)]
        chunks = [chunk_sizes(team, self.machine.threads_per_locale) for team in teams]
        traffic = np.zeros((grid.size, grid.size), np.int64)
        rows, out_nnz = [], []
        for loc in grid:
            i, j = loc.row, loc.col
            owners, cum = blocks[j]
            mean = a.block(i, j).nnz / max(heights[i], 1)
            live = cum[-1] if cum else 0
            out = _expected_out_nnz(widths[j], teams[i] * mean, None if mask is None else live)
            rows.append(chunks[i] * mean)
            out_nnz.append(out)
            if out and live:
                share = [0] + [round(c * (out / live)) for c in cum]
                traffic[loc.id, owners] = [hi - lo for lo, hi in zip(share, share[1:])]
        owner_allowed = np.bincount(seg_owner, allowed, minlength=grid.size).tolist()
        merged = [
            _expected_out_nnz(int(n), r) for n, r in zip(owner_allowed, traffic.sum(axis=0).tolist())
        ]
        ncols = [widths[loc.col] for loc in grid]
        return SpmspvStats(grid, x_nnz, rows, out_nnz, ncols, traffic, merged)

    def vxm_dist(
        self,
        a: DistSparseMatrix,
        x: DistSparseVector,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        complement: bool = False,
        accum=None,
        out: DistSparseVector | None = None,
        desc=None,
        gather_mode: str = "auto",
        scatter_mode: str = "auto",
        sort: str = "auto",
        agg: AggregationConfig = AGG_DEFAULT,
    ) -> tuple[DistSparseVector, Breakdown]:
        """Distributed SpMSpV with per-call communication/sort dispatch.

        ``"auto"`` resolves each axis independently from the estimates —
        gather and scatter over ``fine``/``bulk``/``agg``, sort over
        ``merge``/``radix``; an explicit mode forces it.  As in
        :meth:`vxm`, ``accum``/``out``/``desc`` run the GraphBLAS output
        step blockwise after the kernel.
        """
        replace = False
        if desc is not None:
            complement = complement or bool(getattr(desc, "complement", False))
            replace = bool(getattr(desc, "replace", False))
        for axis, value, allowed in (
            ("gather_mode", gather_mode, COMM_MODES),
            ("scatter_mode", scatter_mode, COMM_MODES),
            ("sort", sort, SORTS),
        ):
            if value not in ("auto",) + allowed:
                raise ValueError(f"unknown {axis} {value!r}")
        est = self.estimate_vxm_dist(a, x, mask=mask, complement=complement, agg=agg)
        forced = "auto" not in (gather_mode, scatter_mode, sort)
        if gather_mode == "auto":
            gather_mode = min(COMM_MODES, key=lambda m: est[f"gather:{m}"])
        if scatter_mode == "auto":
            scatter_mode = min(COMM_MODES, key=lambda m: est[f"scatter:{m}"])
        if sort == "auto":
            sort = min(SORTS, key=lambda s: est[f"sort:{s}"])
        chosen = f"gather:{gather_mode}+scatter:{scatter_mode}+sort:{sort}"
        self._decide("vxm_dist", chosen, est, forced=forced)
        y, b = spmspv_dist(
            a, x, self.machine, semiring=semiring, sort=sort, gather_mode=gather_mode,
            scatter_mode=scatter_mode, mask=mask, complement=complement, agg=agg,
        )
        if accum is None and out is None and not replace:
            return y, b
        from ..exec.descriptor import merge_dist_vector

        return (
            merge_dist_vector(
                y, out, mask=mask, complement=complement, accum=accum, replace=replace
            ),
            b,
        )

    # -- distributed mxm ----------------------------------------------------

    def estimate_mxm_dist(
        self,
        a: DistSparseMatrix,
        b: DistSparseMatrix,
        *,
        mask: DistSparseMatrix | None = None,
        complement: bool = False,
        fused: bool = True,
        agg: AggregationConfig = AGG_DEFAULT,
    ) -> dict[str, float]:
        """Estimated end-to-end seconds for every distributed-SpGEMM
        candidate (see ``docs/spgemm.md``): ``gathered``, then
        ``2d[bulk]``/``2d[agg]`` and ``3d[c=N][bulk]``/``3d[c=N][agg]`` for
        every replication factor ``N`` on a square grid.

        Each estimate is the kernel's own bill
        (:class:`~repro.ops.mxm_dist.SummaSchedule`,
        :func:`~repro.ops.matrix_dist.gathered_bill`), fault-free and
        unmetered, over the statistics :meth:`_mxm_dist_stats` predicts;
        a schedule's compute terms are shared by both transports.
        """
        gathered, summa = self._mxm_dist_stats(a, b, mask=mask, complement=complement, fused=fused)
        est = {"gathered": gathered_bill(self.machine, *gathered).total}
        if summa is not None:
            for c in (1, *replication_factors(a.grid.rows)):
                schedule = SummaSchedule(self.machine, summa, c)
                name = "2d" if c == 1 else f"3d[c={c}]"
                for mode in ("bulk", "agg"):
                    est[f"{name}[{mode}]"] = schedule.bill(mode, agg).total
        return est

    def _mxm_dist_stats(
        self,
        a: DistSparseMatrix,
        b: DistSparseMatrix,
        *,
        mask,
        fused: bool,
        complement: bool = False,
    ) -> tuple[tuple, SummaStats | None]:
        """The statistics the SpGEMM bills read, predicted from the
        operands: ``gathered``'s ``(a_nnz, b_nnz, flops, out_nnz)`` and, on
        a square grid, the SUMMA :class:`SummaStats` (else ``None``).

        Block nnz and per-stage ``flops`` are exact; each stage product's
        size comes from the collision model over its output block, scaled
        by a fused mask's density (a complemented mask's: the share of cells
        it leaves open), and the post filter's scan from the same model over
        the block's total flops.
        """
        # fused structural mask: a product entry survives the prune with
        # probability ≈ the share of output cells the mask admits
        mask_frac = 1.0
        if mask is not None and fused:
            cells = a.nrows * b.ncols
            admitted = cells - mask.nnz if complement else mask.nnz
            mask_frac = min(admitted / max(cells, 1), 1.0)
        a_nnz = [blk.nnz for blk in a.blocks]
        b_nnz = [blk.nnz for blk in b.blocks]
        total_a, total_b = sum(a_nnz), sum(b_nnz)
        flops_total = total_a * (total_b / max(b.nrows, 1))
        rows = max(a.nrows, 1)
        out_total = rows * _expected_out_nnz(max(b.ncols, 1), flops_total / rows) * mask_frac
        gathered = (total_a, total_b, flops_total, out_total)
        q = a.grid.rows
        if q != a.grid.cols:
            return gathered, None
        # output block (i, j) spans A's row block i and B's column block j
        cells = [a.blocks[i * q].nrows * b.blocks[j].ncols for i in range(q) for j in range(q)]
        fl = stage_flops(a, b)
        prod = [
            _expected_out_nnz(m, f) * mask_frac
            for row in fl.tolist()
            for m, f in zip(cells, row)
        ]
        unfiltered = None
        if mask is not None and not fused:
            unfiltered = [
                _expected_out_nnz(m, f) for m, f in zip(cells, fl.sum(axis=0).tolist())
            ]
        return gathered, SummaStats(a_nnz, b_nnz, fl.ravel().tolist(), prod, unfiltered)

    def mxm_dist(
        self,
        a: DistSparseMatrix,
        b: DistSparseMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        comm_mode: str = "auto",
        mask: DistSparseMatrix | None = None,
        complement: bool = False,
        mask_mode: str = "fused",
        variant: str = "auto",
        layers: int | None = None,
        accum=None,
        out: DistSparseMatrix | None = None,
        desc=None,
        agg: AggregationConfig = AGG_DEFAULT,
    ) -> tuple[DistSparseMatrix, Breakdown]:
        """Distributed SpGEMM through the cheapest schedule, recorded as a
        ``dispatch[mxm_dist]`` span.

        The candidate axis is schedule × transport — ``2d[bulk]`` /
        ``2d[agg]``, ``3d[c=N][bulk]`` / ``3d[c=N][agg]`` for every valid
        replication factor of the grid, and ``gathered``.  ``variant``
        (``"auto"``/``"2d"``/``"3d"``/``"gathered"``) and ``comm_mode``
        (``"auto"``/``"bulk"``/``"agg"``) force axes independently;
        ``layers`` pins the 3-D replication factor.  Forcing ``comm_mode``
        alone keeps the classic 2-D SUMMA (the pre-3D behaviour).

        On square grids the SUMMA family is bit-identical by construction
        (shared value plane), so auto is free to switch among 2-D and 3-D;
        ``gathered`` reduces partial products in a different order (last-
        bit float drift), so auto only selects it on non-square grids where
        it is the sole candidate — forcing ``variant="gathered"`` opts in
        explicitly.  Its estimate is still priced everywhere for
        inspection.

        ``mask`` (aligned distributed matrix) restricts the product
        structurally; ``mask_mode="fused"`` prunes inside every stage
        merge, ``"post"`` filters after the last stage (bit-identical,
        dearer — kept for ledger comparison).  ``accum``/``out``/``desc``
        run the GraphBLAS output step blockwise afterwards.
        """
        replace = False
        if desc is not None:
            complement = complement or bool(getattr(desc, "complement", False))
            replace = bool(getattr(desc, "replace", False))
        if comm_mode not in ("auto", "bulk", "agg"):
            raise ValueError(f"unknown comm_mode {comm_mode!r}")
        if variant not in ("auto", "2d", "3d", "gathered"):
            raise ValueError(f"unknown variant {variant!r}")
        if mask_mode not in ("fused", "post"):
            raise ValueError(f"unknown mask_mode {mask_mode!r}")
        square = a.grid.rows == a.grid.cols
        if not square and variant in ("2d", "3d"):
            raise ValueError("sparse SUMMA requires a square locale grid")
        fused = mask is not None and mask_mode == "fused"
        mask_key = (
            None if mask is None else (nnz_bucket(mask.nnz), epoch_of(mask), fused, complement)
        )
        key = (
            "mxm_dist",
            a.nrows,
            a.ncols,
            b.nrows,
            b.ncols,
            nnz_bucket(a.nnz),
            nnz_bucket(b.nnz),
            epoch_of(a),
            epoch_of(b),
            a.grid.rows,
            a.grid.cols,
            mask_key,
            agg,
        )
        anchors = (a, b) if mask is None else (a, b, mask)
        est = self._priced(
            key,
            anchors,
            lambda: self.estimate_mxm_dist(
                a, b, mask=mask, complement=complement, fused=fused, agg=agg
            ),
        )
        forced = comm_mode != "auto" or variant != "auto"
        if not square or variant == "gathered":
            chosen = "gathered"
        elif variant == "auto" and comm_mode != "auto":
            # pre-3D compatibility: forcing the transport alone forces the
            # classic 2-D SUMMA it used to select between
            chosen = f"2d[{comm_mode}]"
        else:
            pool = [name for name in est if name != "gathered"]
            if variant != "auto":
                pool = [name for name in pool if name.startswith(variant)]
            if variant == "3d" and layers is not None:
                pool = [name for name in pool if f"[c={int(layers)}]" in name]
                if not pool:
                    raise ValueError(
                        f"no 3d candidate with layers={layers}; valid factors: "
                        f"{replication_factors(a.grid.rows)}"
                    )
            if comm_mode != "auto":
                pool = [name for name in pool if name.endswith(f"[{comm_mode}]")]
            chosen = min(pool, key=est.__getitem__)
        self._decide("mxm_dist", chosen, est, forced=forced)
        if chosen == "gathered":
            c, bd = mxm_gathered(
                a, b, self.machine, semiring=semiring, mask=mask, complement=complement
            )
        else:
            schedule, mode = chosen[:-1].rsplit("[", 1)  # "3d[c=4]", "agg"
            c, bd = _mxm_dist(
                a, b, self.machine,
                semiring=semiring, comm_mode=mode, mask=mask, complement=complement,
                mask_mode=mask_mode, variant=schedule[:2],
                layers=1 if schedule == "2d" else int(schedule[5:-1]), agg=agg,
            )
        if accum is None and out is None and not replace:
            return c, bd
        from ..exec.descriptor import merge_dist_matrix

        return (
            merge_dist_matrix(
                c, out, mask=mask, complement=complement, accum=accum, replace=replace
            ),
            bd,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Dispatcher(mode={self.mode!r}, pull_threshold={self.pull_threshold}, "
            f"decisions={len(self.decisions)})"
        )
