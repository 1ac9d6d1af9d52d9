"""Property tests of the dispatcher's plan cache.

:class:`repro.ops.dispatch.PlanCache` memoises candidate pricing across
iterations of an algorithm.  The contract it must keep:

* **identity hits** — a hit returns the *identical* plan object that was
  stored (no re-pricing, no copy), and repeated hits keep returning it;
* **structural invalidation** — an nnz-bucket crossing, a grid change, or
  an aggregation-descriptor change is a *different key*, so stale plans
  are unreachable rather than patched;
* **anchor safety** — a different operand object that collides on the
  structural key misses (and evicts the stale entry) instead of replaying
  the wrong plan;
* **ledger transparency** — a cached run charges the machine *bit-
  identically* to an uncached run, including under covered fault plans
  (the retry repair times must not depend on whether pricing was
  replayed).

The cache only exists on the fast path; with
:mod:`repro.runtime.fastpath` disabled the dispatcher re-prices every
call and the cache stays empty.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.semiring import MIN_PLUS, PLUS_TIMES
from repro.distributed import DistSparseMatrix
from repro.generators import erdos_renyi, random_sparse_vector
from repro.ops.dispatch import Dispatcher, PlanCache, nnz_bucket
from repro.runtime import (
    CostLedger,
    FaultInjector,
    LocaleGrid,
    Machine,
    fastpath,
    shared_machine,
)
from repro.runtime.epoch import bump_epoch
from repro.runtime.telemetry import registry as telemetry_registry
from repro.runtime.aggregation import AGG_DEFAULT
from repro.sparse import SparseVector
from tests.strategies import PROFILE, PROFILE_FAST, covered_setups, matrix_vector_pairs


def _workload(n=60, d=4, nnz=12, seed=0):
    a = erdos_renyi(n, d, seed=seed)
    x = random_sparse_vector(n, nnz=nnz, seed=seed + 1)
    return a, x


def _ledgered_shm(threads: int = 4) -> Machine:
    m = shared_machine(threads)
    return Machine(
        config=m.config,
        grid=m.grid,
        threads_per_locale=threads,
        ledger=CostLedger(),
    )


class _Anchor:
    """A weakly referenceable stand-in for an operand matrix (anchors are
    held by weak reference, which a bare ``object()`` does not support)."""


# ---------------------------------------------------------------------------
# the cache data structure itself
# ---------------------------------------------------------------------------


class TestPlanCacheUnit:
    @given(
        keys=st.lists(
            st.tuples(st.text(max_size=3), st.integers(0, 5)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(PROFILE)
    def test_same_key_hits_return_identical_plan(self, keys):
        cache = PlanCache()
        stored = {}
        for key in keys:
            if key not in stored:
                stored[key] = cache.store(key, {"plan": float(len(stored))})
        for key, plan in stored.items():
            assert cache.lookup(key) is plan
            assert cache.lookup(key) is plan  # and stays the same object

    def test_anchor_mismatch_misses_and_evicts(self):
        cache = PlanCache()
        a1, a2 = _Anchor(), _Anchor()
        plan = cache.store(("k",), {"p": 1.0}, anchors=(a1,))
        assert cache.lookup(("k",), anchors=(a1,)) is plan
        assert cache.lookup(("k",), anchors=(a2,)) is None  # same key, new operand
        assert len(cache) == 0  # the stale entry is gone, not patched
        assert cache.lookup(("k",), anchors=(a1,)) is None

    def test_fifo_eviction_bounds_entries(self):
        cache = PlanCache(max_entries=4)
        for i in range(10):
            cache.store((i,), {"p": float(i)})
        assert len(cache) == 4
        assert cache.lookup((0,)) is None  # oldest gone
        assert cache.lookup((9,)) is not None  # newest kept

    def test_invalidate_drops_everything(self):
        cache = PlanCache()
        cache.store(("a",), {"p": 1.0})
        cache.store(("b",), {"p": 2.0})
        cache.invalidate()
        assert len(cache) == 0
        assert cache.lookup(("a",)) is None

    @given(n=st.integers(0, 2**40))
    @settings(PROFILE)
    def test_nnz_bucket_is_bit_length(self, n):
        assert nnz_bucket(n) == int(n).bit_length()

    @given(k=st.integers(1, 30))
    @settings(PROFILE)
    def test_bucket_crossings_at_powers_of_two(self, k):
        """Inputs within 2× share a bucket; crossing a power of two does
        not — the cache's staleness granularity."""
        assert nnz_bucket(2**k - 1) != nnz_bucket(2**k)
        assert nnz_bucket(2**k) == nnz_bucket(2 ** (k + 1) - 1)


# ---------------------------------------------------------------------------
# dispatcher integration: hits, invalidation, ledger transparency
# ---------------------------------------------------------------------------


class TestDispatcherCaching:
    def test_repeat_call_hits_and_replays_identical_plan(self):
        a, x = _workload()
        d = Dispatcher(shared_machine(4))
        with fastpath.force(True):
            y1, _ = d.vxm(a, x, semiring=PLUS_TIMES)
            before = d.plan_cache.stats()
            y2, _ = d.vxm(a, x, semiring=PLUS_TIMES)
            after = d.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert np.array_equal(y1.indices, y2.indices)
        assert np.array_equal(y1.values, y2.values)
        assert d.decisions[-1].estimates == d.decisions[-2].estimates
        assert d.decisions[-1].chosen == d.decisions[-2].chosen

    def test_nnz_bucket_crossing_invalidates(self):
        """Frontiers within one bucket share a plan; crossing the bucket
        boundary re-prices."""
        a, _ = _workload()
        d = Dispatcher(shared_machine(4))
        x4 = random_sparse_vector(a.nrows, nnz=4, seed=2)  # bucket 3
        x7 = random_sparse_vector(a.nrows, nnz=7, seed=3)  # bucket 3
        x8 = random_sparse_vector(a.nrows, nnz=8, seed=4)  # bucket 4
        with fastpath.force(True):
            d.vxm(a, x4)
            m0 = d.plan_cache.stats()["misses"]
            d.vxm(a, x7)  # same bucket → hit
            assert d.plan_cache.stats()["misses"] == m0
            d.vxm(a, x8)  # bucket crossed → fresh pricing
            assert d.plan_cache.stats()["misses"] == m0 + 1

    def test_descriptor_change_invalidates(self):
        """A different AggregationConfig is a different key — tuning the
        exchange layer can never replay a plan priced for other tuning."""
        a, _ = _workload(n=64)
        grid = LocaleGrid.for_count(4)
        m = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
        d = Dispatcher(m)
        ad = DistSparseMatrix.from_global(a, grid)
        with fastpath.force(True):
            d.mxm_dist(ad, ad, agg=AGG_DEFAULT)
            m0 = d.plan_cache.stats()["misses"]
            d.mxm_dist(ad, ad, agg=AGG_DEFAULT)  # hit
            assert d.plan_cache.stats()["misses"] == m0
            d.mxm_dist(ad, ad, agg=AGG_DEFAULT.with_(flush_elems=128))
            assert d.plan_cache.stats()["misses"] == m0 + 1

    def test_matrix_identity_anchor_prevents_stale_replay(self):
        """A *different* matrix with the same shape/nnz structure must not
        reuse the plan priced for the original object."""
        a, x = _workload()
        b = a.copy()
        d = Dispatcher(shared_machine(4))
        with fastpath.force(True):
            d.vxm(a, x)
            h0 = d.plan_cache.stats()["hits"]
            d.vxm(b, x)  # same structural key, different anchor
            assert d.plan_cache.stats()["hits"] == h0

    def test_dead_anchor_misses(self):
        cache = PlanCache()
        anchor = _Anchor()
        cache.store(("k",), {"p": 1.0}, anchors=(anchor,))
        del anchor
        gc.collect()
        assert cache.lookup(("k",), anchors=(_Anchor(),)) is None
        assert cache.stats()["misses"] == 1

    def test_priced_operands_are_not_kept_alive(self):
        """Plans anchor their operands weakly: a priced matrix is collected
        once the caller drops it."""
        grid = LocaleGrid(2, 2)
        a = DistSparseMatrix.from_global(erdos_renyi(40, 4, seed=1), grid)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2, ledger=CostLedger()))
        with fastpath.force(True):
            d.mxm_dist(a, a)
        assert len(d.plan_cache) == 1
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is None

    def test_disabled_fastpath_bypasses_cache(self):
        a, x = _workload()
        d = Dispatcher(shared_machine(4))
        with fastpath.force(False):
            d.vxm(a, x)
            d.vxm(a, x)
        assert len(d.plan_cache) == 0
        assert d.plan_cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }

    @given(pair=matrix_vector_pairs(min_side=4, max_side=20, square=True))
    @settings(PROFILE_FAST)
    def test_cached_run_ledger_identical_to_uncached(self, pair):
        """The cache buys wall time only: a dispatcher replaying a cached
        plan (steady-state: the same key, hit on every call after the
        first) charges the machine exactly what a cache-bypassing one
        charges.  Within a bucket, *drifting* frontiers may legitimately
        flip a near-tie argmin vs fresh pricing — that case is pinned
        empirically by the BENCH_frontend/BENCH_agg regression gates, not
        structurally here."""
        a, x = pair

        def run(flag):
            m = _ledgered_shm(4)
            d = Dispatcher(m)
            with fastpath.force(flag):
                for _ in range(3):  # identical calls: cache engages after #1
                    y, _ = d.vxm(a, x, semiring=PLUS_TIMES)
            return y, m.ledger.total

        (y_ref, t_ref) = run(False)
        (y_fast, t_fast) = run(True)
        assert np.array_equal(y_ref.indices, y_fast.indices)
        assert np.array_equal(y_ref.values, y_fast.values)
        assert t_ref == t_fast

    @given(setup=covered_setups(max_locales=4), data=st.data())
    @settings(PROFILE_FAST)
    def test_cached_run_ledger_identical_under_covered_faults(self, setup, data):
        """Retry repair charges are part of the ledger; replaying a cached
        plan during a fault storm must not change a single one of them."""
        plan, policy = setup
        a, _ = _workload(n=48, d=3, nnz=10, seed=data.draw(st.integers(0, 5)))
        grid = LocaleGrid.for_count(4)

        def run(flag):
            m = Machine(
                grid=grid,
                threads_per_locale=2,
                ledger=CostLedger(),
                faults=FaultInjector(plan, policy),
            )
            d = Dispatcher(m)
            ad = DistSparseMatrix.from_global(a, grid)
            with fastpath.force(flag):
                c, _ = d.mxm_dist(ad, ad, semiring=MIN_PLUS)
                c, _ = d.mxm_dist(ad, ad, semiring=MIN_PLUS)  # cached replay
            return c.gather(faults=m.faults), m.ledger.total

        (c_ref, t_ref) = run(False)
        (c_fast, t_fast) = run(True)
        assert np.array_equal(c_ref.rowptr, c_fast.rowptr)
        assert np.array_equal(c_ref.colidx, c_fast.colidx)
        assert np.array_equal(c_ref.values, c_fast.values)
        assert t_ref == t_fast


# ---------------------------------------------------------------------------
# epoch invalidation: cached plans never survive an in-place mutation
# ---------------------------------------------------------------------------


class TestEpochInvalidation:
    """The streaming hazard (PR 9): identity anchors compare ``is``, so an
    *in-place* mutation (a delta batch applied by ``apply_updates``) would
    replay a plan priced for the pre-update matrix.  The mutation epoch in
    every matrix-keyed structural key closes the hole."""

    def test_epoch_bump_misses_on_the_same_object(self):
        a, x = _workload()
        d = Dispatcher(shared_machine(4))
        with fastpath.force(True):
            d.vxm(a, x)
            d.vxm(a, x)
            s0 = d.plan_cache.stats()
            assert s0["hits"] == 1  # warm before the mutation
            bump_epoch(a)
            d.vxm(a, x)  # same object, new epoch → new key
            s1 = d.plan_cache.stats()
        assert s1["misses"] == s0["misses"] + 1
        assert s1["hits"] == s0["hits"]

    def test_reweight_batch_invalidates_without_nnz_change(self):
        """A reweight-only delta keeps nnz (same bucket, same shape, same
        anchor object) — only the epoch separates stale from fresh."""
        from repro.streaming import UpdateBatch, apply_batch_csr

        a, x = _workload()
        d = Dispatcher(shared_machine(4))
        with fastpath.force(True):
            y0, _ = d.vxm(a, x)
            m0 = d.plan_cache.stats()["misses"]
            # reweight one existing edge in place, the apply_updates way
            r = int(np.flatnonzero(np.diff(a.rowptr))[0])
            c = int(a.colidx[a.rowptr[r]])
            batch = UpdateBatch.from_edges(
                a.nrows, a.ncols, inserts=([r], [c], [99.0])
            )
            merged = apply_batch_csr(a, batch)
            assert merged.nnz == a.nnz  # pure reweight: bucket unchanged
            a.rowptr, a.colidx, a.values = (
                merged.rowptr, merged.colidx, merged.values,
            )
            bump_epoch(a)
            y1, _ = d.vxm(a, x)
            assert d.plan_cache.stats()["misses"] == m0 + 1
            # and the re-priced run computes on the new values: a cold
            # dispatcher over the post-update matrix agrees exactly
            y2, _ = Dispatcher(shared_machine(4)).vxm(a, x)
        assert np.array_equal(y1.indices, y2.indices)
        assert np.array_equal(y1.values, y2.values)

    def test_dist_epoch_bump_invalidates(self):
        a, _ = _workload(n=64)
        grid = LocaleGrid.for_count(4)
        m = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
        d = Dispatcher(m)
        ad = DistSparseMatrix.from_global(a, grid)
        with fastpath.force(True):
            d.mxm_dist(ad, ad)
            d.mxm_dist(ad, ad)
            s0 = d.plan_cache.stats()
            assert s0["hits"] == 1
            bump_epoch(ad)
            d.mxm_dist(ad, ad)
            s1 = d.plan_cache.stats()
        assert s1["misses"] == s0["misses"] + 1
        assert s1["hits"] == s0["hits"]

    def test_mxm_mask_epoch_is_part_of_the_key(self):
        """The fused-mask plan depends on the mask's contents too: bumping
        only the mask's epoch re-prices."""
        a = erdos_renyi(32, 3, seed=1)
        grid = LocaleGrid.for_count(4)
        m = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
        d = Dispatcher(m)
        ad = DistSparseMatrix.from_global(a, grid)
        mask = DistSparseMatrix.from_global(erdos_renyi(32, 2, seed=2), grid)
        with fastpath.force(True):
            d.mxm_dist(ad, ad, mask=mask)
            m0 = d.plan_cache.stats()["misses"]
            d.mxm_dist(ad, ad, mask=mask)  # hit
            assert d.plan_cache.stats()["misses"] == m0
            bump_epoch(mask)
            d.mxm_dist(ad, ad, mask=mask)
            assert d.plan_cache.stats()["misses"] == m0 + 1

    def test_transpose_cache_respects_epoch(self):
        a, _ = _workload()
        d = Dispatcher(shared_machine(4))
        at0 = d.transpose_of(a)
        assert d.transpose_of(a) is at0  # warm
        bump_epoch(a)
        assert d.transpose_of(a) is not at0  # rebuilt, re-billed

    @given(bumps=st.lists(st.booleans(), min_size=1, max_size=8))
    @settings(PROFILE)
    def test_no_plan_survives_any_mutation_sequence(self, bumps):
        """Property form: along any interleaving of calls and mutations, a
        hit can only ever follow a call at the *same* epoch."""
        a, x = _workload()
        d = Dispatcher(shared_machine(4))
        with fastpath.force(True):
            d.vxm(a, x)
            for do_bump in bumps:
                if do_bump:
                    bump_epoch(a)
                before = d.plan_cache.stats()
                d.vxm(a, x)
                after = d.plan_cache.stats()
                if do_bump:
                    assert after["misses"] == before["misses"] + 1
                else:
                    assert after["hits"] == before["hits"] + 1


class TestPlanCacheStats:
    def test_eviction_counter_and_telemetry(self):
        cache = PlanCache(max_entries=2)
        base = telemetry_registry.counter("dispatch.plan_cache").total(
            outcome="eviction"
        )
        cache.store(("op_a", 1), {"x": 1.0})
        cache.store(("op_a", 2), {"x": 2.0})
        assert cache.evictions == 0
        cache.store(("op_a", 3), {"x": 3.0})  # FIFO evicts key 1
        assert cache.evictions == 1
        assert cache.lookup(("op_a", 1)) is None
        assert cache.lookup(("op_a", 3)) == {"x": 3.0}
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 1, "entries": 2,
        }
        after = telemetry_registry.counter("dispatch.plan_cache").total(
            outcome="eviction"
        )
        assert after == base + 1
        assert (
            telemetry_registry.counter("dispatch.plan_cache").value(
                outcome="eviction", op="op_a"
            )
            >= 1
        )

    def test_dispatcher_mxm_plans_are_cached(self):
        a = erdos_renyi(160, 6, seed=7)
        grid = LocaleGrid(4, 4)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2))
        ad = DistSparseMatrix.from_global(a, grid)
        with fastpath.force(True):
            d.mxm_dist(ad, ad)
            h0 = d.plan_cache.stats()["hits"]
            d.mxm_dist(ad, ad)
        assert d.plan_cache.stats()["hits"] == h0 + 1
