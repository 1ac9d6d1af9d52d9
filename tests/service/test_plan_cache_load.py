"""PlanCache telemetry under concurrent service load (satellite of PR 10).

The dispatcher's plan cache exports a labelled ``dispatch.plan_cache``
counter to the *default* registry.  Under a multi-tenant service load —
many batches, both traversal families, streaming mutations bumping the
epoch mid-run — every event must come from the backend's one persistent
dispatcher (``DistBackend.mxm`` reuses it rather than minting a
throwaway ``Dispatcher`` per call), so the exported
totals reconcile exactly with that instance's ``stats()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import DistBackend
from repro.generators import erdos_renyi
from repro.ops.dispatch import PlanCache
from repro.runtime import CostLedger, LocaleGrid, Machine
from repro.runtime.telemetry import registry as _metrics
from repro.runtime.telemetry.registry import MetricsRegistry
from repro.service import GraphQueryService, QuerySpec
from repro.sparse.csr import CSRMatrix
from repro.streaming import GraphStream, UpdateBatch

pytestmark = pytest.mark.service

N = 48


@pytest.fixture
def isolated_default_registry():
    """The plan cache reports to the default registry; isolate it."""
    fresh = MetricsRegistry()
    old = _metrics.default_registry()
    _metrics.set_default_registry(fresh)
    try:
        yield fresh
    finally:
        _metrics.set_default_registry(old)


def _backend(cache_entries: int = 2) -> DistBackend:
    b = DistBackend(
        Machine(grid=LocaleGrid.for_count(4), threads_per_locale=2, ledger=CostLedger())
    )
    # a tiny cache so the load forces evictions, not just misses
    b.dispatcher.plan_cache = PlanCache(max_entries=cache_entries)
    return b


def _drive_load(svc: GraphQueryService) -> None:
    """Three waves of mixed-tenant, mixed-algo queries plus a mutation."""
    for wave in range(3):
        for i in range(6):
            svc.submit(f"t{i % 3}", QuerySpec("bfs", (i + wave) % N), at=float(wave))
            svc.submit(f"t{i % 3}", QuerySpec("sssp", (i + wave) % N), at=float(wave))
    svc.submit_update(
        UpdateBatch.from_edges(N, N, inserts=([0, 1], [7, 9]), deletes=([2], [3])),
        at=1.5,
    )
    svc.run()


class TestPlanCacheUnderServiceLoad:
    def test_exported_totals_equal_stats(self, isolated_default_registry):
        b = _backend()
        stream = GraphStream(b, erdos_renyi(N, 4, seed=3), registry=MetricsRegistry())
        svc = GraphQueryService(b, stream, registry=MetricsRegistry())
        _drive_load(svc)
        assert svc.stats.completed > 0
        stats = b.dispatcher.plan_cache.stats()
        counter = isolated_default_registry.counter("dispatch.plan_cache")
        assert counter.total(outcome="hit") == stats["hits"]
        assert counter.total(outcome="miss") == stats["misses"]
        assert counter.total(outcome="eviction") == stats["evictions"]
        # the load is real: fresh frontiers price plans and overflow the cache
        assert stats["misses"] > 0
        assert stats["evictions"] > 0
        assert stats["entries"] <= 2
        # every mxm priced through the one persistent dispatcher
        assert counter.total(op="mxm_dist") == sum(
            stats[k] for k in ("hits", "misses", "evictions")
        )

    def test_repeat_identical_mxm_hits_and_is_exported(
        self, isolated_default_registry
    ):
        """A hit requires the identical operand objects: replay one mxm
        verbatim after the load and watch the hit land in both views."""
        b = _backend(cache_entries=8)
        a = erdos_renyi(N, 4, seed=3)
        svc = GraphQueryService(b, a, registry=MetricsRegistry())
        _drive_load_static(svc)
        from repro.algebra.semiring import PLUS_PAIR

        ah = svc.handle
        frontier = b.matrix(
            CSRMatrix.from_triples(1, N, [0], [5], [1.0])
        )
        before = b.dispatcher.plan_cache.stats()
        first = b.to_csr(b.mxm(frontier, ah, semiring=PLUS_PAIR))
        second = b.to_csr(b.mxm(frontier, ah, semiring=PLUS_PAIR))
        after = b.dispatcher.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1
        counter = isolated_default_registry.counter("dispatch.plan_cache")
        assert counter.total(outcome="hit") == after["hits"]
        # replayed pricing never changes values
        np.testing.assert_array_equal(first.colidx, second.colidx)
        np.testing.assert_array_equal(first.values, second.values)

    def test_shm_service_load_prices_no_dist_plans(self, isolated_default_registry):
        """The shared-memory mxm kernel is dispatcherless: a pure-shm
        service load must not touch the mxm_dist plan namespace."""
        from repro.exec import ShmBackend

        b = ShmBackend(
            Machine(grid=LocaleGrid(1, 1), threads_per_locale=4, ledger=CostLedger())
        )
        svc = GraphQueryService(b, erdos_renyi(N, 4, seed=3), registry=MetricsRegistry())
        _drive_load_static(svc)
        assert svc.stats.completed > 0
        counter = isolated_default_registry.counter("dispatch.plan_cache")
        assert counter.total(op="mxm_dist") == 0


def _drive_load_static(svc: GraphQueryService) -> None:
    """The query waves of :func:`_drive_load`, without the stream mutation."""
    for wave in range(3):
        for i in range(6):
            svc.submit(f"t{i % 3}", QuerySpec("bfs", (i + wave) % N), at=float(wave))
            svc.submit(f"t{i % 3}", QuerySpec("sssp", (i + wave) % N), at=float(wave))
    svc.run()
