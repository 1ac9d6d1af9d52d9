"""Unit tests for the epoch-keyed result cache: identity anchoring, LRU
bounds, epoch invalidation, and the telemetry counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import DistBackend, ShmBackend
from repro.generators import erdos_renyi
from repro.runtime import LocaleGrid, Machine
from repro.runtime.epoch import bump_epoch
from repro.runtime.telemetry.registry import MetricsRegistry
from repro.service import ResultCache
from repro.streaming import UpdateBatch

pytestmark = pytest.mark.service


@pytest.fixture
def cache():
    return ResultCache(max_entries=4, registry=MetricsRegistry())


class Storage:
    """A minimal stand-in for a mutable storage object (epoch carrier)."""


def dist_backend() -> DistBackend:
    return DistBackend(Machine(grid=LocaleGrid.for_count(4), threads_per_locale=2))


class TestResultCache:
    def test_miss_then_hit(self, cache):
        s = Storage()
        assert cache.get("bfs", (0,), s) is None
        cache.put("bfs", (0,), s, np.arange(3))
        got = cache.get("bfs", (0,), s)
        np.testing.assert_array_equal(got, np.arange(3))
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}

    def test_args_and_algo_are_part_of_the_key(self, cache):
        s = Storage()
        cache.put("bfs", (0,), s, np.zeros(2))
        assert cache.get("bfs", (1,), s) is None
        assert cache.get("sssp", (0,), s) is None

    def test_epoch_bump_invalidates(self, cache):
        s = Storage()
        cache.put("bfs", (0,), s, np.zeros(2))
        bump_epoch(s)
        assert cache.get("bfs", (0,), s) is None
        cache.put("bfs", (0,), s, np.ones(2))
        np.testing.assert_array_equal(cache.get("bfs", (0,), s), np.ones(2))

    @pytest.mark.parametrize("make", [ShmBackend, dist_backend], ids=["shm", "dist"])
    def test_backend_handles_are_their_own_storage(self, cache, make):
        b = make()
        h = b.matrix(erdos_renyi(16, 2, seed=2))
        cache.put("bfs", (0,), h, np.zeros(2))
        # re-adopting the handle yields the same storage, so it still hits
        assert cache.get("bfs", (0,), b.matrix(h)) is not None
        b.apply_updates(h, UpdateBatch.from_edges(16, 16, inserts=([0], [1])))
        assert cache.get("bfs", (0,), h) is None

    def test_different_storage_objects_do_not_collide(self, cache):
        s1, s2 = Storage(), Storage()
        cache.put("bfs", (0,), s1, np.zeros(2))
        assert cache.get("bfs", (0,), s2) is None

    def test_lru_eviction_at_capacity(self, cache):
        s = Storage()
        for i in range(4):
            cache.put("bfs", (i,), s, np.full(1, i))
        cache.get("bfs", (0,), s)  # refresh 0 so 1 is the LRU victim
        cache.put("bfs", (9,), s, np.full(1, 9))
        assert cache.stats()["evictions"] == 1
        assert cache.get("bfs", (1,), s) is None  # evicted
        assert cache.get("bfs", (0,), s) is not None  # survived via refresh

    def test_real_matrix_storage_round_trip(self, cache):
        a = erdos_renyi(16, 2, seed=1)
        cache.put("bfs", (3,), a, np.arange(16))
        assert cache.get("bfs", (3,), a) is not None
        bump_epoch(a)
        assert cache.get("bfs", (3,), a) is None

    def test_telemetry_counter_matches_stats(self):
        reg = MetricsRegistry()
        cache = ResultCache(max_entries=2, registry=reg)
        s = Storage()
        for i in range(3):
            cache.get("bfs", (i,), s)
            cache.put("bfs", (i,), s, np.zeros(1))
        cache.get("bfs", (2,), s)
        c = reg.counter("service.cache")
        stats = cache.stats()
        assert c.total(outcome="hit") == stats["hits"]
        assert c.total(outcome="miss") == stats["misses"]
        assert c.total(outcome="evict") == stats["evictions"]

    def test_clear_keeps_counters(self, cache):
        s = Storage()
        cache.put("bfs", (0,), s, np.zeros(1))
        cache.get("bfs", (0,), s)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
