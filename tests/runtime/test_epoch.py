"""The shared transpose cache: identity + epoch keyed, entries die with
their sources (the backend- and dispatcher-level leak tests live in
``tests/exec/test_backend.py`` and ``tests/ops/test_dispatch.py``)."""

from __future__ import annotations

import gc
import weakref

from repro.generators import erdos_renyi
from repro.runtime.epoch import TransposeCache, bump_epoch


def pair(seed=1):
    a = erdos_renyi(20, 3, seed=seed)
    return a, a.transposed()


class TestTransposeCache:
    def test_hit_until_either_side_mutates(self):
        cache = TransposeCache()
        a, at = pair()
        cache.put(a, at)
        assert cache.get(a) is at
        bump_epoch(at)
        assert cache.get(a) is None
        cache.put(a, at)
        assert cache.get(a) is at
        bump_epoch(a)
        assert cache.get(a) is None

    def test_value_lives_exactly_as_long_as_its_source(self):
        cache = TransposeCache()
        a, at = pair()
        cache.put(a, at)
        cache.put(at, a, weak=True)
        value = weakref.ref(at)
        del at
        gc.collect()
        assert value() is not None and cache.get(a) is value()
        assert cache.get(value()) is a
        del a
        gc.collect()
        assert value() is None
        assert len(cache) == 0
