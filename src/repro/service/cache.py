"""Serving-layer result cache, invalidated by mutation epochs.

Hot queries (the same tenant — or many tenants — asking for the same
traversal) should not re-run the kernel pipeline.  The cache stores
finished per-source results keyed on

    ``(algo, args, storage identity, mutation epoch)``

with the storage object itself kept as an *identity anchor* (compared
with ``is``, exactly like :class:`~repro.ops.dispatch.PlanCache`), so a
recycled ``id()`` can never alias a dead graph's results.  The epoch
component is the whole invalidation story: every streaming delta batch
bumps the storage's mutation epoch (:mod:`repro.runtime.epoch`) through
the backend's ``apply_updates``, which makes every cached result from
before the mutation *unreachable* — stale entries are never patched,
they simply stop matching and age out LRU.

Hits/misses/evictions export to the telemetry registry as the
``service.cache`` counter (labels ``outcome=hit|miss|evict``) —
observability only, outside the determinism contract.
"""

from __future__ import annotations

from collections import OrderedDict

from ..runtime.epoch import epoch_of
from ..runtime.telemetry import registry as _metrics

__all__ = ["ResultCache"]

_MISS = object()


class ResultCache:
    """Bounded LRU of finished query results (see module docstring)."""

    def __init__(self, max_entries: int = 256, *, registry=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple[object, object]] = OrderedDict()
        self._registry = registry if registry is not None else _metrics.default_registry()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, outcome: str, algo: str) -> None:
        self._registry.counter("service.cache").inc(1, outcome=outcome, algo=algo)

    @staticmethod
    def key(algo: str, args: tuple, handle) -> tuple[tuple, object]:
        """The structural key plus the identity anchor for ``handle`` (every
        backend handle is its own storage, the epoch carrier)."""
        return (algo, args, id(handle), epoch_of(handle)), handle

    def get(self, algo: str, args: tuple, handle):
        """The cached result for the query *at the handle's current
        epoch*, or the module-private miss sentinel via ``None``."""
        key, anchor = self.key(algo, args, handle)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is anchor:
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("hit", algo)
            return entry[1]
        if entry is not None:  # id-reuse collision: drop the impostor
            del self._entries[key]
        self.misses += 1
        self._count("miss", algo)
        return None

    def put(self, algo: str, args: tuple, handle, result) -> None:
        """Store ``result`` under the handle's *current* epoch."""
        key, anchor = self.key(algo, args, handle)
        self._entries[key] = (anchor, result)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("evict", algo)

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self),
        }

    def clear(self) -> None:
        """Drop every entry (counters survive for inspection)."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ResultCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
