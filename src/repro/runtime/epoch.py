"""Mutation epochs — the cache-invalidation currency of streaming updates.

The plan cache (:class:`~repro.ops.dispatch.PlanCache`) and the transpose
caches key on *operand identity*: the same matrix object is assumed to
hold the same data.  Batch-static workloads satisfy that by construction
— storage is never mutated after build — but the streaming engine
(:mod:`repro.streaming`) applies delta batches **in place**, so identity
anchors alone would happily replay a plan (or a materialised ``Aᵀ``)
priced against data that no longer exists.

This module is the fix's single primitive: every mutable storage object
(:class:`~repro.sparse.csr.CSRMatrix`,
:class:`~repro.distributed.dist_matrix.DistSparseMatrix`, …) carries a
monotonically increasing **mutation epoch**, 0 until the first in-place
mutation.  Anything that mutates storage calls :func:`bump_epoch`;
anything that caches derived state includes :func:`epoch_of` in its key
(or stores it next to the identity anchor) — a mutated operand is then a
guaranteed cache miss, never a stale hit.

Backend handles *are* the storage objects on both backends, so the
storage is the one place a mutation is observable from every alias.
:class:`TransposeCache` is the one transpose cache built on these epochs;
the dispatcher and the distributed backend each own one.
"""

from __future__ import annotations

import weakref

__all__ = ["EPOCH_ATTR", "epoch_of", "bump_epoch", "TransposeCache"]

#: attribute carrying the mutation counter on storage objects.
EPOCH_ATTR = "_mutation_epoch"


def epoch_of(obj) -> int:
    """The mutation epoch of ``obj`` (0 for never-mutated objects)."""
    return getattr(obj, EPOCH_ATTR, 0)


def bump_epoch(obj) -> int:
    """Mark one in-place mutation of ``obj``; returns the new epoch.

    Every cached plan or derived matrix keyed on the old epoch becomes
    unreachable the moment this returns.
    """
    epoch = epoch_of(obj) + 1
    setattr(obj, EPOCH_ATTR, epoch)
    return epoch


def _forget(cache_ref, key: int) -> None:
    """Finalizer: drop a dead source's entry from a live cache."""
    cache = cache_ref()
    if cache is not None:
        cache._entries.pop(key, None)


class TransposeCache:
    """Materialised transposes keyed by source identity and epoch.

    An entry maps ``id(a)`` to ``Aᵀ`` together with both objects'
    mutation epochs; :meth:`get` hits only while neither has been
    mutated since :meth:`put`.  A ``weakref.finalize`` on the source
    drops its entry when the source dies (holding only a weakref to the
    cache), so the cache never keeps a source alive and a recycled
    ``id`` can never alias a dead source's transpose.

    The value is held strongly by default — ``Aᵀ`` lives exactly as
    long as ``A``.  A reverse entry ``Aᵀ → A`` must be stored with
    ``weak=True``: held strongly, it and the forward entry would keep
    each other's source alive forever.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, src):
        """The cached transpose of ``src`` at both current epochs, or ``None``."""
        hit = self._entries.get(id(src))
        if hit is None:
            return None
        epoch, value_epoch, value = hit
        if isinstance(value, weakref.ref):
            value = value()
        if value is None or epoch != epoch_of(src) or value_epoch != epoch_of(value):
            return None
        return value

    def put(self, src, value, *, weak: bool = False):
        """Cache ``value`` as the transpose of ``src``; returns ``value``."""
        key = id(src)
        if key not in self._entries:
            weakref.finalize(src, _forget, weakref.ref(self), key)
        held = weakref.ref(value) if weak else value
        self._entries[key] = (epoch_of(src), epoch_of(value), held)
        return value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TransposeCache(entries={len(self)})"
