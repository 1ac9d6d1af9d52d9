"""The sparse accumulator (SPA) of Gilbert, Moler & Schreiber.

Paper §III-D / Figure 6: the SPA "consists of a dense vector of values of
the same type as the output y, a dense vector of Booleans (isthere) for
marking whether that entry in y has been initialized, and a list (or vector)
of indices (nzinds) for which isthere has been set to true."

The SPA amortises random scatter into O(1)-per-element dense writes and is
the merge engine behind SpMSpV (:mod:`repro.ops.spmspv`) and SpGEMM
(:mod:`repro.ops.mxm`).  ``reset`` touches only the registered indices, so a
SPA can be reused across rows/iterations without O(n) clearing — the
property that makes SPA-based SpGEMM O(flops) instead of O(n·rows).
"""

from __future__ import annotations

import numpy as np

from ..algebra.monoid import Monoid, PLUS_MONOID
from ..algebra.semiring import Semiring
from .sort import unique_sorted
from .vector import SparseVector

__all__ = ["SPA"]


class SPA:
    """A sparse accumulator over the half-open index range ``[lo, hi)``.

    Parameters
    ----------
    capacity:
        Size of the dense backing arrays (``hi - lo``).
    lo:
        Index offset: global index ``i`` maps to slot ``i - lo``.  Matches
        the paper's per-locale SPA over ``ciLow..ciHigh`` (Listing 7).
    dtype:
        Value dtype of the accumulator.
    """

    def __init__(self, capacity: int, lo: int = 0, dtype=np.float64) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.lo = int(lo)
        self.capacity = int(capacity)
        self.values = np.zeros(capacity, dtype=dtype)
        self.isthere = np.zeros(capacity, dtype=bool)
        self._nzinds = np.empty(capacity, dtype=np.int64)
        self._k = 0  # the paper's atomic counter `k`

    # -- queries -------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of occupied slots."""
        return self._k

    @property
    def nzinds(self) -> np.ndarray:
        """Global indices of occupied slots, in first-touch order (unsorted)."""
        return self._nzinds[: self._k] + self.lo

    def __contains__(self, index: int) -> bool:
        return bool(self.isthere[index - self.lo])

    def __getitem__(self, index: int):
        slot = index - self.lo
        if not self.isthere[slot]:
            raise KeyError(index)
        return self.values[slot]

    # -- accumulation ----------------------------------------------------------

    def scatter(self, indices: np.ndarray, values: np.ndarray, monoid: Monoid = PLUS_MONOID) -> None:
        """Accumulate ``values`` at ``indices`` using ``monoid`` for collisions.

        Collisions *within the batch* and with previously stored entries are
        both combined through the monoid.  Vectorised: first-touch slots are
        initialised with the identity, then a segmented reduction folds the
        batch per unique index and a single combine folds into the dense
        array.
        """
        indices = np.asarray(indices, dtype=np.int64) - self.lo
        values = np.asarray(values)
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.capacity:
            raise IndexError("scatter index outside SPA range")
        uniq, inverse = np.unique(indices, return_inverse=True)
        # fold the batch per unique slot
        if uniq.size == indices.size:
            batch = values
            slots = indices
        else:
            order = np.argsort(inverse, kind="stable")
            sorted_vals = values[order]
            starts = np.searchsorted(inverse[order], np.arange(uniq.size))
            batch = np.asarray(monoid.reduceat(sorted_vals, starts))
            slots = uniq
        fresh = ~self.isthere[slots]
        fresh_slots = slots[fresh]
        self._nzinds[self._k : self._k + fresh_slots.size] = fresh_slots
        self._k += int(fresh_slots.size)
        self.isthere[fresh_slots] = True
        self.values[fresh_slots] = batch[fresh]
        stale = ~fresh
        if stale.any():
            s = slots[stale]
            self.values[s] = monoid.op(self.values[s], batch[stale])

    def scatter_first(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Keep only the first value seen per index (paper Listing 7:
        "only keeping the first index").

        Later writes to an occupied slot are ignored, and within one batch
        the earliest element wins — matching sequential first-touch.
        """
        indices = np.asarray(indices, dtype=np.int64) - self.lo
        values = np.asarray(values)
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.capacity:
            raise IndexError("scatter index outside SPA range")
        uniq, first_pos = np.unique(indices, return_index=True)
        fresh = ~self.isthere[uniq]
        slots = uniq[fresh]
        self._nzinds[self._k : self._k + slots.size] = slots
        self._k += int(slots.size)
        self.isthere[slots] = True
        self.values[slots] = values[first_pos[fresh]]

    # -- extraction ---------------------------------------------------------------

    def gather(self, sort: bool = True) -> SparseVector:
        """Extract the accumulated entries as a :class:`SparseVector`.

        ``sort=True`` performs the paper's Step-2 sort so the output obeys
        the sorted-indices invariant.
        """
        slots = self._nzinds[: self._k]
        if sort:
            order = np.argsort(slots, kind="stable")
            slots = slots[order]
        return SparseVector(self.capacity, slots + self.lo, self.values[slots])

    def gather_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (copy of dense values, copy of isthere) without compacting."""
        return self.values.copy(), self.isthere.copy()

    def reset(self) -> None:
        """Clear occupied slots only — O(nnz), not O(capacity)."""
        slots = self._nzinds[: self._k]
        self.isthere[slots] = False
        self.values[slots] = 0
        self._k = 0

    def check(self) -> None:
        """Raise ``AssertionError`` if internal bookkeeping is inconsistent."""
        slots = self._nzinds[: self._k]
        assert unique_sorted(slots).size == slots.size, "duplicate slots in nzinds"
        assert self.isthere[slots].all(), "nzinds points at unoccupied slot"
        assert self.isthere.sum() == self._k, "isthere count mismatch"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SPA(capacity={self.capacity}, lo={self.lo}, nnz={self.nnz})"
