"""From-scratch sorting kernels used by the SpMSpV output stage.

Paper §III-D: "we use parallel merge sort available in Chapel.  Since SpMSpV
requires sorting of integer indices, a less expensive integer sorting
algorithm (e.g., radix sort) is expected to reduce the sorting cost down".

Two algorithms are provided, each in two proven-bit-identical forms:

* a **reference** implementation (``merge_sort_reference`` /
  ``radix_sort_reference``) that spells the paper's algorithm out step by
  step in Python — bottom-up merge passes, per-digit counting scatters —
  and is the oracle the differential suite
  (``tests/ops/test_kernel_oracles.py``) pins the fast path against;
* a **vectorized fast path** (used when
  :mod:`repro.runtime.fastpath` is enabled, the default) that produces the
  same sorted array through numpy's C loops — per-8-bit-digit stable
  ``argsort`` passes for radix, one stable sort for merge.  Sorting bare
  integer keys has a unique answer, so bit-identity holds by construction
  and the suite enforces it anyway.

:func:`row_major_order` is the matrix-side counterpart: the one stable
(row, col) ordering behind every COO coalesce and SpGEMM compress.

The *simulated* cost of sorting is charged by
:func:`repro.runtime.tasks.sort_time` from the pass structure of the
reference algorithms; which implementation executes never changes a
simulated number — only wall-clock time (``benchmarks/test_abl_wall.py``).
"""

from __future__ import annotations

import numpy as np

from ..runtime import fastpath

__all__ = [
    "merge_sort",
    "merge_sort_reference",
    "radix_sort",
    "radix_sort_reference",
    "merge_two",
    "merge_sort_cost",
    "radix_sort_cost",
    "stable_argsort_bounded",
    "row_major_order",
    "unique_sorted",
    "first_occurrences",
]


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct integer ``keys``, ascending: ``np.unique(keys)`` by
    sort-and-compare.

    A plain ``np.unique`` of integers takes numpy 2's hash-based path,
    tens of times slower than one sort (0.69 s vs 0.012 s for 1 M int64
    keys) for the same output.
    """
    s = np.sort(np.asarray(keys).ravel())
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, inverse)`` with ``distinct[inverse] == keys``: the
    distinct integer ``keys`` in first-occurrence order, sort-based."""
    uniq = unique_sorted(keys)
    slot = np.searchsorted(uniq, keys)
    first = np.full(uniq.size, keys.size, dtype=np.int64)
    np.minimum.at(first, slot, np.arange(keys.size))
    kept = np.sort(first)
    return keys[kept], np.searchsorted(kept, first[slot])


def stable_argsort_bounded(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys
    known to be ``< bound``.

    numpy's stable argsort is an LSD radix sort only for keys of 16 bits
    or fewer; wider keys get timsort.  Casting to the narrowest unsigned
    dtype that holds ``bound - 1`` is order-preserving and injective, hence
    the stable permutation is *identical* — the differential suite pins
    this.  Bounds up to ``2**16`` thus buy a radix sort.  Wider keys sort
    as they are: a ``uint32`` cast buys no radix sort, and its timsort was
    no faster on the superstep merges of ``bfs`` (bound 200 000).
    Only active on the fast path; reference mode keeps the plain argsort.
    """
    if fastpath.enabled() and keys.size >= 64 and 0 < bound <= (1 << 16):
        if bound <= (1 << 8):
            return np.argsort(keys.astype(np.uint8), kind="stable")
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def row_major_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``np.lexsort((cols, rows))``: the stable permutation that orders
    ``(row, col)`` coordinates row-major, ties kept in input order.

    The one place the library decides how to order (row, col) triples.
    Fast path: one in-place ``np.sort`` over int64 values that pack the
    linear key ``(row - rmin) * span_c + (col - cmin)`` above the position
    bits.  Every packed value is unique, so an unstable C sort yields the
    stable order, and masking off the key leaves the permutation — one
    direct sort of n words instead of two indirect stable passes.
    Reference mode, arrays under 64 elements and packed keys that would
    overflow int64 keep ``lexsort``.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    n = rows.size
    if fastpath.enabled() and n >= 64:
        rmin, rmax = int(rows.min()), int(rows.max())
        cmin, cmax = int(cols.min()), int(cols.max())
        span_c = cmax - cmin + 1
        bits = (n - 1).bit_length()
        if ((rmax - rmin + 1) * span_c) << bits <= 1 << 63:
            packed = np.subtract(rows, rmin, dtype=np.int64)
            packed *= span_c
            # may wrap before the subtraction; int64 arithmetic is modulo
            # 2**64 and the final key fits, so the result is exact
            packed += cols
            packed -= cmin
            packed <<= bits
            packed |= np.arange(n, dtype=np.int64)
            packed.sort()
            packed &= (1 << bits) - 1
            return packed
    return np.lexsort((cols, rows))


def merge_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two individually sorted arrays into one sorted array.

    Vectorised merge: the final position of ``a[i]`` is ``i`` plus the
    number of elements of ``b`` strictly smaller than ``a[i]`` (ties broken
    toward ``a`` for stability), computed with one ``searchsorted`` per side.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
    pos_a = np.arange(a.size) + np.searchsorted(b, a, side="left")
    pos_b = np.arange(b.size) + np.searchsorted(a, b, side="right")
    out[pos_a] = a
    out[pos_b] = b
    return out


def merge_sort_reference(keys: np.ndarray) -> np.ndarray:
    """Bottom-up merge sort, pass by pass; returns a new sorted array.

    Runs double in width each pass; each pass merges adjacent run pairs with
    the vectorised :func:`merge_two`.  O(n log n) comparisons, log2(n)
    passes — the pass count is what the simulated parallel-sort cost model
    charges (each pass is a parallel step in Chapel's merge sort).
    """
    keys = np.asarray(keys)
    n = keys.size
    if n <= 1:
        return keys.copy()
    cur = keys.copy()
    width = 1
    while width < n:
        nxt = np.empty_like(cur)
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            nxt[lo:hi] = merge_two(cur[lo:mid], cur[mid:hi])
        cur = nxt
        width *= 2
    return cur


def merge_sort(keys: np.ndarray) -> np.ndarray:
    """Merge sort of integer keys; returns a new sorted array.

    Fast path: one stable C sort (bit-identical to the reference — sorted
    bare keys are unique).  Reference mode runs the explicit bottom-up
    passes of :func:`merge_sort_reference`.
    """
    if not fastpath.enabled():
        return merge_sort_reference(keys)
    keys = np.asarray(keys)
    if keys.size <= 1:
        return keys.copy()
    return np.sort(keys, kind="stable")


def radix_sort_reference(keys: np.ndarray, key_bits: int | None = None) -> np.ndarray:
    """LSD radix sort spelled out: per-digit counting passes in Python.

    Counting sort per 8-bit digit: histogram with ``bincount``, exclusive
    prefix sum for bucket offsets, stable per-bucket scatter.  Number of
    passes is ``ceil(key_bits / 8)`` where ``key_bits`` defaults to the bit
    width of the maximum key — sorting n-bounded graph indices takes 3-4
    passes instead of merge sort's log2(nnz) passes, which is the paper's
    argument for radix sort.
    """
    keys = np.asarray(keys)
    if keys.size and keys.min() < 0:
        raise ValueError("radix_sort requires non-negative keys")
    if keys.size <= 1:
        return keys.copy()
    if key_bits is None:
        mx = int(keys.max())
        key_bits = max(int(mx).bit_length(), 1)
    cur = keys.astype(np.int64, copy=True)
    n_passes = (key_bits + 7) // 8
    out = np.empty_like(cur)
    for p in range(n_passes):
        digits = (cur >> (8 * p)) & 0xFF
        counts = np.bincount(digits, minlength=256)
        offsets = np.zeros(256, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        # stable counting-sort scatter: flatnonzero yields each bucket's
        # members in ascending original order, preserving stability.
        for b in np.flatnonzero(counts):
            members = np.flatnonzero(digits == b)
            out[offsets[b] : offsets[b] + members.size] = cur[members]
        cur, out = out, cur
    # hand back the caller's dtype (the size<=1 path already preserves it)
    return cur.astype(keys.dtype, copy=True)


def radix_sort(keys: np.ndarray, key_bits: int | None = None) -> np.ndarray:
    """LSD radix sort of non-negative integer keys; returns a sorted copy.

    Fast path: the same LSD pass structure (``ceil(key_bits / 8)`` stable
    passes over 8-bit digits), with each pass's counting scatter executed
    as one vectorized stable ``argsort`` of the digit array instead of a
    per-bucket Python loop.  Stability per pass is what makes LSD radix
    correct, so the result is bit-identical to
    :func:`radix_sort_reference` — the oracle suite pins it.
    """
    if not fastpath.enabled():
        return radix_sort_reference(keys, key_bits)
    keys = np.asarray(keys)
    if keys.size and keys.min() < 0:
        raise ValueError("radix_sort requires non-negative keys")
    if keys.size <= 1:
        return keys.copy()
    if key_bits is None:
        mx = int(keys.max())
        key_bits = max(int(mx).bit_length(), 1)
    cur = keys.astype(np.int64, copy=True)
    n_passes = (key_bits + 7) // 8
    for p in range(n_passes):
        digits = ((cur >> (8 * p)) & 0xFF).astype(np.uint8)
        cur = cur[np.argsort(digits, kind="stable")]
    return cur.astype(keys.dtype, copy=True)


def merge_sort_cost(n: int) -> float:
    """Abstract work units for merge-sorting ``n`` keys (n·log2 n compares)."""
    if n <= 1:
        return float(n)
    return float(n) * max(np.log2(n), 1.0)


def radix_sort_cost(n: int, key_bits: int = 32) -> float:
    """Abstract work units for radix-sorting ``n`` keys (n per digit pass)."""
    passes = max((key_bits + 7) // 8, 1)
    return float(n) * passes
