"""Differential oracles: every vectorized fast path vs its pure reference.

The simulator fast path (:mod:`repro.runtime.fastpath`) promises that the
numpy-vectorized kernels are **bit-identical** — not approximately equal —
to the retained reference implementations: same values, same dtypes, same
simulated-cost breakdowns.  This suite is that promise's enforcement; each
property runs the same computation with the switch forced off (reference)
and on (fast) and compares exactly (``array_equal`` plus dtype equality,
never ``allclose``).

Coverage, per the fast-path inventory in ``docs/performance.md``:

* ``stable_argsort_bounded`` (the narrow-key radix argsort) vs the plain
  stable argsort — spanning the uint8/uint16 width cuts, the wider bounds
  that sort as they are and the small-array bypass;
* ``merge_sort`` / ``radix_sort`` vs their spelled-out references;
* ``row_major_order`` (the packed-key sort) and ``coalesce`` vs
  ``np.lexsort`` — duplicates, negative coordinates, int64 wrap-around,
  spans past the packing limit, and the size-64 bypass;
* ``CSRMatrix.transposed`` (the bounded radix argsort) fast vs reference;
* ``Monoid.reduceat_dense`` vs ``Monoid.reduceat`` under the dense-starts
  guarantee, across monoids and dtypes;
* ``SparseVector.from_pairs`` (build with duplicates) fast vs reference;
* ``CSRMatrix`` row-gather ``_ranges`` fast vs reference, including
  zero-length segments;
* ``group_by_owner`` vs a per-owner boolean-mask loop;
* the SPA kernel ``spmspv_shm`` (both sorts, masks, complements), the
  sort-based ``spmspv_shm_merge``, and ``mxm_gustavson`` vs
  ``mxm_gustavson_reference``;
* the 2-D partitioner (``DistSparseMatrix.from_global``) and the full
  distributed kernel ``spmspv_dist`` on square *and* non-square grids,
  masks and complements and ledger breakdowns included.

The SpMSpV oracles sample non-commutative multiplies (``MIN_FIRST``,
``MAX_SECOND``) too: the fast path multiplies only the products its mask
keeps, so a swapped operand order there would show.

Dtype diversity (float64 / int64 / bool), empty frontiers, and duplicate
indices are explicit strategy dimensions, not accidents of sampling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.monoid import (
    LAND_MONOID,
    LOR_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    PLUS_MONOID,
    TIMES_MONOID,
)
from repro.algebra.semiring import LOR_LAND, MAX_SECOND, MIN_FIRST, MIN_PLUS, PLUS_TIMES
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.ops.mxm import mxm_gustavson, mxm_gustavson_reference
from repro.ops.spmspv import spmspv_dist, spmspv_shm
from repro.ops.spmspv_merge import spmspv_shm_merge
from repro.runtime import CostLedger, LocaleGrid, Machine, fastpath, shared_machine
from repro.runtime.aggregation import group_by_owner
from repro.sparse.coo import coalesce
from repro.sparse.csr import CSRMatrix, _ranges
from repro.sparse.sort import (
    merge_sort,
    merge_sort_reference,
    radix_sort,
    radix_sort_reference,
    row_major_order,
    stable_argsort_bounded,
)
from repro.sparse.vector import SparseVector
from tests.strategies import PROFILE, PROFILE_FAST, matrix_vector_pairs
from tests.strategies.vectors import dense_masks

MONOIDS = [
    PLUS_MONOID,
    TIMES_MONOID,
    MIN_MONOID,
    MAX_MONOID,
    LOR_MONOID,
    LAND_MONOID,
]

#: value dtypes every oracle exercises; values are small integers, exactly
#: representable in all three, so cross-dtype programs stay bit-comparable
DTYPES = [np.float64, np.int64, np.bool_]


def _both_modes(fn):
    """Run ``fn`` with the fast path off then on; return (reference, fast)."""
    with fastpath.force(False):
        ref = fn()
    with fastpath.force(True):
        fast = fn()
    return ref, fast


def assert_same_array(ref: np.ndarray, fast: np.ndarray, label: str = "") -> None:
    assert ref.dtype == fast.dtype, (label, ref.dtype, fast.dtype)
    assert np.array_equal(ref, fast), label


def assert_same_vector(ref: SparseVector, fast: SparseVector) -> None:
    assert ref.capacity == fast.capacity
    assert_same_array(ref.indices, fast.indices, "indices")
    assert_same_array(ref.values, fast.values, "values")


# ---------------------------------------------------------------------------
# sorting primitives
# ---------------------------------------------------------------------------


class TestStableArgsortBounded:
    @given(
        keys=st.lists(st.integers(0, 2**33), min_size=0, max_size=200),
        data=st.data(),
    )
    @settings(PROFILE)
    def test_matches_plain_stable_argsort(self, keys, data):
        """The narrowed-dtype argsort must return the *identical* stable
        permutation for every bound classification (uint8/uint16/plain),
        on both sides of the size-64 bypass."""
        keys = np.array(keys, dtype=np.int64)
        hi = int(keys.max()) + 1 if keys.size else 1
        bound = data.draw(
            st.sampled_from(
                sorted({hi, 2**8, 2**16, 2**32, 2**33, hi + 255})
            ).filter(lambda b: b >= hi)
        )
        ref, fast = _both_modes(lambda: stable_argsort_bounded(keys, bound))
        assert_same_array(ref, fast)
        assert np.array_equal(ref, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("bound", [1, 255, 256, 2**16, 2**16 + 1, 2**32])
    def test_duplicates_keep_stable_order(self, bound):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, bound, size=300, dtype=np.int64)
        ref, fast = _both_modes(lambda: stable_argsort_bounded(keys, bound))
        assert_same_array(ref, fast, f"bound={bound}")

    def test_empty(self):
        keys = np.empty(0, dtype=np.int64)
        ref, fast = _both_modes(lambda: stable_argsort_bounded(keys, 10))
        assert_same_array(ref, fast)


class TestSortKernels:
    @given(keys=st.lists(st.integers(0, 2**20), max_size=120))
    @settings(PROFILE)
    def test_merge_sort_matches_reference(self, keys):
        keys = np.array(keys, dtype=np.int64)
        ref, fast = _both_modes(lambda: merge_sort(keys.copy()))
        assert_same_array(ref, fast)
        assert np.array_equal(ref, merge_sort_reference(keys.copy()))

    @given(keys=st.lists(st.integers(0, 2**20), max_size=120))
    @settings(PROFILE)
    def test_radix_sort_matches_reference(self, keys):
        keys = np.array(keys, dtype=np.int64)
        ref, fast = _both_modes(lambda: radix_sort(keys.copy()))
        assert_same_array(ref, fast)
        assert np.array_equal(ref, radix_sort_reference(keys.copy()))


#: coordinate regimes for the row-major oracles: ``(row lo, row hi, col
#: lo, col hi)`` half-open ranges.  The "wrap" regimes overflow int64 in
#: the packed key's intermediate sum; "wide" spans past the packing
#: limit, so the fast path must fall back to lexsort.
COORDS = {
    "duplicates": (0, 3, 0, 4),
    "negative": (-40, 40, -7, 5),
    "wrap": (0, 2**20, 2**63 - 2**30, 2**63 - 1),
    "wrap_negative": (0, 2**20, -(2**63), -(2**63) + 2**30),
    "wide": (-(2**40), 2**40, 0, 2**30),
}


def _triples(n, regime, dtype, seed=0):
    rng = np.random.default_rng(seed)
    rlo, rhi, clo, chi = COORDS[regime]
    rows = rng.integers(rlo, rhi, size=n, dtype=np.int64)
    cols = rng.integers(clo, chi, size=n, dtype=np.int64)
    vals = rng.integers(-4, 5, size=n).astype(dtype)
    return rows, cols, vals


class TestRowMajorOrder:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 1000])
    @pytest.mark.parametrize("regime", sorted(COORDS))
    def test_matches_lexsort(self, n, regime):
        rows, cols, _ = _triples(n, regime, np.int64)
        ref, fast = _both_modes(lambda: row_major_order(rows, cols))
        assert_same_array(ref, fast, regime)
        assert_same_array(np.lexsort((cols, rows)), fast, regime)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 1000])
    @pytest.mark.parametrize("regime", sorted(COORDS))
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dup", [PLUS_MONOID, MIN_MONOID])
    def test_coalesce_matches_reference(self, n, regime, dtype, dup):
        rows, cols, vals = _triples(n, regime, dtype, seed=n)
        ref, fast = _both_modes(lambda: coalesce(rows, cols, vals, dup))
        for r, f, label in zip(ref, fast, ("rows", "cols", "values")):
            assert_same_array(r, f, f"{regime} {label}")

    @given(
        coords=st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-(2**31), 2**31)),
            max_size=200,
        )
    )
    @settings(PROFILE)
    def test_property_matches_lexsort(self, coords):
        rows = np.array([r for r, _ in coords], dtype=np.int64)
        cols = np.array([c for _, c in coords], dtype=np.int64)
        ref, fast = _both_modes(lambda: row_major_order(rows, cols))
        assert_same_array(ref, fast)
        assert_same_array(np.lexsort((cols, rows)), fast)

    @pytest.mark.parametrize("extra_col, lexsort_calls", [(0, 0), (1, 1)])
    def test_packing_limit(self, monkeypatch, extra_col, lexsort_calls):
        """n = 64 packs 6 position bits, leaving 2**57 linear keys: a
        2**28 x 2**29 span is the largest that takes the packed sort, one
        more column falls back to lexsort."""
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2**28, size=64, dtype=np.int64)
        cols = rng.integers(0, 2**29 + extra_col, size=64, dtype=np.int64)
        rows[:2] = 0, 2**28 - 1
        cols[:2] = 0, 2**29 - 1 + extra_col
        calls = []
        lexsort = np.lexsort

        def spy(keys):
            calls.append(1)
            return lexsort(keys)

        expected = lexsort((cols, rows))
        monkeypatch.setattr(np, "lexsort", spy)
        with fastpath.force(True):
            fast = row_major_order(rows, cols)
        assert len(calls) == lexsort_calls
        assert_same_array(expected, fast)


class TestTransposed:
    @given(pair=matrix_vector_pairs(max_side=30, max_nnz=200))
    @settings(PROFILE_FAST)
    def test_fast_vs_reference(self, pair):
        a, _ = pair
        ref, fast = _both_modes(lambda: a.transposed())
        for label in ("rowptr", "colidx", "values"):
            assert_same_array(getattr(ref, label), getattr(fast, label), label)

    @pytest.mark.parametrize("ncols", [5, 256, 257, 2**16, 2**16 + 1])
    def test_radix_width_cuts(self, ncols):
        rng = np.random.default_rng(ncols)
        nrows = 40
        rows = rng.integers(0, nrows, size=500)
        cols = rng.integers(0, ncols, size=500)
        a = CSRMatrix.from_triples(nrows, ncols, rows, cols, rng.random(500))
        ref, fast = _both_modes(lambda: a.transposed())
        for label in ("rowptr", "colidx", "values"):
            assert_same_array(getattr(ref, label), getattr(fast, label), label)
        fast.check()


# ---------------------------------------------------------------------------
# segmented reduction + vector build
# ---------------------------------------------------------------------------


@st.composite
def _values_and_starts(draw):
    """A payload array plus strictly-increasing in-range segment starts
    beginning at 0 — exactly :meth:`Monoid.reduceat_dense`'s guarantee."""
    n = draw(st.integers(1, 60))
    dtype = draw(st.sampled_from(DTYPES))
    if dtype is np.bool_:
        vals = draw(
            st.lists(st.booleans(), min_size=n, max_size=n)
        )
    else:
        vals = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    starts = sorted(
        draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) | {0}
    ) if n > 1 else [0]
    return np.array(vals, dtype=dtype), np.array(starts, dtype=np.int64)


class TestReduceatDense:
    @given(payload=_values_and_starts(), monoid=st.sampled_from(MONOIDS))
    @settings(PROFILE)
    def test_matches_general_reduceat(self, payload, monoid):
        values, starts = payload
        ref = np.asarray(monoid.reduceat(values, starts))
        fast = np.asarray(monoid.reduceat_dense(values, starts))
        assert_same_array(ref, fast, monoid.name)


class TestFromPairs:
    @given(
        capacity=st.integers(1, 40),
        data=st.data(),
        dtype=st.sampled_from(DTYPES),
        monoid=st.sampled_from(MONOIDS),
    )
    @settings(PROFILE)
    def test_duplicated_builds_match(self, capacity, data, dtype, monoid):
        """GrB_Vector_build with duplicates: fast (narrow argsort + dense
        reduceat) vs reference path, across dtypes and dup monoids."""
        n = data.draw(st.integers(0, 3 * capacity))
        idx = data.draw(
            st.lists(
                st.integers(0, capacity - 1), min_size=n, max_size=n
            )
        )
        if dtype is np.bool_:
            vals = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        else:
            vals = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        idx = np.array(idx, dtype=np.int64)
        vals = np.array(vals, dtype=dtype)
        ref, fast = _both_modes(
            lambda: SparseVector.from_pairs(capacity, idx, vals, dup=monoid)
        )
        assert_same_vector(ref, fast)


class TestRowGatherRanges:
    @given(
        segs=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=20
        )
    )
    @settings(PROFILE)
    def test_ranges_matches_reference(self, segs):
        """Concatenated index ranges, zero-length segments included."""
        starts = np.array([s for s, _ in segs], dtype=np.int64)
        lens = np.array([l for _, l in segs], dtype=np.int64)
        ref, fast = _both_modes(lambda: _ranges(starts, lens))
        assert_same_array(ref, fast)


class TestGroupByOwner:
    @given(
        owners=st.lists(st.integers(0, 5), max_size=60),
        data=st.data(),
    )
    @settings(PROFILE)
    def test_matches_per_owner_mask_loop(self, owners, data):
        owners = np.array(owners, dtype=np.int64)
        payload = np.array(
            data.draw(
                st.lists(
                    st.integers(-8, 8),
                    min_size=owners.size,
                    max_size=owners.size,
                )
            ),
            dtype=np.int64,
        )
        uniq, offsets, (perm,) = group_by_owner(owners, payload)
        # reference: gather each owner's elements in original order
        ref_uniq = np.unique(owners)
        assert np.array_equal(uniq, ref_uniq)
        assert offsets[0] == 0 and offsets[-1] == owners.size
        for k, o in enumerate(uniq):
            assert_same_array(
                payload[owners == o], perm[offsets[k] : offsets[k + 1]], f"owner {o}"
            )


# ---------------------------------------------------------------------------
# local kernels: SPA SpMSpV, sort-based SpMSpV, Gustavson SpGEMM
# ---------------------------------------------------------------------------

#: commutative multiplies, plus ``first`` (BFS's parent semiring) and
#: ``second``, which return one operand: a kernel that swaps ``x ⊗ A``
#: into ``A ⊗ x`` fails on those two
SEMIRINGS = [PLUS_TIMES, MIN_PLUS, LOR_LAND, MIN_FIRST, MAX_SECOND]

#: A with rows 1 and 3 empty; x selects rows 0 and 2, whose products land
#: in columns 1, 3 and 4 only
SKEW_A = CSRMatrix.from_triples(
    5, 5, np.array([0, 0, 2, 2]), np.array([1, 4, 1, 3]), np.array([2.0, 3.0, 5.0, 7.0])
)
SKEW_X = SparseVector.from_pairs(5, [0, 2], [10.0, 20.0])
#: (mask, complement) pairs that drop every product of SKEW_X · SKEW_A
DROP_ALL = [
    (np.zeros(5, dtype=bool), False),
    (np.array([False, True, False, True, True]), True),
]


class TestLocalSpmspv:
    @given(
        pair=matrix_vector_pairs(),
        semiring=st.sampled_from(SEMIRINGS),
        sort=st.sampled_from(["merge", "radix"]),
        data=st.data(),
    )
    @settings(PROFILE_FAST)
    def test_spa_kernel_fast_vs_reference(self, pair, semiring, sort, data):
        a, x = pair
        mask = data.draw(st.none() | dense_masks(a.ncols))
        complement = data.draw(st.booleans()) if mask is not None else False

        def run():
            m = shared_machine(4)
            y, b = spmspv_shm(
                a, x, m, semiring=semiring, sort=sort, mask=mask,
                complement=complement,
            )
            return y, b

        (ry, rb), (fy, fb) = _both_modes(run)
        assert_same_vector(ry, fy)
        assert rb == fb

    @given(pair=matrix_vector_pairs(), semiring=st.sampled_from(SEMIRINGS))
    @settings(PROFILE_FAST)
    def test_sort_based_kernel_fast_vs_reference(self, pair, semiring):
        a, x = pair
        (ry, rb), (fy, fb) = _both_modes(
            lambda: spmspv_shm_merge(a, x, shared_machine(4), semiring=semiring)
        )
        assert_same_vector(ry, fy)
        assert rb == fb

    @pytest.mark.parametrize("sort", ["merge", "radix"])
    def test_empty_frontier(self, sort):
        a = CSRMatrix.from_triples(
            5, 5, np.array([0, 2]), np.array([1, 3]), np.array([1.0, 2.0])
        )
        x = SparseVector.empty(5)
        (ry, _), (fy, _) = _both_modes(
            lambda: spmspv_shm(a, x, shared_machine(2), sort=sort)
        )
        assert_same_vector(ry, fy)
        assert fy.nnz == 0

    @pytest.mark.parametrize("mask,complement", DROP_ALL)
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_mask_drops_every_product(self, mask, complement, semiring):
        """Every selected row is non-empty and every product is masked
        out: an empty result in the products' dtype, billed for the rows."""
        (ry, rb), (fy, fb) = _both_modes(
            lambda: spmspv_shm(
                SKEW_A, SKEW_X, shared_machine(2), semiring=semiring,
                mask=mask, complement=complement,
            )
        )
        assert_same_vector(ry, fy)
        assert fy.nnz == 0
        assert rb == fb

    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_selected_rows_empty(self, semiring):
        x = SparseVector.from_pairs(5, [1, 3], [4.0, 6.0])
        (ry, rb), (fy, fb) = _both_modes(
            lambda: spmspv_shm(SKEW_A, x, shared_machine(2), semiring=semiring)
        )
        assert_same_vector(ry, fy)
        assert fy.nnz == 0
        assert rb == fb

    @pytest.mark.parametrize("semiring", [MIN_FIRST, MAX_SECOND], ids=lambda s: s.name)
    def test_operand_order(self, semiring):
        """``first`` keeps x's value and ``second`` A's, with the mask
        applied: column 4 is masked out, column 1 gets both rows."""
        mask = np.array([True, True, True, True, False])
        for on in (False, True):
            with fastpath.force(on):
                y, _ = spmspv_shm(SKEW_A, SKEW_X, shared_machine(2), semiring=semiring, mask=mask)
            assert y.indices.tolist() == [1, 3]
            want = [10.0, 20.0] if semiring is MIN_FIRST else [5.0, 7.0]
            assert y.values.tolist() == want


class TestMxmGustavson:
    @given(pair=matrix_vector_pairs(max_side=16, max_nnz=60))
    @settings(PROFILE_FAST)
    def test_fast_vs_reference_and_oracle(self, pair):
        a, _ = pair
        b = a.transposed()  # shape-compatible second operand

        def run():
            c = mxm_gustavson(a, b)
            return c.rowptr, c.colidx, c.values

        ref, fast = _both_modes(run)
        for r, f, label in zip(ref, fast, ("rowptr", "colidx", "values")):
            assert_same_array(r, f, label)
        with fastpath.disabled():
            oracle = mxm_gustavson_reference(a, b)
        assert np.array_equal(oracle.values, fast[2])


# ---------------------------------------------------------------------------
# distributed: the 2-D partitioner and the full spmspv_dist kernel
# ---------------------------------------------------------------------------

#: square and deliberately non-square grids (paper §III-D's odd powers)
GRIDS = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]


class TestPartitioner:
    @given(
        pair=matrix_vector_pairs(min_side=1, max_side=24, max_nnz=100),
        grid=st.sampled_from(GRIDS),
    )
    @settings(PROFILE_FAST)
    def test_partition_fast_vs_reference(self, pair, grid):
        a, _ = pair
        g = LocaleGrid(*grid)

        def run():
            d = DistSparseMatrix.from_global(a, g)
            return [(b.rowptr, b.colidx, b.values) for b in d.blocks]

        ref, fast = _both_modes(run)
        for k, (rb, fb) in enumerate(zip(ref, fast)):
            for r, f, label in zip(rb, fb, ("rowptr", "colidx", "values")):
                assert_same_array(r, f, f"block {k} {label}")
        with fastpath.force(True):
            gathered = DistSparseMatrix.from_global(a, g).gather()
        assert np.array_equal(gathered.values, a.values)
        assert np.array_equal(gathered.colidx, a.colidx)


class TestDistSpmspv:
    @staticmethod
    def _both(a, x, grid, semiring, mask=None, complement=False):
        def run():
            g = LocaleGrid(*grid)
            m = Machine(grid=g, threads_per_locale=2, ledger=CostLedger())
            ad = DistSparseMatrix.from_global(a, g)
            xd = DistSparseVector.from_global(x, g)
            y, b = spmspv_dist(
                ad, xd, m, semiring=semiring, mask=mask, complement=complement
            )
            return y.gather(), b, m.ledger.total

        (ry, rb, rt), (fy, fb, ft) = _both_modes(run)
        assert_same_vector(ry, fy)
        assert rb == fb
        assert rt == ft
        return fy

    @given(
        pair=matrix_vector_pairs(min_side=4, max_side=24, max_nnz=100, square=True),
        grid=st.sampled_from(GRIDS),
        semiring=st.sampled_from(SEMIRINGS),
        data=st.data(),
    )
    @settings(PROFILE_FAST)
    def test_dist_kernel_fast_vs_reference(self, pair, grid, semiring, data):
        """The distributed kernel end to end — partition, gather, masked
        local SPA, global-merge scatter — must be bit-identical in results
        *and* in the recorded cost breakdown (profile attribution
        survives)."""
        a, x = pair
        mask = data.draw(st.none() | dense_masks(a.ncols))
        complement = data.draw(st.booleans()) if mask is not None else False
        self._both(a, x, grid, semiring, mask, complement)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("mask,complement", DROP_ALL)
    def test_mask_drops_every_product(self, grid, mask, complement):
        y = self._both(SKEW_A, SKEW_X, grid, MIN_FIRST, mask, complement)
        assert y.nnz == 0

    @pytest.mark.parametrize("grid", GRIDS)
    def test_selected_rows_empty(self, grid):
        x = SparseVector.from_pairs(5, [1, 3], [4.0, 6.0])
        assert self._both(SKEW_A, x, grid, MAX_SECOND).nnz == 0
