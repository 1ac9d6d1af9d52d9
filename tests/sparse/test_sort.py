"""Unit and property tests for the from-scratch sorting kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import merge_sort, merge_two, radix_sort
from repro.sparse.sort import first_occurrences, merge_sort_cost, radix_sort_cost


class TestMergeTwo:
    def test_basic(self):
        out = merge_two(np.array([1, 4, 9]), np.array([2, 3, 10]))
        assert np.array_equal(out, [1, 2, 3, 4, 9, 10])

    def test_empty_sides(self):
        a = np.array([1, 2])
        assert np.array_equal(merge_two(a, np.array([], dtype=int)), a)
        assert np.array_equal(merge_two(np.array([], dtype=int), a), a)

    def test_with_ties(self):
        out = merge_two(np.array([1, 2, 2]), np.array([2, 3]))
        assert np.array_equal(out, [1, 2, 2, 2, 3])

    def test_interleaved(self):
        out = merge_two(np.array([0, 2, 4]), np.array([1, 3, 5]))
        assert np.array_equal(out, [0, 1, 2, 3, 4, 5])


class TestMergeSort:
    def test_empty_and_single(self):
        assert merge_sort(np.array([], dtype=int)).size == 0
        assert np.array_equal(merge_sort(np.array([7])), [7])

    def test_reverse_sorted(self):
        out = merge_sort(np.arange(17)[::-1].copy())
        assert np.array_equal(out, np.arange(17))

    def test_duplicates(self):
        keys = np.array([3, 1, 3, 1, 3])
        assert np.array_equal(merge_sort(keys), [1, 1, 3, 3, 3])

    def test_does_not_mutate_input(self):
        keys = np.array([3, 1, 2])
        merge_sort(keys)
        assert np.array_equal(keys, [3, 1, 2])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-10**9, 10**9), max_size=200))
    def test_matches_sorted(self, xs):
        out = merge_sort(np.array(xs, dtype=np.int64))
        assert np.array_equal(out, np.sort(np.array(xs, dtype=np.int64)))


class TestRadixSort:
    def test_empty_and_single(self):
        assert radix_sort(np.array([], dtype=int)).size == 0
        assert np.array_equal(radix_sort(np.array([5])), [5])

    def test_basic(self):
        out = radix_sort(np.array([300, 2, 1000000, 45]))
        assert np.array_equal(out, [2, 45, 300, 1000000])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            radix_sort(np.array([3, -1]))

    def test_rejects_negative_single_element(self):
        # regression: the size<=1 fast path used to skip validation and
        # silently accept a negative key
        with pytest.raises(ValueError, match="non-negative"):
            radix_sort(np.array([-5]))

    def test_preserves_input_dtype(self):
        # regression: the multi-element path used to widen every input to
        # int64, while the size<=1 path kept the caller's dtype
        for dtype in (np.int32, np.uint32, np.int64):
            out = radix_sort(np.array([3, 1, 2], dtype=dtype))
            assert out.dtype == dtype
            assert np.array_equal(out, [1, 2, 3])
        assert radix_sort(np.array([7], dtype=np.int32)).dtype == np.int32

    def test_explicit_key_bits(self):
        out = radix_sort(np.array([255, 0, 128]), key_bits=8)
        assert np.array_equal(out, [0, 128, 255])

    def test_single_pass_boundary(self):
        # keys exactly at the 8-bit boundary need a second pass
        out = radix_sort(np.array([256, 255, 257]))
        assert np.array_equal(out, [255, 256, 257])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**40), max_size=200))
    def test_matches_sorted(self, xs):
        out = radix_sort(np.array(xs, dtype=np.int64))
        assert np.array_equal(out, np.sort(np.array(xs, dtype=np.int64)))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 10**6), max_size=100))
    def test_agrees_with_merge_sort(self, xs):
        keys = np.array(xs, dtype=np.int64)
        assert np.array_equal(radix_sort(keys), merge_sort(keys))


class TestFirstOccurrences:
    def test_repeats_fold_in_first_occurrence_order(self):
        distinct, inverse = first_occurrences(np.array([9, 3, 9, 1, 3]))
        assert distinct.tolist() == [9, 3, 1]
        assert inverse.tolist() == [0, 1, 0, 2, 1]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-50, 50), max_size=60))
    def test_agrees_with_np_unique(self, xs):
        keys = np.array(xs, dtype=np.int64)
        distinct, inverse = first_occurrences(keys)
        _, first = np.unique(keys, return_index=True)
        assert np.array_equal(distinct, keys[np.sort(first)])
        assert np.array_equal(distinct[inverse], keys)
        if len(set(xs)) == len(xs):  # no repeats: unchanged
            assert np.array_equal(inverse, np.arange(keys.size))


class TestCostModels:
    def test_merge_cost_is_nlogn(self):
        assert merge_sort_cost(0) == 0.0
        assert merge_sort_cost(1) == 1.0
        assert merge_sort_cost(1024) == pytest.approx(1024 * 10)

    def test_radix_cost_is_linear_in_passes(self):
        assert radix_sort_cost(100, key_bits=8) == 100.0
        assert radix_sort_cost(100, key_bits=32) == 400.0

    def test_radix_beats_merge_for_large_n(self):
        # the paper's §III-D argument: integer sort wins for big nnz
        n = 1 << 20
        assert radix_sort_cost(n, key_bits=32) < merge_sort_cost(n)
