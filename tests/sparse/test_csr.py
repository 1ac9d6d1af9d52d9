"""Unit tests for the CSR matrix substrate."""

import numpy as np
import pytest

from repro.algebra import MAX_MONOID, MIN_MONOID, PLUS_MONOID
from repro.algebra.functional import SQUARE, VALUEGT
from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.csr import _ranges


def small_matrix() -> CSRMatrix:
    # [[1, 0, 2],
    #  [0, 0, 0],
    #  [3, 4, 0]]
    return CSRMatrix.from_dense(
        np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    )


class TestConstruction:
    def test_from_dense_roundtrip(self):
        d = np.array([[1.0, 0.0], [0.0, 5.0]])
        assert np.array_equal(CSRMatrix.from_dense(d).to_dense(), d)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            CSRMatrix.from_dense(np.array([1.0, 2.0]))

    def test_empty(self):
        a = CSRMatrix.empty(3, 4)
        assert a.nnz == 0
        a.check()

    def test_identity(self):
        i3 = CSRMatrix.identity(3)
        assert np.array_equal(i3.to_dense(), np.eye(3))
        i3.check()

    def test_copy_is_deep(self):
        a = small_matrix()
        b = a.copy()
        b.values[0] = 9.0
        assert a[0, 0] == 1.0

    def test_from_triples_merges_duplicates(self):
        a = CSRMatrix.from_triples(2, 2, [0, 0], [1, 1], [2.0, 3.0])
        assert a.nnz == 1
        assert a[0, 1] == 5.0

    def test_from_triples_with_max_dup(self):
        a = CSRMatrix.from_triples(2, 2, [0, 0], [1, 1], [2.0, 3.0], dup=MAX_MONOID)
        assert a[0, 1] == 3.0

    def test_rowptr_length_validation(self):
        with pytest.raises(ValueError, match="rowptr length"):
            CSRMatrix(3, 3, np.zeros(2, np.int64), np.empty(0, np.int64), np.empty(0))

    def test_colidx_values_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            CSRMatrix(1, 3, np.array([0, 1]), np.array([0]), np.empty(0))


class TestAccess:
    def test_row_extent_and_row(self):
        a = small_matrix()
        assert a.row_extent(0) == (0, 2)
        assert a.row_extent(1) == (2, 2)
        cols, vals = a.row(2)
        assert np.array_equal(cols, [0, 1])
        assert np.array_equal(vals, [3.0, 4.0])

    def test_getitem(self):
        a = small_matrix()
        assert a[0, 0] == 1.0
        assert a[0, 2] == 2.0
        assert a[0, 1] is None
        assert a[1, 1] is None

    def test_row_degrees(self):
        assert np.array_equal(small_matrix().row_degrees(), [2, 0, 2])

    def test_row_indices(self):
        assert np.array_equal(small_matrix().row_indices(), [0, 0, 2, 2])


class TestTranspose:
    def test_small(self):
        a = small_matrix()
        at = a.transposed()
        assert np.array_equal(at.to_dense(), a.to_dense().T)
        at.check()

    def test_involution(self):
        a = small_matrix()
        assert np.array_equal(a.transposed().transposed().to_dense(), a.to_dense())

    def test_rectangular(self):
        d = np.array([[0.0, 1.0, 0.0, 2.0], [3.0, 0.0, 0.0, 0.0]])
        a = CSRMatrix.from_dense(d)
        assert np.array_equal(a.transposed().to_dense(), d.T)

    def test_random_vs_numpy(self):
        rng = np.random.default_rng(0)
        d = (rng.random((20, 30)) < 0.2) * rng.random((20, 30))
        a = CSRMatrix.from_dense(d)
        assert np.allclose(a.transposed().to_dense(), d.T)
        a.transposed().check()


class TestExtractRows:
    def test_subset(self):
        a = small_matrix()
        sub = a.extract_rows(np.array([0, 2]))
        assert np.array_equal(sub.to_dense(), a.to_dense()[[0, 2]])
        sub.check()

    def test_with_repeats_and_reorder(self):
        a = small_matrix()
        sub = a.extract_rows(np.array([2, 0, 2]))
        assert np.array_equal(sub.to_dense(), a.to_dense()[[2, 0, 2]])

    def test_empty_selection(self):
        sub = small_matrix().extract_rows(np.empty(0, np.int64))
        assert sub.nnz == 0
        assert sub.nrows == 0

    def test_all_empty_rows(self):
        a = CSRMatrix.empty(4, 4)
        sub = a.extract_rows(np.array([1, 3]))
        assert sub.nnz == 0


class TestSelect:
    def test_tril_triu(self):
        d = np.arange(1, 10, dtype=float).reshape(3, 3)
        a = CSRMatrix.from_dense(d)
        assert np.array_equal(a.tril().to_dense(), np.tril(d))
        assert np.array_equal(a.triu().to_dense(), np.triu(d))
        assert np.array_equal(a.tril(-1).to_dense(), np.tril(d, -1))

    def test_tril_plus_triu_strict_is_whole(self):
        a = small_matrix()
        total = a.tril(-1).nnz + a.triu(0).nnz
        assert total == a.nnz

    def test_value_select(self):
        a = small_matrix()
        big = a.select(VALUEGT, 2.5)
        assert np.array_equal(big.to_dense(), np.where(a.to_dense() > 2.5, a.to_dense(), 0))
        big.check()


class TestElementwise:
    def test_apply_returns_new(self):
        a = small_matrix()
        b = a.apply(SQUARE)
        assert b[0, 2] == 4.0
        assert a[0, 2] == 2.0  # original untouched

    def test_apply_inplace(self):
        a = small_matrix()
        a.apply_inplace(SQUARE)
        assert a[2, 1] == 16.0

    def test_reduce_rows(self):
        a = small_matrix()
        assert np.array_equal(a.reduce_rows(), [3.0, 0.0, 7.0])
        assert np.array_equal(a.reduce_rows(MIN_MONOID), [1.0, np.inf, 3.0])

    def test_reduce_scalar(self):
        assert small_matrix().reduce_scalar() == 10.0
        assert small_matrix().reduce_scalar(MAX_MONOID) == 4.0


class TestCheck:
    def test_detects_unsorted_columns(self):
        a = CSRMatrix(
            1, 3, np.array([0, 2]), np.array([2, 0]), np.array([1.0, 2.0])
        )
        with pytest.raises(AssertionError, match="sorted"):
            a.check()

    def test_detects_bad_rowptr(self):
        a = CSRMatrix(
            2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 2.0])
        )
        with pytest.raises(AssertionError):
            a.check()

    def test_detects_out_of_bounds_column(self):
        a = CSRMatrix(1, 2, np.array([0, 1]), np.array([5]), np.array([1.0]))
        with pytest.raises(AssertionError, match="bounds"):
            a.check()


class TestRangesHelper:
    def test_simple(self):
        out = _ranges(np.array([0, 10]), np.array([3, 2]))
        assert np.array_equal(out, [0, 1, 2, 10, 11])

    def test_empty_first_segment(self):
        out = _ranges(np.array([5, 10]), np.array([0, 2]))
        assert np.array_equal(out, [10, 11])

    def test_empty_middle_segments(self):
        out = _ranges(np.array([0, 7, 3]), np.array([2, 0, 1]))
        assert np.array_equal(out, [0, 1, 3])

    def test_all_empty(self):
        out = _ranges(np.array([1, 2]), np.array([0, 0]))
        assert out.size == 0
