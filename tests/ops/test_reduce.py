"""Unit tests for reductions (GrB_reduce)."""

import numpy as np
import pytest

from repro.algebra import MAX_MONOID, MIN_MONOID, PLUS_MONOID
from repro.distributed import DistSparseVector
from repro.generators import erdos_renyi, random_sparse_vector
from repro.ops import (
    reduce_cols_sparse,
    reduce_dist_vector,
    reduce_matrix_scalar,
    reduce_rows_sparse,
    reduce_vector,
)
from repro.runtime import LocaleGrid
from repro.sparse import CSRMatrix, DenseVector, SparseVector


class TestReduceVector:
    def test_sparse_sum(self):
        x = SparseVector.from_pairs(10, [1, 5], [3.0, 4.0])
        assert reduce_vector(x) == 7.0

    def test_dense(self):
        assert reduce_vector(DenseVector(np.array([1.0, 2.0]))) == 3.0

    def test_empty_gives_identity(self):
        assert reduce_vector(SparseVector.empty(5)) == 0
        assert reduce_vector(SparseVector.empty(5), MIN_MONOID) == np.inf

    def test_other_monoids(self):
        x = SparseVector.from_pairs(10, [0, 1], [3.0, -2.0])
        assert reduce_vector(x, MAX_MONOID) == 3.0
        assert reduce_vector(x, MIN_MONOID) == -2.0


class TestReduceMatrix:
    def test_rows_sparse_skips_empty(self):
        a = CSRMatrix.from_dense(
            np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        )
        v = reduce_rows_sparse(a)
        assert np.array_equal(v.indices, [0, 2])
        assert np.array_equal(v.values, [3.0, 3.0])

    def test_cols_sparse(self):
        a = CSRMatrix.from_dense(
            np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
        )
        v = reduce_cols_sparse(a)
        assert np.array_equal(v.indices, [0, 2])
        assert np.array_equal(v.values, [4.0, 2.0])

    def test_scalar(self):
        a = erdos_renyi(20, 3, seed=1)
        assert reduce_matrix_scalar(a) == pytest.approx(a.values.sum())
        assert reduce_matrix_scalar(a, MAX_MONOID) == a.values.max()

    def test_matches_dense_oracle(self):
        a = erdos_renyi(25, 4, seed=2)
        v = reduce_rows_sparse(a)
        dense_sums = a.to_dense().sum(axis=1)
        assert np.allclose(v.to_dense(), dense_sums)


class TestReduceDistSparseVector:
    def test_matches_global(self):
        x = random_sparse_vector(200, nnz=60, seed=3)
        for p in [1, 3, 8]:
            xd = DistSparseVector.from_global(x, LocaleGrid.for_count(p))
            assert reduce_dist_vector(xd) == pytest.approx(x.values.sum())

    def test_empty(self):
        xd = DistSparseVector.empty(50, LocaleGrid(2, 2))
        assert reduce_dist_vector(xd) == 0

    def test_min_across_blocks(self):
        x = random_sparse_vector(200, nnz=60, seed=4)
        xd = DistSparseVector.from_global(x, LocaleGrid(2, 2))
        assert reduce_dist_vector(xd, MIN_MONOID) == x.values.min()
