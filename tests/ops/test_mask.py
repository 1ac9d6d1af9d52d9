"""Unit tests for structural masks."""

import numpy as np
import pytest

from repro.distributed import DistSparseVector
from repro.generators import random_sparse_vector
from repro.ops import mask_dist_vector, mask_matrix, mask_vector, mask_vector_dense
from repro.runtime import LocaleGrid
from repro.sparse import CSRMatrix, DenseVector, SparseVector


class TestMaskVector:
    def test_keep_intersection(self):
        x = SparseVector.from_pairs(10, [1, 3, 5], [1.0, 2.0, 3.0])
        m = SparseVector.from_pairs(10, [3, 5, 7], [1.0, 1.0, 1.0])
        out = mask_vector(x, m)
        assert np.array_equal(out.indices, [3, 5])

    def test_complement(self):
        x = SparseVector.from_pairs(10, [1, 3, 5], [1.0, 2.0, 3.0])
        m = SparseVector.from_pairs(10, [3], [1.0])
        out = mask_vector(x, m, complement=True)
        assert np.array_equal(out.indices, [1, 5])

    def test_empty_mask(self):
        x = SparseVector.from_pairs(10, [1], [1.0])
        assert mask_vector(x, SparseVector.empty(10)).nnz == 0
        assert mask_vector(x, SparseVector.empty(10), complement=True).nnz == 1

    def test_capacity_mismatch(self):
        with pytest.raises(ValueError):
            mask_vector(SparseVector.empty(3), SparseVector.empty(4))


class TestMaskVectorDense:
    def test_dense_bool_mask(self):
        x = SparseVector.from_pairs(5, [0, 2, 4], [1.0, 2.0, 3.0])
        m = np.array([True, False, False, False, True])
        out = mask_vector_dense(x, m)
        assert np.array_equal(out.indices, [0, 4])
        out_c = mask_vector_dense(x, m, complement=True)
        assert np.array_equal(out_c.indices, [2])

    def test_dense_vector_object(self):
        x = SparseVector.from_pairs(3, [1], [1.0])
        out = mask_vector_dense(x, DenseVector(np.array([0.0, 1.0, 0.0])))
        assert out.nnz == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mask_vector_dense(SparseVector.empty(3), np.ones(4, dtype=bool))


class TestMaskMatrix:
    def test_structural(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        m = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = mask_matrix(a, m)
        assert np.allclose(out.to_dense(), [[1.0, 0.0], [0.0, 4.0]])
        out.check()

    def test_complement(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        m = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = mask_matrix(a, m, complement=True)
        assert np.allclose(out.to_dense(), [[0.0, 2.0], [3.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mask_matrix(CSRMatrix.empty(2, 2), CSRMatrix.empty(2, 3))


class TestMaskDistSparseVector:
    def test_blockwise_matches_global(self):
        x = random_sparse_vector(100, nnz=30, seed=1)
        m = random_sparse_vector(100, nnz=40, seed=2)
        expected = mask_vector(x, m)
        grid = LocaleGrid.for_count(4)
        out = mask_dist_vector(
            DistSparseVector.from_global(x, grid),
            DistSparseVector.from_global(m, grid),
        )
        got = out.gather()
        assert np.array_equal(got.indices, expected.indices)

    def test_complement_matches_global(self):
        x = random_sparse_vector(100, nnz=30, seed=3)
        m = random_sparse_vector(100, nnz=40, seed=4)
        expected = mask_vector(x, m, complement=True)
        grid = LocaleGrid.for_count(6)
        out = mask_dist_vector(
            DistSparseVector.from_global(x, grid),
            DistSparseVector.from_global(m, grid),
            complement=True,
        )
        assert np.array_equal(out.gather().indices, expected.indices)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            mask_dist_vector(
                DistSparseVector.empty(10, LocaleGrid(1, 2)),
                DistSparseVector.empty(12, LocaleGrid(1, 2)),
            )
