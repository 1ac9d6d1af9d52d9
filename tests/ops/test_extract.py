"""Unit tests for extract (GrB_extract)."""

import numpy as np
import pytest

from repro.exec import DistBackend, ShmBackend
from repro.generators import erdos_renyi
from repro.ops import extract_col, extract_matrix, extract_row, extract_vector
from repro.runtime import LocaleGrid, Machine
from repro.sparse import CSRMatrix, SparseVector


class TestExtractVector:
    def test_basic(self):
        x = SparseVector.from_pairs(10, [2, 5, 8], [1.0, 2.0, 3.0])
        z = extract_vector(x, np.array([5, 0, 8]))
        assert z.capacity == 3
        assert np.array_equal(z.indices, [0, 2])
        assert np.array_equal(z.values, [2.0, 3.0])

    def test_repeats(self):
        x = SparseVector.from_pairs(4, [1], [7.0])
        z = extract_vector(x, np.array([1, 1, 1]))
        assert z.nnz == 3
        assert np.all(z.values == 7.0)

    def test_empty_selection(self):
        x = SparseVector.from_pairs(4, [1], [7.0])
        assert extract_vector(x, np.empty(0, np.int64)).nnz == 0

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            extract_vector(SparseVector.empty(4), np.array([4]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        d = (rng.random(30) < 0.4) * rng.random(30)
        x = SparseVector.from_dense(d)
        sel = rng.integers(0, 30, 12)
        z = extract_vector(x, sel)
        assert np.allclose(z.to_dense(), d[sel])


class TestExtractMatrix:
    def test_submatrix(self):
        a = erdos_renyi(20, 4, seed=1)
        rows = np.array([3, 7, 11])
        cols = np.array([0, 5, 10, 15])
        c = extract_matrix(a, rows, cols)
        assert c.shape == (3, 4)
        assert np.allclose(c.to_dense(), a.to_dense()[np.ix_(rows, cols)])
        c.check()

    def test_reordered_columns(self):
        a = erdos_renyi(15, 4, seed=2)
        rows = np.arange(15)
        cols = np.array([10, 2, 7])
        c = extract_matrix(a, rows, cols)
        assert np.allclose(c.to_dense(), a.to_dense()[:, cols])
        c.check()

    def test_repeated_columns_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            extract_matrix(CSRMatrix.empty(3, 3), np.array([0]), np.array([1, 1]))

    def test_column_bounds(self):
        with pytest.raises(IndexError):
            extract_matrix(CSRMatrix.empty(3, 3), np.array([0]), np.array([5]))

    @pytest.mark.parametrize("backend", ["shm", "dist"])
    @pytest.mark.parametrize("row", [-1, -2, 3])
    def test_row_bounds(self, backend, row):
        b = (
            ShmBackend()
            if backend == "shm"
            else DistBackend(Machine(grid=LocaleGrid.for_count(4), threads_per_locale=2))
        )
        a = b.matrix(CSRMatrix.from_dense(np.arange(1.0, 10.0).reshape(3, 3)))
        with pytest.raises(IndexError, match="row index out of bounds"):
            b.extract(a, [row], [0, 1, 2])


class TestExtractRowCol:
    def test_row(self):
        a = erdos_renyi(10, 3, seed=3)
        r = extract_row(a, 4)
        assert np.allclose(r.to_dense(), a.to_dense()[4])

    def test_col(self):
        a = erdos_renyi(10, 3, seed=4)
        c = extract_col(a, 7)
        assert np.allclose(c.to_dense(), a.to_dense()[:, 7])

    def test_bounds(self):
        a = CSRMatrix.empty(3, 4)
        with pytest.raises(IndexError):
            extract_row(a, 3)
        with pytest.raises(IndexError):
            extract_col(a, 4)
