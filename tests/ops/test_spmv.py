"""Unit tests for SpMV / vxm (dense-vector products)."""

import numpy as np
import pytest

from repro.algebra import MIN_PLUS, PLUS_TIMES
from repro.algebra.semiring import MAX_SECOND, MIN_FIRST
from repro.distributed import DistDenseVector, DistSparseMatrix
from repro.generators import erdos_renyi
from repro.ops import spmv, spmv_dist, vxm_dense
from repro.runtime import LocaleGrid, Machine
from repro.sparse import CSRMatrix, DenseVector


class TestSpMV:
    def test_matches_numpy(self):
        a = erdos_renyi(50, 5, seed=1)
        x = np.arange(50, dtype=float)
        y = spmv(a, x)
        assert np.allclose(y.values, a.to_dense() @ x)

    def test_accepts_dense_vector_object(self):
        a = erdos_renyi(20, 3, seed=2)
        x = DenseVector(np.ones(20))
        assert np.allclose(spmv(a, x).values, a.to_dense().sum(axis=1))

    def test_min_plus(self):
        # one-step shortest-path relaxation
        inf = np.inf
        d = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.0, 0.0, 0.0]])
        a = CSRMatrix.from_dense(d)
        x = np.array([0.0, inf, inf])
        y = spmv(a, x, semiring=MIN_PLUS)
        # y[i] = min_j (A[i,j] + x[j]) over stored entries
        assert y.values[0] == 2.0 + inf or y.values[0] == inf  # row 0 -> x[1]
        assert y.values[2] == 1.0  # A[2,0] + x[0]

    def test_empty_rows_get_zero(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        y = spmv(a, np.ones(2))
        assert y.values[1] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(CSRMatrix.empty(3, 4), np.ones(3))


class TestVxm:
    def test_matches_numpy(self):
        a = erdos_renyi(40, 4, seed=3)
        x = np.arange(40, dtype=float)
        y = vxm_dense(x, a)
        assert np.allclose(y.values, x @ a.to_dense())

    def test_vxm_equals_spmv_of_transpose(self):
        a = erdos_renyi(30, 4, seed=4)
        x = np.random.default_rng(0).random(30)
        assert np.allclose(
            vxm_dense(x, a).values, spmv(a.transposed(), x).values
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vxm_dense(np.ones(3), CSRMatrix.empty(4, 3))

    def test_min_plus_relaxation(self):
        d = np.array([[0.0, 2.0], [0.0, 0.0]])
        a = CSRMatrix.from_dense(d)
        x = np.array([0.0, np.inf])
        y = vxm_dense(x, a, semiring=MIN_PLUS)
        assert y.values[1] == 2.0

    def test_operand_order(self):
        """``x[i] ⊗ A[i,j]``: ``first`` picks from x, ``second`` from A."""
        a = CSRMatrix.from_dense(np.array([[0.0, 2.0], [3.0, 5.0]]))
        x = np.array([10.0, 20.0])
        assert list(vxm_dense(x, a, semiring=MIN_FIRST).values) == [20.0, 10.0]
        assert list(vxm_dense(x, a, semiring=MAX_SECOND).values) == [3.0, 5.0]


class TestSpMVDist:
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_matches_local(self, p):
        a = erdos_renyi(60, 5, seed=5)
        x = np.random.default_rng(1).random(60)
        grid = LocaleGrid.for_count(p)
        yd, b = spmv_dist(
            DistSparseMatrix.from_global(a, grid),
            DistDenseVector.from_global(x, grid),
            Machine(grid=grid, threads_per_locale=4),
        )
        assert np.allclose(yd.gather().values, a.to_dense() @ x)
        assert b.total > 0

    def test_dimension_mismatch(self):
        grid = LocaleGrid(1, 2)
        with pytest.raises(ValueError):
            spmv_dist(
                DistSparseMatrix.from_global(erdos_renyi(10, 2, seed=0), grid),
                DistDenseVector.full(11, grid, 1.0),
                Machine(grid=grid),
            )
