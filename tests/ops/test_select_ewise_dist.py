"""Tests for vector select and distributed sparse-sparse elementwise ops."""

import numpy as np
import pytest

from repro.algebra.functional import MAX, VALUEGT
from repro.algebra.monoid import PLUS_MONOID
from repro.distributed import DistSparseVector
from repro.generators import random_sparse_vector
from repro.ops import (
    ewiseadd_dist_vv,
    ewiseadd_vv,
    ewisemult_dist_vv,
    ewisemult_vv,
    select_dist_vector,
    select_vector,
)
from repro.runtime import LocaleGrid, Machine
from repro.sparse import SparseVector


class TestSelectVector:
    def test_value_filter(self):
        x = SparseVector.from_pairs(10, [1, 3, 5], [1.0, 5.0, 2.0])
        out = select_vector(x, VALUEGT, 1.5)
        assert np.array_equal(out.indices, [3, 5])

    def test_positional_filter(self):
        from repro.algebra.functional import IndexUnaryOp

        ge_five = IndexUnaryOp("ge5", lambda v, r, c, k: r >= 5)
        x = SparseVector.from_pairs(10, [2, 7, 9], [1.0, 1.0, 1.0])
        out = select_vector(x, ge_five)
        assert np.array_equal(out.indices, [7, 9])

    def test_empty(self):
        out = select_vector(SparseVector.empty(5), VALUEGT, 0.0)
        assert out.nnz == 0


class TestSelectDistSparseVector:
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_matches_local_with_global_indices(self, p):
        x = random_sparse_vector(200, nnz=60, seed=1)
        expected = select_vector(x, VALUEGT, 0.5)
        grid = LocaleGrid.for_count(p)
        out, b = select_dist_vector(
            DistSparseVector.from_global(x, grid),
            VALUEGT,
            Machine(grid=grid, threads_per_locale=2),
            0.5,
        )
        got = out.gather()
        assert np.array_equal(got.indices, expected.indices)
        assert b.total > 0

    def test_positional_uses_global_index(self):
        from repro.algebra.functional import IndexUnaryOp

        ge = IndexUnaryOp("ge", lambda v, r, c, k: r >= k)
        x = random_sparse_vector(100, nnz=40, seed=2)
        expected = select_vector(x, ge, 50)
        grid = LocaleGrid.for_count(4)
        out, _ = select_dist_vector(
            DistSparseVector.from_global(x, grid), ge, Machine(grid=grid), 50
        )
        assert np.array_equal(out.gather().indices, expected.indices)


class TestEwiseDistVV:
    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_add_matches_local(self, p):
        x = random_sparse_vector(150, nnz=40, seed=3)
        y = random_sparse_vector(150, nnz=50, seed=4)
        expected = ewiseadd_vv(x, y, PLUS_MONOID)
        grid = LocaleGrid.for_count(p)
        out, _ = ewiseadd_dist_vv(
            DistSparseVector.from_global(x, grid),
            DistSparseVector.from_global(y, grid),
            Machine(grid=grid, threads_per_locale=2),
        )
        got = out.gather()
        assert np.array_equal(got.indices, expected.indices)
        assert np.allclose(got.values, expected.values)

    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_mult_matches_local(self, p):
        x = random_sparse_vector(150, nnz=40, seed=5)
        y = random_sparse_vector(150, nnz=50, seed=6)
        expected = ewisemult_vv(x, y)
        grid = LocaleGrid.for_count(p)
        out, _ = ewisemult_dist_vv(
            DistSparseVector.from_global(x, grid),
            DistSparseVector.from_global(y, grid),
            Machine(grid=grid, threads_per_locale=2),
        )
        got = out.gather()
        assert np.array_equal(got.indices, expected.indices)

    def test_binaryop_union(self):
        x = SparseVector.from_pairs(10, [1], [5.0])
        y = SparseVector.from_pairs(10, [1, 2], [3.0, 7.0])
        grid = LocaleGrid.for_count(2)
        out, _ = ewiseadd_dist_vv(
            DistSparseVector.from_global(x, grid),
            DistSparseVector.from_global(y, grid),
            Machine(grid=grid),
            MAX,
        )
        g = out.gather()
        assert g[1] == 5.0 and g[2] == 7.0

    def test_mismatch_rejected(self):
        grid = LocaleGrid.for_count(2)
        with pytest.raises(ValueError, match="share"):
            ewiseadd_dist_vv(
                DistSparseVector.empty(10, grid),
                DistSparseVector.empty(12, grid),
                Machine(grid=grid),
            )
