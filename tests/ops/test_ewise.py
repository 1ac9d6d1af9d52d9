"""Unit tests for eWiseMult / eWiseAdd (paper §III-C, Listings 6, Figs 4-5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.functional import LAND, MAX, MINUS, PLUS, TIMES
from repro.algebra.monoid import PLUS_MONOID
from repro.distributed import DistDenseVector, DistSparseVector
from repro.generators import random_bool_dense, random_sparse_vector
from repro.ops import (
    ewiseadd_mm,
    ewiseadd_vv,
    ewisemult_dist,
    ewisemult_mm,
    ewisemult_sparse_dense,
    ewisemult_vv,
)
from repro.ops.ewise import ewisemult_sd_cost
from repro.runtime import LocaleGrid, Machine, shared_machine
from repro.runtime.telemetry import registry as tm
from repro.sparse import CSRMatrix, DenseVector, SparseVector


class TestSparseDense:
    def test_boolean_filter_keeps_true_positions(self):
        x = SparseVector.from_pairs(6, [0, 2, 4], [1.0, 2.0, 3.0])
        y = DenseVector(np.array([True, True, False, False, True, False]))
        z, _ = ewisemult_sparse_dense(x, y, LAND, shared_machine(2))
        assert np.array_equal(z.indices, [0, 4])

    def test_paper_workload_half_deleted(self):
        # "About half of the nonzero entries are deleted"
        x = random_sparse_vector(10_000, nnz=2_000, seed=1)
        y = random_bool_dense(10_000, true_fraction=0.5, seed=2)
        z, _ = ewisemult_sparse_dense(x, y, LAND, shared_machine(4))
        assert 0.35 * x.nnz <= z.nnz <= 0.65 * x.nnz

    def test_times_drops_zeros(self):
        x = SparseVector.from_pairs(4, [0, 1], [2.0, 3.0])
        y = DenseVector(np.array([5.0, 0.0, 1.0, 1.0]))
        z, _ = ewisemult_sparse_dense(x, y, TIMES, shared_machine(1))
        assert np.array_equal(z.indices, [0])
        assert z[0] == 10.0

    def test_capacity_mismatch(self):
        with pytest.raises(ValueError, match="capacity"):
            ewisemult_sparse_dense(
                SparseVector.empty(4), DenseVector.zeros(5), TIMES, shared_machine(1)
            )

    def test_atomic_and_prefix_methods_agree(self):
        x = random_sparse_vector(5_000, nnz=800, seed=3)
        y = random_bool_dense(5_000, seed=4)
        m = shared_machine(8)
        za, _ = ewisemult_sparse_dense(x, y, LAND, m, method="atomic")
        zp, _ = ewisemult_sparse_dense(x, y, LAND, m, method="prefix")
        assert np.array_equal(za.indices, zp.indices)

    def test_prefix_cheaper_at_scale(self):
        # the paper's suggested improvement (§III-C)
        x = random_sparse_vector(40_000_000, nnz=10_000_000, seed=5)
        y = random_bool_dense(40_000_000, seed=6)
        m = shared_machine(24)
        _, ba = ewisemult_sparse_dense(x, y, LAND, m, method="atomic")
        _, bp = ewisemult_sparse_dense(x, y, LAND, m, method="prefix")
        assert bp.total < ba.total

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            ewisemult_sparse_dense(
                SparseVector.empty(4), DenseVector.zeros(4), TIMES,
                shared_machine(1), method="wat",
            )

    def test_speedup_matches_paper(self):
        # Fig 4: ~13x on 24 threads for the large input
        x = random_sparse_vector(40_000_000, nnz=10_000_000, seed=7)
        y = random_bool_dense(40_000_000, seed=8)
        _, b1 = ewisemult_sparse_dense(x, y, LAND, shared_machine(1))
        _, b24 = ewisemult_sparse_dense(x, y, LAND, shared_machine(24))
        assert 9.0 <= b1.total / b24.total <= 18.0


class TestDistributed:
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_matches_shared(self, p):
        x = random_sparse_vector(500, nnz=120, seed=9)
        y = random_bool_dense(500, seed=10)
        z_ref, _ = ewisemult_sparse_dense(x, y, LAND, shared_machine(1))
        grid = LocaleGrid.for_count(p)
        xd = DistSparseVector.from_global(x, grid)
        yd = DistDenseVector.from_global(y, grid)
        zd, _ = ewisemult_dist(xd, yd, LAND, Machine(grid=grid, threads_per_locale=4))
        got = zd.gather()
        assert np.array_equal(got.indices, z_ref.indices)

    def test_large_input_scales(self):
        # Fig 5: >16x going 1 -> 32 nodes for the large input
        x = random_sparse_vector(40_000_000, nnz=10_000_000, seed=11)
        y = random_bool_dense(40_000_000, seed=12)
        def run(p):
            grid = LocaleGrid.for_count(p)
            m = Machine(grid=grid, threads_per_locale=24)
            _, b = ewisemult_dist(
                DistSparseVector.from_global(x, grid),
                DistDenseVector.from_global(y, grid),
                LAND,
                m,
            )
            return b.total
        assert run(1) / run(32) > 10.0

    def test_small_input_does_not_scale(self):
        # Fig 5: "we do not see good performance for 1M nonzeros" at 24 t/node
        x = random_sparse_vector(200_000, nnz=50_000, seed=13)
        y = random_bool_dense(200_000, seed=14)
        def run(p):
            grid = LocaleGrid.for_count(p)
            m = Machine(grid=grid, threads_per_locale=24)
            _, b = ewisemult_dist(
                DistSparseVector.from_global(x, grid),
                DistDenseVector.from_global(y, grid),
                LAND,
                m,
            )
            return b.total
        assert run(1) / run(64) < 8.0

    def test_compute_counter_grows_by_the_locales_real_seconds(self):
        """``tasks.compute.seconds`` gains each locale's filter seconds,
        not 1.0 per locale."""
        x = random_sparse_vector(4_000, nnz=900, seed=15)
        y = random_bool_dense(4_000, seed=16)
        grid = LocaleGrid.for_count(16)
        m = Machine(grid=grid, threads_per_locale=4)
        xd = DistSparseVector.from_global(x, grid)
        yd = DistDenseVector.from_global(y, grid)
        registry = tm.MetricsRegistry()
        previous = tm.set_default_registry(registry)
        try:
            zd, _ = ewisemult_dist(xd, yd, LAND, m)
            delta = registry.counter("tasks.compute.seconds").total()
        finally:
            tm.set_default_registry(previous)
        expected = sum(
            ewisemult_sd_cost(m, xb.nnz, zb.nnz).total for xb, zb in zip(xd.blocks, zd.blocks)
        )
        assert delta == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch_raises(self):
        x = DistSparseVector.empty(10, LocaleGrid(1, 2))
        y = DistDenseVector.full(10, LocaleGrid(2, 2), 1.0)
        with pytest.raises(ValueError, match="grid"):
            ewisemult_dist(x, y, LAND, Machine(grid=LocaleGrid(1, 2)))


class TestVectorVector:
    def test_intersection(self):
        x = SparseVector.from_pairs(10, [1, 3, 5], [1.0, 2.0, 3.0])
        y = SparseVector.from_pairs(10, [3, 5, 7], [10.0, 20.0, 30.0])
        z = ewisemult_vv(x, y, TIMES)
        assert np.array_equal(z.indices, [3, 5])
        assert np.array_equal(z.values, [20.0, 60.0])

    def test_disjoint_is_empty(self):
        x = SparseVector.from_pairs(10, [1], [1.0])
        y = SparseVector.from_pairs(10, [2], [1.0])
        assert ewisemult_vv(x, y).nnz == 0

    def test_empty_operand(self):
        x = SparseVector.from_pairs(10, [1], [1.0])
        assert ewisemult_vv(x, SparseVector.empty(10)).nnz == 0
        assert ewisemult_vv(SparseVector.empty(10), x).nnz == 0

    def test_union_add(self):
        x = SparseVector.from_pairs(10, [1, 3], [1.0, 2.0])
        y = SparseVector.from_pairs(10, [3, 7], [10.0, 30.0])
        z = ewiseadd_vv(x, y, PLUS_MONOID)
        assert np.array_equal(z.indices, [1, 3, 7])
        assert np.array_equal(z.values, [1.0, 12.0, 30.0])

    def test_union_with_binaryop(self):
        x = SparseVector.from_pairs(10, [1], [5.0])
        y = SparseVector.from_pairs(10, [1], [3.0])
        z = ewiseadd_vv(x, y, MAX)
        assert z[1] == 5.0

    def test_capacity_mismatch(self):
        with pytest.raises(ValueError):
            ewisemult_vv(SparseVector.empty(3), SparseVector.empty(4))
        with pytest.raises(ValueError):
            ewiseadd_vv(SparseVector.empty(3), SparseVector.empty(4))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_vv_matches_dense_oracle(self, data):
        n = data.draw(st.integers(1, 30))
        xi = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        yi = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        x = SparseVector.from_pairs(n, xi, np.arange(1.0, len(xi) + 1))
        y = SparseVector.from_pairs(n, yi, np.arange(1.0, len(yi) + 1))
        z = ewisemult_vv(x, y, TIMES)
        dense = x.to_dense() * y.to_dense()
        assert np.allclose(z.to_dense(), dense)
        za = ewiseadd_vv(x, y, PLUS_MONOID)
        assert np.allclose(za.to_dense(), x.to_dense() + y.to_dense())


class TestMatrixMatrix:
    def make(self, seed, n=8, density=0.3):
        rng = np.random.default_rng(seed)
        d = (rng.random((n, n)) < density) * rng.integers(1, 9, (n, n)).astype(float)
        return CSRMatrix.from_dense(d)

    def test_mult_matches_dense(self):
        a, b = self.make(1), self.make(2)
        c = ewisemult_mm(a, b, TIMES)
        assert np.allclose(c.to_dense(), a.to_dense() * b.to_dense())
        c.check()

    def test_add_matches_dense(self):
        a, b = self.make(3), self.make(4)
        c = ewiseadd_mm(a, b, PLUS_MONOID)
        assert np.allclose(c.to_dense(), a.to_dense() + b.to_dense())
        c.check()

    def test_add_non_associative_op(self):
        a, b = self.make(5), self.make(6)
        c = ewiseadd_mm(a, b, MINUS)
        da, db = a.to_dense(), b.to_dense()
        both = (da != 0) & (db != 0)
        expected = np.where(both, da - db, da + db)
        assert np.allclose(c.to_dense(), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ewisemult_mm(CSRMatrix.empty(2, 2), CSRMatrix.empty(2, 3))
        with pytest.raises(ValueError, match="shape"):
            ewiseadd_mm(CSRMatrix.empty(2, 2), CSRMatrix.empty(3, 2))

    def test_empty_operands(self):
        a = self.make(7)
        e = CSRMatrix.empty(8, 8)
        assert ewisemult_mm(a, e).nnz == 0
        assert np.allclose(ewiseadd_mm(a, e).to_dense(), a.to_dense())
