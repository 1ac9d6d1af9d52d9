"""Unit tests for Assign (paper §III-B, Listings 4-5, Figs 2-3, 10)."""

import numpy as np
import pytest

from repro.distributed import DistSparseVector
from repro.generators import random_sparse_vector
from repro.ops import assign1, assign2, assign_shm1, assign_shm2
from repro.runtime import LocaleGrid, Machine, shared_machine
from repro.sparse import SparseVector


class TestAssignShm:
    @pytest.mark.parametrize("fn", [assign_shm1, assign_shm2])
    def test_copies_domain_and_values(self, fn):
        src = random_sparse_vector(100, nnz=30, seed=1)
        dst = SparseVector.empty(100)
        fn(dst, src, shared_machine(4))
        assert np.array_equal(dst.indices, src.indices)
        assert np.array_equal(dst.values, src.values)

    @pytest.mark.parametrize("fn", [assign_shm1, assign_shm2])
    def test_overwrites_existing_domain(self, fn):
        src = SparseVector.from_pairs(10, [1, 2], [1.0, 2.0])
        dst = SparseVector.from_pairs(10, [7, 8, 9], [9.0, 9.0, 9.0])
        fn(dst, src, shared_machine(1))
        assert dst.nnz == 2
        assert dst[7] is None

    @pytest.mark.parametrize("fn", [assign_shm1, assign_shm2])
    def test_deep_copy(self, fn):
        src = SparseVector.from_pairs(10, [1], [1.0])
        dst = SparseVector.empty(10)
        fn(dst, src, shared_machine(1))
        dst.values[0] = 42.0
        assert src[1] == 1.0

    def test_capacity_mismatch_raises(self):
        with pytest.raises(ValueError, match="matching capacities"):
            assign_shm2(SparseVector.empty(5), SparseVector.empty(6), shared_machine(1))

    def test_assign1_order_of_magnitude_slower(self):
        # Fig 2 left: log-time lookups make Assign1 ~10x slower sequentially
        src = random_sparse_vector(4_000_000, nnz=1_000_000, seed=2)
        m = shared_machine(1)
        t1 = assign_shm1(SparseVector.empty(src.capacity), src, m).total
        t2 = assign_shm2(SparseVector.empty(src.capacity), src, m).total
        assert 5.0 <= t1 / t2 <= 40.0

    def test_both_scale_moderately(self):
        # "5-8x speedup on 24 cores"
        src = random_sparse_vector(4_000_000, nnz=1_000_000, seed=3)
        for fn in [assign_shm1, assign_shm2]:
            t1 = fn(SparseVector.empty(src.capacity), src, shared_machine(1)).total
            t24 = fn(SparseVector.empty(src.capacity), src, shared_machine(24)).total
            assert t1 / t24 > 3.0


class TestAssignDistributed:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize("fn", [assign1, assign2])
    def test_matches_source(self, p, fn):
        src = random_sparse_vector(300, nnz=80, seed=4)
        grid = LocaleGrid.for_count(p)
        src_d = DistSparseVector.from_global(src, grid)
        dst_d = DistSparseVector.empty(300, grid)
        fn(dst_d, src_d, Machine(grid=grid, threads_per_locale=2))
        got = dst_d.gather()
        assert np.array_equal(got.indices, src.indices)
        assert np.array_equal(got.values, src.values)

    def test_assign1_fine_grained_penalty(self):
        # Fig 2 right: Assign1 collapses on multiple locales
        src = random_sparse_vector(400_000, nnz=100_000, seed=5)
        grid = LocaleGrid.for_count(8)
        m = Machine(grid=grid, threads_per_locale=24)
        t1 = assign1(DistSparseVector.empty(src.capacity, grid),
                     DistSparseVector.from_global(src, grid), m).total
        t2 = assign2(DistSparseVector.empty(src.capacity, grid),
                     DistSparseVector.from_global(src, grid), m).total
        assert t1 > 50 * t2

    def test_assign2_scales_until_overhead(self):
        # Fig 3: large input scales; the curve is monotone decreasing early
        src = random_sparse_vector(4_000_000, nnz=1_000_000, seed=6)
        totals = []
        for p in [1, 4, 16]:
            grid = LocaleGrid.for_count(p)
            m = Machine(grid=grid, threads_per_locale=24)
            totals.append(
                assign2(
                    DistSparseVector.empty(src.capacity, grid),
                    DistSparseVector.from_global(src, grid),
                    m,
                ).total
            )
        assert totals[0] > totals[1] > totals[2]

    def test_oversubscription_degrades(self):
        # Fig 10: locales sharing one node get slower, not faster
        src = random_sparse_vector(40_000, nnz=10_000, seed=7)
        def run(p, fn):
            grid = LocaleGrid.for_count(p)
            m = Machine(grid=grid, threads_per_locale=1, locales_per_node=p)
            return fn(
                DistSparseVector.empty(src.capacity, grid),
                DistSparseVector.from_global(src, grid),
                m,
            ).total
        assert run(32, assign2) > run(1, assign2)
        assert run(32, assign1) > run(32, assign2)


class TestAssignDistributedMatrix:
    """Assign also covers matrices (paper: 'a matrix (vector)')."""

    @pytest.mark.parametrize("fn", [assign1, assign2])
    def test_matrix_copy(self, fn):
        from repro.distributed import DistSparseMatrix
        from repro.generators import erdos_renyi
        from repro.sparse import CSRMatrix

        src = erdos_renyi(50, 4, seed=11)
        grid = LocaleGrid.for_count(4)
        src_d = DistSparseMatrix.from_global(src, grid)
        dst_d = DistSparseMatrix.from_global(CSRMatrix.empty(50, 50), grid)
        fn(dst_d, src_d, Machine(grid=grid, threads_per_locale=2))
        assert np.allclose(dst_d.gather().to_dense(), src.to_dense())

    def test_shape_mismatch_rejected(self):
        from repro.distributed import DistSparseMatrix
        from repro.sparse import CSRMatrix

        grid = LocaleGrid.for_count(2)
        a = DistSparseMatrix.from_global(CSRMatrix.empty(10, 10), grid)
        b = DistSparseMatrix.from_global(CSRMatrix.empty(10, 12), grid)
        with pytest.raises(ValueError, match="matching"):
            assign2(a, b, Machine(grid=grid))


def leg_stretch(m, counts, k, slow):
    """What a straggler at ``k`` adds to the delivery legs it ends: each
    remote block's get and put legs, which run between locale 0 and the
    block's owner."""
    from repro.runtime.aggregation import flush_cost

    return (slow - 1.0) * 2.0 * sum(
        flush_cost(m.config, int(n), local=m.oversubscribed)
        for j, n in enumerate(counts)
        if j and n and k in (0, j)
    )


class TestAssignAggStraggler:
    """A straggler owner stretches its share of the domain searches on top
    of the delivery legs it ends; without a straggler the faulty bill is
    the fault-free one bit for bit."""

    def run(self, plan=None):
        from repro.ops import assign_agg
        from repro.runtime import FaultInjector

        grid = LocaleGrid.for_count(4)
        m = Machine(
            grid=grid, threads_per_locale=2,
            faults=None if plan is None else FaultInjector(plan),
        )
        src = DistSparseVector.from_global(random_sparse_vector(400, nnz=120, seed=5), grid)
        dst = DistSparseVector.empty(400, grid)
        return m, src.nnz_per_locale(), assign_agg(dst, src, m)

    @pytest.mark.parametrize("k", [0, 2])
    def test_straggler_owner_stretches_its_searches(self, k):
        from repro.runtime.faults import FaultPlan

        m, counts, clean = self.run()
        assert counts[k] > 0
        _, _, slow = self.run(FaultPlan(stragglers={k: 2.0}))
        assert slow["assign"] - clean["assign"] > leg_stretch(m, counts, k, 2.0) + 1e-9
        assert slow["Retries"] == 0.0

    def test_transients_alone_bill_the_fault_free_assign(self):
        from repro.runtime.faults import FaultPlan

        _, _, clean = self.run()
        _, _, row = self.run(FaultPlan(seed=3, transient_rate=0.9))
        assert float(row["assign"]).hex() == float(clean["assign"]).hex()
        assert row["Retries"] > 0.0
