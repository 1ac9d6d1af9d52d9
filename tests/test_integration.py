"""Cross-module integration tests: whole pipelines through the public API."""

import numpy as np
import pytest

import repro
from repro.algebra.functional import LAND, MAX, SQUARE
from repro.algorithms import bfs_levels
from repro.distributed import DistDenseVector, DistSparseMatrix, DistSparseVector
from repro.exec import DistBackend
from repro.generators import random_bool_dense
from repro.ops import (
    apply2,
    assign2,
    ewiseadd_mm,
    ewisemult_dist,
    mxm,
    spmspv_dist,
    spmspv_shm,
)
from repro.runtime import CostLedger, LocaleGrid, Machine, shared_machine


class TestPublicAPI:
    def test_top_level_exports(self):
        assert repro.__version__
        a = repro.erdos_renyi(100, 4, seed=1)
        assert isinstance(a, repro.CSRMatrix)
        x = repro.random_sparse_vector(100, nnz=10, seed=2)
        assert isinstance(x, repro.SparseVector)

    def test_quickstart_from_docstring(self):
        a = repro.erdos_renyi(1000, 8, seed=1)
        levels = repro.bfs_levels(a, source=0)
        assert levels[0] == 0
        assert levels.size == 1000


class TestEndToEndPipelines:
    def test_bfs_via_composed_operations(self):
        """The paper's composition claim: BFS out of SpMSpV+mask+assign."""
        a = ewiseadd_mm(
            repro.erdos_renyi(300, 3, seed=3),
            repro.erdos_renyi(300, 3, seed=3).transposed(),
            MAX,
        )
        levels = bfs_levels(a, 0)
        # frontier-by-hand replication for the first two levels
        m = shared_machine(2)
        f0 = repro.SparseVector(300, np.array([0]), np.array([0.0]))
        f1, _ = spmspv_shm(a, f0, m)
        lvl1 = set(f1.indices.tolist()) - {0}
        assert lvl1 == set(np.flatnonzero(levels == 1).tolist())

    def test_distributed_pipeline_with_ledger(self):
        """spmspv -> mask -> assign on a 2-D grid, costs accounted."""
        grid = LocaleGrid.for_count(4)
        led = CostLedger()
        machine = Machine(grid=grid, threads_per_locale=4, ledger=led)
        a = repro.erdos_renyi(200, 5, seed=4)
        x = repro.random_sparse_vector(200, nnz=20, seed=5)
        ad = DistSparseMatrix.from_global(a, grid)
        xd = DistSparseVector.from_global(x, grid)
        y, _ = spmspv_dist(ad, xd, machine)
        mask = random_bool_dense(200, seed=6)
        md = DistDenseVector.from_global(mask, grid)
        z, _ = ewisemult_dist(y, md, LAND, machine)
        dst = DistSparseVector.empty(200, grid)
        assign2(dst, z, machine)
        apply2(dst, SQUARE, machine)
        # numerical check against the local pipeline
        ref = (x.to_dense() @ a.to_dense())
        ref = np.where(mask.values, ref, 0.0) ** 2
        # boolean LAND on floats keeps truthiness; compare patterns
        assert set(dst.gather().indices.tolist()) == set(np.flatnonzero(ref).tolist())
        assert len(led) == 4
        assert led.total > 0

    def test_distributed_bfs_equals_shared(self):
        a = ewiseadd_mm(
            repro.erdos_renyi(150, 4, seed=7),
            repro.erdos_renyi(150, 4, seed=7).transposed(),
            MAX,
        )
        ref = bfs_levels(a, 3)
        grid = LocaleGrid.for_count(9)
        got = bfs_levels(
            DistSparseMatrix.from_global(a, grid),
            3,
            backend=DistBackend(Machine(grid=grid, threads_per_locale=2)),
        )
        assert np.array_equal(ref, got)

    def test_matrix_market_to_algorithms(self, tmp_path):
        a = repro.erdos_renyi(50, 4, seed=8, values="one")
        path = tmp_path / "g.mtx"
        repro.write_matrix_market(path, a)
        b = repro.read_matrix_market(path)
        assert np.array_equal(
            repro.bfs_levels(a, 0), repro.bfs_levels(b, 0)
        )

    def test_mxm_powers_reach_bfs_levels(self):
        """A^k structure agrees with BFS level k reachability."""
        a = repro.erdos_renyi(60, 3, seed=9, values="one")
        levels = bfs_levels(a, 0)
        a2 = mxm(a, a, semiring=repro.PLUS_TIMES)
        # any vertex at BFS level 2 must appear in row 0 of A^2 (possibly
        # also reachable by other-length walks)
        row0 = set(a2.row(0)[0].tolist())
        for v in np.flatnonzero(levels == 2):
            assert v in row0
