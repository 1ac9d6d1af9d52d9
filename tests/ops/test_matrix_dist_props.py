"""Hypothesis differential tests for the blockwise distributed matrix
helpers (:mod:`repro.ops.matrix_dist`) against scipy/dense oracles.

Every property draws an arbitrary locale grid — *including the non-square
shapes* (1x3, 2x3, ...) whose gather-based fallbacks (``transpose_any``,
``mxm_gathered``) take the slow path — and checks the gathered result
against the same computation on the undistributed matrix.  Entry values
come from the exactly-representable pool, so comparisons are ``==``
except where reduction order genuinely differs.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from repro.algebra.functional import TRIL, TRIU
from repro.algebra.monoid import PLUS_MONOID
from repro.distributed import DistSparseMatrix
from repro.exec import DistBackend
from repro.ops.matrix_dist import (
    mxm_gathered,
    reduce_rows_dense_dist,
    row_degrees_dist,
    scale_rows_dist,
    select_dist_matrix,
    transpose_any,
)
from repro.runtime import CostLedger, LocaleGrid, Machine
from tests.strategies import PROFILE_FAST, csr_matrices

MAX_SIDE = 18
MAX_NNZ = 70

#: every grid shape up to 3x3 — the non-square ones are the point
grids = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
    lambda rc: LocaleGrid(*rc)
)
matrices = csr_matrices(min_side=1, max_side=MAX_SIDE, max_nnz=MAX_NNZ)
diagonals = st.integers(-MAX_SIDE, MAX_SIDE)


def machine_for(grid: LocaleGrid) -> Machine:
    return Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())


def distribute(a, grid) -> DistSparseMatrix:
    return DistSparseMatrix.from_global(a, grid)


def dense(dist: DistSparseMatrix) -> np.ndarray:
    return np.asarray(dist.gather().to_dense())


class TestSelect:
    @given(matrices, grids, diagonals)
    @PROFILE_FAST
    def test_tril_matches_numpy(self, a, grid, k):
        m = machine_for(grid)
        out, b = select_dist_matrix(distribute(a, grid), TRIL, m, k)
        assert np.array_equal(dense(out), np.tril(a.to_dense(), k))
        assert b.total >= 0.0 and len(m.ledger.entries) == 1

    @given(matrices, grids, diagonals)
    @PROFILE_FAST
    def test_triu_matches_numpy(self, a, grid, k):
        m = machine_for(grid)
        out, _ = select_dist_matrix(distribute(a, grid), TRIU, m, k)
        assert np.array_equal(dense(out), np.triu(a.to_dense(), k))

    @given(matrices, grids)
    @PROFILE_FAST
    def test_tril_triu_partition_off_diagonals(self, a, grid):
        """tril(0) + triu(1) recovers the matrix exactly (disjoint split)."""
        m = machine_for(grid)
        lo, _ = select_dist_matrix(distribute(a, grid), TRIL, m, 0)
        hi, _ = select_dist_matrix(distribute(a, grid), TRIU, m, 1)
        assert np.array_equal(dense(lo) + dense(hi), a.to_dense())


class TestScaleRows:
    @given(matrices, grids, st.integers(0, 2**31 - 1))
    @PROFILE_FAST
    def test_matches_dense_broadcast(self, a, grid, seed):
        rng = np.random.default_rng(seed)
        factors = rng.integers(-3, 4, size=a.nrows).astype(np.float64)
        out, _ = scale_rows_dist(distribute(a, grid), factors, machine_for(grid))
        assert np.array_equal(dense(out), a.to_dense() * factors[:, None])

    @given(matrices, grids)
    @PROFILE_FAST
    def test_preserves_pattern(self, a, grid):
        out, _ = scale_rows_dist(
            distribute(a, grid), np.full(a.nrows, 2.0), machine_for(grid)
        )
        g = out.gather()
        assert np.array_equal(g.rowptr, a.rowptr)
        assert np.array_equal(g.colidx, a.colidx)


class TestRowReductions:
    @given(matrices, grids)
    @PROFILE_FAST
    def test_row_degrees_matches_scipy(self, a, grid):
        got = row_degrees_dist(distribute(a, grid), machine_for(grid))
        oracle = sp.csr_matrix(
            (a.values, a.colidx, a.rowptr), shape=(a.nrows, a.ncols)
        ).getnnz(axis=1)
        assert np.array_equal(got, oracle)

    @given(matrices, grids)
    @PROFILE_FAST
    def test_reduce_rows_dense_matches_dense_sum(self, a, grid):
        got = reduce_rows_dense_dist(
            distribute(a, grid), machine_for(grid), PLUS_MONOID
        )
        assert np.allclose(got, np.asarray(a.to_dense()).sum(axis=1))


class TestTransposeAny:
    @given(matrices, grids)
    @PROFILE_FAST
    def test_matches_scipy_transpose(self, a, grid):
        m = machine_for(grid)
        out, b = transpose_any(distribute(a, grid), m)
        oracle = sp.csr_matrix(
            (a.values, a.colidx, a.rowptr), shape=(a.nrows, a.ncols)
        ).T.toarray()
        assert np.array_equal(dense(out), oracle)
        # the fallback path must charge its gather round-trip
        if grid.rows != grid.cols and a.nnz:
            assert b["Gather"] > 0.0

    @given(matrices, grids)
    @PROFILE_FAST
    def test_involution(self, a, grid):
        m = machine_for(grid)
        t, _ = transpose_any(distribute(a, grid), m)
        tt, _ = transpose_any(t, m)
        assert np.array_equal(dense(tt), a.to_dense())


class TestExtract:
    @given(matrices, grids, st.data())
    @PROFILE_FAST
    def test_matches_dense_fancy_index(self, a, grid, data):
        rows = data.draw(
            st.lists(st.integers(0, a.nrows - 1), min_size=1, max_size=8),
            label="rows",
        )
        # repeated columns are rejected by extract_matrix; rows may repeat
        cols = data.draw(
            st.lists(
                st.integers(0, a.ncols - 1), min_size=1, max_size=8, unique=True
            ),
            label="cols",
        )
        b = DistBackend(machine_for(grid))
        got = b.extract(b.matrix(distribute(a, grid)), rows, cols)
        oracle = a.to_dense()[np.ix_(rows, cols)]
        assert np.array_equal(np.asarray(b.to_csr(got).to_dense()), oracle)


class TestMxmGathered:
    @given(
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
        grids,
    )
    @PROFILE_FAST
    def test_matches_scipy_product(self, n, seed, grid):
        rng = np.random.default_rng(seed)

        def rand_csr(nr, nc):
            density = 0.25
            mask = rng.random((nr, nc)) < density
            vals = rng.integers(-2, 3, size=(nr, nc)).astype(np.float64)
            return sp.csr_matrix(np.where(mask, vals, 0.0))

        sa = rand_csr(n, n)
        sb = rand_csr(n, n)
        from repro.sparse.csr import CSRMatrix

        a = CSRMatrix(
            n, n, sa.indptr.astype(np.int64), sa.indices.astype(np.int64), sa.data
        )
        b = CSRMatrix(
            n, n, sb.indptr.astype(np.int64), sb.indices.astype(np.int64), sb.data
        )
        m = machine_for(grid)
        out, bd = mxm_gathered(distribute(a, grid), distribute(b, grid), m)
        assert np.allclose(dense(out), (sa @ sb).toarray())
        if a.nnz or b.nnz:
            assert bd["Gather"] > 0.0

    @given(st.integers(2, 10), st.integers(0, 2**31 - 1), grids)
    @PROFILE_FAST
    def test_mask_restricts_output(self, n, seed, grid):
        """A structural mask keeps the product inside the mask pattern."""
        rng = np.random.default_rng(seed)
        from repro.sparse.csr import CSRMatrix

        def to_csr(d):
            s = sp.csr_matrix(d)
            return CSRMatrix(
                n, n, s.indptr.astype(np.int64), s.indices.astype(np.int64),
                s.data.astype(np.float64),
            )

        da = np.where(rng.random((n, n)) < 0.4, 1.0, 0.0)
        dmask = np.where(rng.random((n, n)) < 0.5, 1.0, 0.0)
        a, mask = to_csr(da), to_csr(dmask)
        m = machine_for(grid)
        out, _ = mxm_gathered(
            distribute(a, grid), distribute(a, grid), m,
            mask=distribute(mask, grid),
        )
        got = dense(out)
        assert np.array_equal(got, (da @ da) * dmask)
