"""Tests for distributed SpGEMM (sparse SUMMA)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import MIN_PLUS, PLUS_TIMES
from repro.distributed import DistSparseMatrix
from repro.exec.descriptor import merge_dist_matrix
from repro.generators import erdos_renyi
from repro.ops import mxm, mxm_dist
from repro.ops.dispatch import Dispatcher
from repro.ops.matrix_dist import mxm_gathered
from repro.ops.mxm_dist import replication_factors
from repro.runtime import CostLedger, LocaleGrid, Machine
from repro.sparse import CSRMatrix
from tests.strategies import PROFILE, square_csr


def hypersparse_csr(*, min_side: int = 8, max_side: int = 48):
    """Square CSR matrices dense enough to multiply, sparse enough that
    2-D blocks go hypersparse (``nnz`` well under ``nrows``)."""
    return square_csr(min_side=min_side, max_side=max_side, max_nnz=24)


def assert_bit_identical(x: CSRMatrix, y: CSRMatrix) -> None:
    assert x.shape == y.shape
    assert np.array_equal(x.rowptr, y.rowptr)
    assert np.array_equal(x.colidx, y.colidx)
    assert np.array_equal(x.values, y.values)


class TestSumma:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_matches_local(self, p):
        a = erdos_renyi(40, 4, seed=1)
        b = erdos_renyi(40, 4, seed=2)
        grid = LocaleGrid.for_count(p)
        m = Machine(grid=grid, threads_per_locale=2)
        cd, breakdown = mxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseMatrix.from_global(b, grid),
            m,
        )
        expected = mxm(a, b)
        assert np.allclose(cd.gather().to_dense(), expected.to_dense())
        assert breakdown.total > 0

    def test_semiring(self):
        a = erdos_renyi(20, 3, seed=3)
        grid = LocaleGrid(2, 2)
        m = Machine(grid=grid)
        cd, _ = mxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseMatrix.from_global(a, grid),
            m,
            semiring=MIN_PLUS,
        )
        expected = mxm(a, a, semiring=MIN_PLUS)
        assert np.allclose(cd.gather().to_dense(), expected.to_dense())

    def test_uneven_sizes(self):
        a = erdos_renyi(37, 4, seed=4)  # not divisible by the grid
        grid = LocaleGrid(2, 2)
        cd, _ = mxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseMatrix.from_global(a, grid),
            Machine(grid=grid),
        )
        assert np.allclose(cd.gather().to_dense(), mxm(a, a).to_dense())

    def test_requires_square_grid(self):
        a = erdos_renyi(10, 2, seed=5)
        grid = LocaleGrid(1, 2)
        ad = DistSparseMatrix.from_global(a, grid)
        with pytest.raises(ValueError, match="square"):
            mxm_dist(ad, ad, Machine(grid=grid))

    def test_breakdown_components(self):
        a = erdos_renyi(30, 3, seed=6)
        grid = LocaleGrid(2, 2)
        _, b = mxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseMatrix.from_global(a, grid),
            Machine(grid=grid, threads_per_locale=4),
        )
        assert {"broadcast", "multiply", "merge"} <= set(b)

    def test_broadcast_scales_down_per_locale(self):
        # SUMMA's O(nnz/sqrt(p)) per-locale communication: the broadcast
        # component shrinks relative to a single big transfer as p grows
        a = erdos_renyi(400, 8, seed=7)
        def mult_time(p):
            grid = LocaleGrid.for_count(p)
            _, b = mxm_dist(
                DistSparseMatrix.from_global(a, grid),
                DistSparseMatrix.from_global(a, grid),
                Machine(grid=grid, threads_per_locale=1),
            )
            return b["multiply"]
        assert mult_time(16) < mult_time(1)


def _summa_variants(q: int):
    out = [{"variant": "2d"}]
    out += [{"variant": "3d", "layers": c} for c in replication_factors(q)]
    return out


class TestSummaDifferential:
    """Every SUMMA schedule folds to the same matrix, bit for bit."""

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.sampled_from([4, 16]))
    def test_all_summa_schedules_bit_identical(self, a, p):
        grid = LocaleGrid.for_count(p)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        ref, _ = mxm_dist(ad, ad, m)
        want = ref.gather()
        for kw in _summa_variants(grid.rows):
            for comm in ("bulk", "agg"):
                c, _ = mxm_dist(ad, ad, m, comm_mode=comm, **kw)
                assert_bit_identical(c.gather(), want)


class TestMaskFusion:
    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.sampled_from([4, 16]))
    def test_fused_equals_post_and_is_cheaper(self, a, p):
        grid = LocaleGrid.for_count(p)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        mask = ad  # self-mask: the triangle-counting shape
        want = mxm(a, a, mask=a)
        for kw in _summa_variants(grid.rows):
            cf, bf = mxm_dist(ad, ad, m, mask=mask, mask_mode="fused", **kw)
            cp, bp = mxm_dist(ad, ad, m, mask=mask, mask_mode="post", **kw)
            assert_bit_identical(cf.gather(), cp.gather())
            assert np.allclose(cf.gather().to_dense(), want.to_dense())
            assert bf.total <= bp.total

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_fused_strictly_cheaper_when_mask_prunes(self, a):
        # a mask that keeps nothing: fusion drops the merge + filter bills
        grid = LocaleGrid(2, 2)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        empty = DistSparseMatrix.from_global(
            CSRMatrix.from_triples(
                a.nrows, a.ncols, np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0),
            ),
            grid,
        )
        prod, _ = mxm_dist(ad, ad, m)
        if prod.nnz == 0:
            return
        _, bf = mxm_dist(ad, ad, m, mask=empty, mask_mode="fused")
        _, bp = mxm_dist(ad, ad, m, mask=empty, mask_mode="post")
        assert bf.total < bp.total


class TestDispatcherAxis:
    def test_auto_stays_in_summa_family_on_square_grids(self):
        a = _ba_graph()
        grid = LocaleGrid(4, 4)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2))
        ad = DistSparseMatrix.from_global(a, grid)
        d.mxm_dist(ad, ad)
        dec = d.decisions[-1]
        assert dec.op == "mxm_dist"
        assert dec.chosen.startswith(("2d[", "3d["))
        assert "gathered" in dec.estimates
        assert {"2d[bulk]", "2d[agg]"} <= set(dec.estimates)
        for c in replication_factors(grid.rows):
            assert f"3d[c={c}][bulk]" in dec.estimates
            assert f"3d[c={c}][agg]" in dec.estimates

    def test_non_square_grid_dispatches_gathered(self):
        a = _ba_graph()
        grid = LocaleGrid(2, 4)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2))
        ad = DistSparseMatrix.from_global(a, grid)
        c, _ = d.mxm_dist(ad, ad)
        assert d.decisions[-1].chosen == "gathered"
        assert list(d.decisions[-1].estimates) == ["gathered"]
        assert np.allclose(c.gather().to_dense(), mxm(a, a).to_dense())
        with pytest.raises(ValueError, match="square"):
            d.mxm_dist(ad, ad, variant="3d")

    def test_forced_axes(self):
        a = _ba_graph()
        grid = LocaleGrid(4, 4)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2))
        ad = DistSparseMatrix.from_global(a, grid)
        for kw, want in [
            ({"comm_mode": "bulk"}, "2d[bulk]"),
            ({"comm_mode": "agg"}, "2d[agg]"),
            ({"variant": "3d", "layers": 4, "comm_mode": "bulk"}, "3d[c=4][bulk]"),
            ({"variant": "gathered"}, "gathered"),
        ]:
            d.mxm_dist(ad, ad, **kw)
            assert d.decisions[-1].chosen == want
            assert d.decisions[-1].forced
        with pytest.raises(ValueError, match="layers"):
            d.mxm_dist(ad, ad, variant="3d", layers=9)
        with pytest.raises(ValueError, match="comm_mode"):
            d.mxm_dist(ad, ad, comm_mode="?")

    def test_auto_within_tolerance_of_best_fixed(self):
        """The acceptance bound: auto's bill ≤ 1.1× the best fixed
        schedule's bill (same inputs, fresh machines)."""
        a = _ba_graph()
        grid = LocaleGrid(4, 4)
        ad = DistSparseMatrix.from_global(a, grid)

        def bill(**kw):
            m = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
            Dispatcher(m).mxm_dist(ad, ad, **kw)
            return m.ledger.total

        fixed = [
            bill(comm_mode=comm, **kw)
            for kw in _summa_variants(grid.rows)
            for comm in ("bulk", "agg")
        ]
        assert bill() <= 1.1 * min(fixed)


class TestGatheredUniformity:
    """mask/accum/desc flow through the same descriptor merge on the
    gathered path as on SUMMA — bit for bit."""

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_gathered_accum_matches_manual_merge(self, a):
        from repro.algebra.functional import PLUS

        grid = LocaleGrid(2, 4)  # non-square: gathered is the only path
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        out = DistSparseMatrix.from_global(a, grid)
        got, _ = Dispatcher(m).mxm_dist(ad, ad, accum=PLUS, out=out)
        raw, _ = mxm_gathered(ad, ad, m)
        want = merge_dist_matrix(
            raw,
            DistSparseMatrix.from_global(a, grid),
            mask=None,
            complement=False,
            accum=PLUS,
            replace=False,
        )
        assert_bit_identical(got.gather(), want.gather())

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_gathered_mask_matches_shm(self, a):
        grid = LocaleGrid(2, 4)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        got, _ = Dispatcher(m).mxm_dist(ad, ad, mask=ad)
        assert np.allclose(
            got.gather().to_dense(), mxm(a, a, mask=a).to_dense()
        )


def _ba_graph() -> CSRMatrix:
    """A fixed mid-size graph for the non-property dispatcher tests."""
    from repro.generators import erdos_renyi

    return erdos_renyi(160, 6, seed=7)
