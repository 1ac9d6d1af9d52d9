"""PageRank tests against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import pagerank
from repro.generators import erdos_renyi
from repro.sparse import CSRMatrix


def to_nx(a: CSRMatrix) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(a.nrows))
    coo = a.to_coo()
    for r, c, v in zip(coo.rows.tolist(), coo.cols.tolist(), coo.values.tolist()):
        g.add_edge(r, c, weight=v)
    return g


class TestPageRank:
    def test_sums_to_one(self):
        a = erdos_renyi(100, 5, seed=1)
        r = pagerank(a)
        assert r.sum() == pytest.approx(1.0)
        assert (r > 0).all()

    def test_symmetric_cycle_is_uniform(self):
        n = 6
        d = np.zeros((n, n))
        for i in range(n):
            d[i, (i + 1) % n] = 1.0
        r = pagerank(CSRMatrix.from_dense(d))
        assert np.allclose(r, 1.0 / n)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_networkx(self, seed):
        a = erdos_renyi(80, 4, seed=seed, values="one")
        r = pagerank(a, damping=0.85, tol=1e-12)
        expected = nx.pagerank(to_nx(a), alpha=0.85, tol=1e-12, max_iter=500)
        for v in range(80):
            assert r[v] == pytest.approx(expected[v], abs=1e-6)

    def test_dangling_nodes_handled(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0  # vertices 1 and 2 are dangling
        a = CSRMatrix.from_dense(d)
        r = pagerank(a)
        assert r.sum() == pytest.approx(1.0)
        expected = nx.pagerank(to_nx(a))
        assert np.allclose(r, [expected[0], expected[1], expected[2]], atol=1e-6)

    def test_weighted_edges(self):
        d = np.zeros((3, 3))
        d[0, 1] = 3.0
        d[0, 2] = 1.0
        a = CSRMatrix.from_dense(d)
        r = pagerank(a, tol=1e-12)
        expected = nx.pagerank(to_nx(a), tol=1e-12)
        for v in range(3):
            assert r[v] == pytest.approx(expected[v], abs=1e-6)
        assert r[1] > r[2]  # heavier edge attracts more rank

    def test_parameter_validation(self):
        a = erdos_renyi(10, 2, seed=3)
        with pytest.raises(ValueError, match="damping"):
            pagerank(a, damping=1.5)
        with pytest.raises(ValueError, match="square"):
            pagerank(CSRMatrix.empty(2, 3))

    def test_non_convergence_raises(self):
        a = erdos_renyi(50, 4, seed=4)
        with pytest.raises(RuntimeError, match="converge"):
            pagerank(a, tol=0.0, max_iter=3)


class TestPageRankDistributed:
    def test_matches_local(self):
        from repro.distributed import DistSparseMatrix
        from repro.exec import DistBackend
        from repro.runtime import CostLedger, LocaleGrid, Machine

        a = erdos_renyi(80, 4, seed=6)
        ref = pagerank(a)
        for p in [1, 4, 9]:
            grid = LocaleGrid.for_count(p)
            got = pagerank(
                DistSparseMatrix.from_global(a, grid),
                backend=DistBackend(Machine(grid=grid, threads_per_locale=4)),
            )
            assert np.allclose(ref, got, atol=1e-9), f"p={p}"

    def test_ledger_records_iterations(self):
        from repro.distributed import DistSparseMatrix
        from repro.exec import DistBackend
        from repro.runtime import CostLedger, LocaleGrid, Machine

        a = erdos_renyi(60, 4, seed=7)
        led = CostLedger()
        grid = LocaleGrid.for_count(4)
        pagerank(
            DistSparseMatrix.from_global(a, grid),
            backend=DistBackend(Machine(grid=grid, threads_per_locale=4, ledger=led)),
        )
        assert len(led) >= 5  # one spmv_dist per power iteration
        assert led.total > 0

    def test_non_square_rejected(self):
        from repro.distributed import DistSparseMatrix
        from repro.exec import DistBackend
        from repro.runtime import LocaleGrid, Machine
        from repro.sparse import CSRMatrix

        grid = LocaleGrid.for_count(2)
        ad = DistSparseMatrix.from_global(CSRMatrix.empty(4, 6), grid)
        with pytest.raises(ValueError, match="square"):
            pagerank(ad, backend=DistBackend(Machine(grid=grid)))
