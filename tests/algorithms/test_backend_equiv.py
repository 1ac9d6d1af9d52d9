"""Differential property suite: every algorithm, both backends, one result.

The acceptance bar of the backend-agnostic refactor: each of the 14
algorithm modules runs *unmodified* on :class:`~repro.exec.ShmBackend`
and :class:`~repro.exec.DistBackend` and produces identical results —
across Hypothesis-generated Erdős–Rényi graphs, every locale-grid shape
(including non-square grids), and under a covered fault plan (whose
retries must change only the cost ledger, never the numerics).

Floating-point caveat: distributed PageRank reduces dense partials
blockwise, so its summation order differs from shared memory; it is
compared with the same ``atol=1e-9`` tolerance as the distributed
PageRank tests in ``test_pagerank.py``.  Everything else — levels, labels, colours,
corenesses, matchings, truss structure, distances on (min, +) — is
order-independent and compared bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    average_clustering,
    betweenness_centrality,
    bfs_levels,
    bfs_levels_batch,
    bfs_levels_do,
    bfs_parents,
    connected_components,
    count_triangles,
    delta_stepping,
    greedy_coloring,
    is_valid_coloring,
    is_valid_matching,
    kcore_decomposition,
    ktruss,
    local_clustering,
    maximal_independent_set,
    maximal_matching,
    pagerank,
    sssp,
)
from repro.exec import DistBackend, ShmBackend
from repro.generators import erdos_renyi
from repro.runtime import FaultInjector, LocaleGrid, Machine
from repro.sparse import CSRMatrix
from tests.strategies import PROFILE_SLOW, covered_setups


def sym_simple(a: CSRMatrix) -> CSRMatrix:
    """Symmetrise and drop the diagonal: an undirected simple graph."""
    d = a.to_dense() != 0
    d = d | d.T
    np.fill_diagonal(d, False)
    return CSRMatrix.from_dense(d.astype(np.float64))


def weighted(a: CSRMatrix) -> CSRMatrix:
    """Strictly positive edge weights (shifted off zero for SSSP)."""
    d = np.abs(a.to_dense())
    d[d != 0] += 0.125
    return CSRMatrix.from_dense(d)


def _csr_dense(b, handle) -> np.ndarray:
    return b.to_csr(handle).to_dense()


#: name -> (graph transform, runner(graph, backend) -> ndarray/scalar).
#: Runners return plain numpy/python values so the comparison below is
#: backend-agnostic; matrix-handle results are gathered through the
#: backend bridge first.
ALGORITHMS = {
    "bc": (lambda a: a, lambda a, b: betweenness_centrality(a, backend=b)),
    "bfs": (lambda a: a, lambda a, b: bfs_levels(a, 0, backend=b)),
    "bfs_batch": (
        lambda a: a,
        lambda a, b: bfs_levels_batch(a, np.array([0, a.nrows - 1]), backend=b),
    ),
    "bfs_do": (lambda a: a, lambda a, b: bfs_levels_do(a, 0, backend=b)),
    "bfs_parents": (lambda a: a, lambda a, b: bfs_parents(a, 0, backend=b)),
    "cc": (sym_simple, lambda a, b: connected_components(a, backend=b)),
    "coloring": (sym_simple, lambda a, b: greedy_coloring(a, seed=3, backend=b)),
    "delta_stepping": (weighted, lambda a, b: delta_stepping(a, 0, backend=b)),
    "kcore": (sym_simple, lambda a, b: kcore_decomposition(a, backend=b)),
    "ktruss": (
        sym_simple,
        lambda a, b: _csr_dense(b, ktruss(a, 3, backend=b)),
    ),
    "lcc": (sym_simple, lambda a, b: local_clustering(a, backend=b)),
    "matching": (
        lambda a: a,
        lambda a, b: np.concatenate(maximal_matching(a, backend=b)),
    ),
    "mis": (
        sym_simple,
        lambda a, b: maximal_independent_set(a, seed=5, backend=b),
    ),
    "pagerank": (lambda a: a, lambda a, b: pagerank(a, backend=b)),
    "sssp": (weighted, lambda a, b: sssp(a, 0, backend=b)),
    "triangle": (sym_simple, lambda a, b: count_triangles(a, backend=b)),
}

#: results that are sums of many float terms, hence order-sensitive
APPROX = {"pagerank"}


@st.composite
def workloads(draw):
    """(graph, locale grid) — grids cover 1x1 through non-square shapes."""
    n = draw(st.integers(6, 24))
    deg = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**20))
    p = draw(st.integers(1, 9))
    return erdos_renyi(n, deg, seed=seed), LocaleGrid.for_count(p)


def dist_backend(grid: LocaleGrid, faults: FaultInjector | None = None) -> DistBackend:
    return DistBackend(
        Machine(grid=grid, threads_per_locale=2, faults=faults)
    )


def assert_matches(name: str, ref, got) -> None:
    if name in APPROX:
        assert np.allclose(ref, got, atol=1e-9), name
    else:
        assert np.array_equal(ref, got), name


@pytest.mark.parametrize("name", sorted(ALGORITHMS), ids=str)
class TestBackendEquivalence:
    @settings(PROFILE_SLOW, deadline=None)
    @given(workloads())
    def test_dist_matches_shm(self, name, wl):
        graph, grid = wl
        prepare, run = ALGORITHMS[name]
        a = prepare(graph)
        ref = run(a, ShmBackend())
        got = run(a, dist_backend(grid))
        assert_matches(name, ref, got)

    @settings(PROFILE_SLOW, deadline=None)
    @given(workloads(), covered_setups())
    def test_covered_faults_do_not_change_results(self, name, wl, setup):
        """A fully covered fault plan may only add retry cost, never alter
        any algorithm's output."""
        graph, grid = wl
        plan, policy = setup
        prepare, run = ALGORITHMS[name]
        a = prepare(graph)
        ref = run(a, ShmBackend())
        got = run(a, dist_backend(grid, FaultInjector(plan, policy)))
        assert_matches(name, ref, got)


class TestResultSanity:
    """The equivalence above is only meaningful if the shared results are
    themselves valid; spot-check the verifiable ones on one seed."""

    def setup_method(self):
        self.sym = sym_simple(erdos_renyi(30, 4, seed=11))

    def test_coloring_is_valid_on_both(self):
        for b in (ShmBackend(), dist_backend(LocaleGrid.for_count(6))):
            colors = greedy_coloring(self.sym, seed=3, backend=b)
            assert is_valid_coloring(self.sym, colors)

    def test_matching_is_valid_on_both(self):
        for b in (ShmBackend(), dist_backend(LocaleGrid.for_count(4))):
            rm, cm = maximal_matching(self.sym, backend=b)
            assert is_valid_matching(self.sym, rm, cm)

    def test_average_clustering_scalar_matches(self):
        ref = average_clustering(self.sym)
        got = average_clustering(
            self.sym, backend=dist_backend(LocaleGrid.for_count(6))
        )
        assert ref == got


class TestWholeAlgorithmAttribution:
    """Satellite: the frontend's per-iteration scopes must decompose a
    whole-algorithm distributed run the way PR 3 did for single kernels."""

    def test_bfs_ledger_decomposes_per_iteration(self):
        from repro.runtime import CostLedger

        ledger = CostLedger()
        b = DistBackend(
            Machine(grid=LocaleGrid.for_count(4), threads_per_locale=2, ledger=ledger)
        )
        a = sym_simple(erdos_renyi(40, 4, seed=7))
        bfs_levels(a, 0, backend=b)
        labels = [lbl for lbl, _ in ledger.entries]
        iters = {lbl.split(":", 1)[0] for lbl in labels if lbl.startswith("bfs[iter=")}
        assert len(iters) >= 2, labels  # several levels, each its own prefix
        assert ledger.by_component().total > 0.0
        # dispatch decisions survive the relabelling as nested spans
        assert any("dispatch[vxm_dist]" in lbl for lbl in labels), labels

    def test_coloring_nests_mis_rounds(self):
        from repro.runtime import CostLedger

        ledger = CostLedger()
        b = DistBackend(
            Machine(grid=LocaleGrid.for_count(2), threads_per_locale=2, ledger=ledger)
        )
        greedy_coloring(sym_simple(erdos_renyi(24, 3, seed=5)), seed=1, backend=b)
        labels = [lbl for lbl, _ in ledger.entries]
        assert any(
            lbl.startswith("coloring[iter=") and ":mis[iter=" in lbl for lbl in labels
        ), labels
