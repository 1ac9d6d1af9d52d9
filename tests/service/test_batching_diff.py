"""Differential property suite: batched multi-source ≡ sequential.

The acceptance bar of the query service: a multi-source run the batching
planner coalesces produces, per source, results *bit-identical* to N
independent single-source runs of the sequential algorithms
(:func:`repro.algorithms.bfs_levels` / :func:`repro.algorithms.sssp`) —
on the shared-memory backend, on the distributed backend across locale
grids (square and not), and under covered fault plans (whose retries
must never perturb payloads).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.functional import MIN
from repro.algebra.semiring import MIN_PLUS
from repro.algorithms import bfs_levels, bfs_levels_batch, sssp, sssp_batch
from repro.bench.ablations import SERVICE_GRID_P, service_workload
from repro.exec import DistBackend, ShmBackend
from repro.generators import erdos_renyi
from repro.runtime import CostLedger, FaultInjector, LocaleGrid, Machine
from repro.runtime.telemetry.registry import MetricsRegistry
from repro.service import GraphQueryService, QuerySpec
from repro.sparse.csr import CSRMatrix
from tests.strategies import PROFILE_FAST, PROFILE_SLOW, covered_setups

pytestmark = pytest.mark.service


def weighted(a: CSRMatrix, seed: int) -> CSRMatrix:
    """Strictly positive random weights (SSSP-meaningful, BFS-neutral)."""
    rng = np.random.default_rng(seed)
    return CSRMatrix.from_triples(
        a.nrows, a.ncols, a.row_indices(), a.colidx,
        rng.uniform(0.5, 2.0, a.nnz),
    )


@st.composite
def query_workloads(draw):
    """(graph, grid, sources): an ER graph plus 1–6 query sources."""
    n = draw(st.integers(6, 32))
    deg = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**20))
    p = draw(st.integers(1, 9))
    ns = draw(st.integers(1, 6))
    sources = draw(
        st.lists(st.integers(0, n - 1), min_size=ns, max_size=ns)
    )
    a = weighted(erdos_renyi(n, deg, seed=seed), seed=seed + 1)
    return a, LocaleGrid.for_count(p), sources


def dist_backend(grid, faults=None) -> DistBackend:
    return DistBackend(
        Machine(grid=grid, threads_per_locale=2, ledger=CostLedger(), faults=faults)
    )


def reference(algo: str, a, source: int, backend=None) -> np.ndarray:
    b = backend or ShmBackend()
    if algo == "bfs":
        return bfs_levels(a, source, backend=b)
    return sssp(a, source, check_negative_cycles=False, backend=b)


class TestMultiSourceCores:
    """The cores directly: every row ≡ the sequential run, bit for bit."""

    @settings(PROFILE_FAST, deadline=None)
    @given(query_workloads(), st.sampled_from(["bfs", "sssp"]))
    def test_shm_rows_equal_sequential(self, wl, algo):
        a, _, sources = wl
        b = ShmBackend()
        core = bfs_levels_batch if algo == "bfs" else sssp_batch
        rows = core(a, np.asarray(sources), backend=b)
        for i, s in enumerate(sources):
            np.testing.assert_array_equal(rows[i], reference(algo, a, s))

    @settings(PROFILE_SLOW, deadline=None)
    @given(query_workloads(), st.sampled_from(["bfs", "sssp"]))
    def test_dist_rows_equal_sequential(self, wl, algo):
        a, grid, sources = wl
        b = dist_backend(grid)
        core = bfs_levels_batch if algo == "bfs" else sssp_batch
        rows = core(a, np.asarray(sources), backend=b)
        for i, s in enumerate(sources):
            np.testing.assert_array_equal(rows[i], reference(algo, a, s))

    @settings(PROFILE_SLOW, deadline=None)
    @given(query_workloads(), covered_setups(), st.sampled_from(["bfs", "sssp"]))
    def test_dist_under_covered_faults_equal_sequential(self, wl, setup, algo):
        """Covered fault plans retry transparently: the batched results
        still match the fault-free sequential reference bit for bit."""
        a, grid, sources = wl
        plan, policy = setup
        b = dist_backend(grid, faults=FaultInjector(plan, policy))
        core = bfs_levels_batch if algo == "bfs" else sssp_batch
        rows = core(a, np.asarray(sources), backend=b)
        for i, s in enumerate(sources):
            np.testing.assert_array_equal(rows[i], reference(algo, a, s))

    def test_duplicate_sources_get_identical_rows(self):
        a = weighted(erdos_renyi(24, 3, seed=9), seed=10)
        b = ShmBackend()
        rows = bfs_levels_batch(a, np.array([5, 5, 5]), backend=b)
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_array_equal(rows[0], rows[2])

    def test_empty_source_list(self):
        a = erdos_renyi(8, 2, seed=1)
        b = ShmBackend()
        assert bfs_levels_batch(a, np.array([], dtype=np.int64), backend=b).shape == (0, 8)
        assert sssp_batch(a, np.array([], dtype=np.int64), backend=b).shape == (0, 8)

    def test_out_of_range_source_raises(self):
        a = erdos_renyi(8, 2, seed=1)
        b = ShmBackend()
        with pytest.raises(IndexError):
            bfs_levels_batch(a, np.array([8]), backend=b)
        with pytest.raises(IndexError):
            sssp_batch(a, np.array([-1]), backend=b)

    def test_sssp_requires_square(self):
        b = ShmBackend()
        rect = CSRMatrix.from_triples(2, 3, [0], [1], [1.0])
        with pytest.raises(ValueError):
            sssp_batch(rect, np.array([0]), backend=b)


def dense(g: CSRMatrix) -> np.ndarray:
    out = np.full(g.shape, np.inf)
    out[g.row_indices(), g.colidx] = g.values
    return out


def full_state_reference(b, am, sources) -> list[np.ndarray]:
    """The full-state rounds the delta frontier replaces: ``D ← D min
    (D ⊗ A)``, one ``mxm`` folding the whole state with ``accum=MIN``, to
    the fixpoint.  Returns the dense state before every round, so it ran
    ``len(states) - 1`` rounds and the last two states are equal."""
    ns, n = len(sources), b.shape(am)[0]
    d = b.matrix(CSRMatrix.from_triples(ns, n, np.arange(ns), sources, np.zeros(ns)))
    states = [dense(b.to_csr(d))]
    for _ in range(max(n - 1, 1)):
        d = b.mxm(d, am, semiring=MIN_PLUS, accum=MIN, out=d)
        states.append(dense(b.to_csr(d)))
        if np.array_equal(states[-1], states[-2]):
            break
    return states


def signed(a: CSRMatrix, seed: int) -> CSRMatrix:
    """Zero and negative edge weights without a negative cycle: a
    potential ``π`` reweights ``w₀ ≥ 0`` to ``w₀(u, v) + π(u) − π(v)``,
    which keeps every cycle's total at its ``w₀`` total.  Quarters keep
    the arithmetic exact, so no rounding can open a negative cycle."""
    rng = np.random.default_rng(seed)
    rows = a.row_indices()
    pi = rng.integers(0, 12, a.nrows) / 4.0
    w0 = rng.choice([0.0, 0.0, 0.25, 1.0, 2.5], a.nnz)
    return CSRMatrix.from_triples(
        a.nrows, a.ncols, rows, a.colidx, w0 + pi[rows] - pi[a.colidx]
    )


class TestSsspDeltaRounds:
    """``sssp_batch`` multiplies only the distances that improved in the
    previous round, and still runs exactly the full-state rounds."""

    @pytest.mark.parametrize("ns", [2, 8, 16])
    def test_each_round_multiplies_the_previous_rounds_changes(self, ns, monkeypatch):
        a = service_workload()
        sources = np.arange(ns, dtype=np.int64)
        b = ShmBackend()
        states = full_state_reference(b, b.matrix(a), sources)
        operands = []
        mxm = b.mxm

        def spy(x, y, **kw):
            operands.append(dense(b.to_csr(x)))
            return mxm(x, y, **kw)

        monkeypatch.setattr(b, "mxm", spy)
        rows = sssp_batch(a, sources, backend=b)
        np.testing.assert_array_equal(rows, states[-1])
        assert len(operands) == len(states) - 1
        np.testing.assert_array_equal(operands[0], states[0])
        for k in range(1, len(operands)):
            expected = np.where(states[k] != states[k - 1], states[k], np.inf)
            np.testing.assert_array_equal(operands[k], expected)

    @pytest.mark.parametrize("ns", [1, 8, 16])
    def test_dist_ledger_below_the_full_state_rounds(self, ns):
        a = service_workload()
        sources = np.arange(ns, dtype=np.int64)
        grid = LocaleGrid.for_count(SERVICE_GRID_P)
        delta = dist_backend(grid)
        sssp_batch(a, sources, backend=delta)
        full = dist_backend(grid)
        full_state_reference(full, full.matrix(a), sources)
        assert delta.machine.ledger.total < full.machine.ledger.total

    @pytest.mark.parametrize("p", [None, 1, 4, 6])
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_zero_and_negative_weights_equal_sequential(self, p, seed):
        a = signed(erdos_renyi(40, 3, seed=seed), seed=seed + 1)
        assert (a.values == 0.0).any() and (a.values < 0.0).any()
        b = ShmBackend() if p is None else dist_backend(LocaleGrid.for_count(p))
        sources = np.array([0, 7, 7, 39, 21])
        rows = sssp_batch(a, sources, backend=b)
        for i, s in enumerate(sources):
            np.testing.assert_array_equal(rows[i], reference("sssp", a, s))


CORES = {"bfs": bfs_levels_batch, "sssp": sssp_batch}


def small_graph() -> CSRMatrix:
    return weighted(erdos_renyi(64, 3, seed=7), seed=8)


def ledger_rows(b, prefix: str = "") -> list[tuple[str, float]]:
    """``(label, total)`` of every ledger row under ``prefix``, prefix cut."""
    return [
        (label[len(prefix):], bd.total)
        for label, bd in b.machine.ledger.entries
        if label.startswith(prefix)
    ]


class TestOneSourceBatch:
    """A batch with one distinct source runs the single-source core — the
    vector kernels, not a one-row SUMMA — and a repeated source runs once."""

    @pytest.mark.parametrize("p", [None, 1, 4, 6])
    @pytest.mark.parametrize("algo", ["bfs", "sssp"])
    def test_calls_no_mxm_and_equals_the_single_run(self, algo, p, monkeypatch):
        a = small_graph()
        b = ShmBackend() if p is None else dist_backend(LocaleGrid.for_count(p))

        def no_mxm(*args, **kw):
            raise AssertionError("a one-source batch called mxm")

        monkeypatch.setattr(b, "mxm", no_mxm)
        rows = CORES[algo](a, np.array([5]), backend=b)
        assert rows.shape == (1, a.nrows)
        np.testing.assert_array_equal(rows[0], reference(algo, a, 5))

    @pytest.mark.parametrize("p", [1, 4, 6])
    @pytest.mark.parametrize("algo", ["bfs", "sssp"])
    def test_dist_ledger_equals_the_single_run(self, algo, p):
        a, grid = small_graph(), LocaleGrid.for_count(p)
        batch, single = dist_backend(grid), dist_backend(grid)
        CORES[algo](a, np.array([5]), backend=batch)
        reference(algo, a, 5, backend=single)
        assert ledger_rows(batch) and ledger_rows(batch) == ledger_rows(single)

    @pytest.mark.parametrize(
        "listed, distinct",
        [([5, 5, 5], [5]), ([3, 3, 9], [3, 9]), ([9, 3, 9], [9, 3])],
        ids=["5,5,5", "3,3,9", "9,3,9"],
    )
    @pytest.mark.parametrize("algo", ["bfs", "sssp"])
    def test_repeated_sources_run_once(self, algo, listed, distinct):
        a, grid = small_graph(), LocaleGrid.for_count(SERVICE_GRID_P)
        rep, once = dist_backend(grid), dist_backend(grid)
        rows = CORES[algo](a, np.array(listed), backend=rep)
        CORES[algo](a, np.array(distinct), backend=once)
        assert ledger_rows(rep) == ledger_rows(once)
        for i, s in enumerate(listed):
            np.testing.assert_array_equal(rows[i], reference(algo, a, s))

    def test_service_solo_slices_equal_the_single_runs(self):
        """Every solo run the service executes bills exactly the
        single-source ledger, transpose-cache reuse included."""
        a, grid = small_graph(), LocaleGrid.for_count(SERVICE_GRID_P)
        b = dist_backend(grid)
        svc = GraphQueryService(b, a, registry=MetricsRegistry())
        queries = [("bfs", 5), ("sssp", 5), ("sssp", 40), ("bfs", 40)]
        reqs = [
            svc.submit("t", QuerySpec(algo, s), at=float(i))
            for i, (algo, s) in enumerate(queries)
        ]
        svc.run()
        ref = dist_backend(grid)
        handle = ref.matrix(a)
        for r in reqs:
            assert r.via == "solo"
            start = len(ref.machine.ledger.entries)
            reference(r.query.algo, handle, r.query.source, backend=ref)
            expected = ledger_rows(ref)[start:]
            assert expected and ledger_rows(b, f"svc[req={r.id}]:") == expected


class TestServiceBatching:
    """End to end through the service: the planner actually coalesces,
    and every served result is the sequential answer."""

    @settings(PROFILE_FAST, deadline=None)
    @given(query_workloads(), st.sampled_from(["bfs", "sssp"]))
    def test_same_window_queries_coalesce_and_match(self, wl, algo):
        a, _, sources = wl
        svc = GraphQueryService(
            ShmBackend(
                Machine(grid=LocaleGrid(1, 1), threads_per_locale=4, ledger=CostLedger())
            ),
            a,
            registry=MetricsRegistry(),
        )
        reqs = [
            svc.submit(f"t{i}", QuerySpec(algo, s), at=0.0)
            for i, s in enumerate(sources)
        ]
        svc.run()
        for r in reqs:
            assert r.status == "done"
            assert r.batch_size == len(sources)
            assert r.via == ("batch" if len(sources) > 1 else "solo")
            np.testing.assert_array_equal(
                r.result, reference(algo, a, r.query.source)
            )

    @settings(PROFILE_SLOW, deadline=None)
    @given(query_workloads(), covered_setups())
    def test_dist_service_under_faults_matches(self, wl, setup):
        a, grid, sources = wl
        plan, policy = setup
        svc = GraphQueryService(
            dist_backend(grid, faults=FaultInjector(plan, policy)),
            a,
            registry=MetricsRegistry(),
        )
        reqs = [
            svc.submit("t", QuerySpec("bfs", s), at=0.0) for s in sources
        ]
        svc.run()
        for r in reqs:
            assert r.status == "done"
            np.testing.assert_array_equal(
                r.result, reference("bfs", a, r.query.source)
            )

    def test_incompatible_algos_do_not_coalesce(self):
        a = weighted(erdos_renyi(32, 3, seed=4), seed=5)
        svc = GraphQueryService(ShmBackend(), a, registry=MetricsRegistry())
        rb = svc.submit("t", QuerySpec("bfs", 0), at=0.0)
        rs = svc.submit("t", QuerySpec("sssp", 0), at=0.0)
        svc.run()
        assert rb.batch_size == 1 and rs.batch_size == 1
        assert svc.stats.batches == 2

    def test_arrivals_outside_window_run_separately(self):
        a = weighted(erdos_renyi(32, 3, seed=4), seed=5)
        svc = GraphQueryService(
            ShmBackend(
                Machine(grid=LocaleGrid(1, 1), threads_per_locale=4, ledger=CostLedger())
            ),
            a,
            window=1.0e-6,
            registry=MetricsRegistry(),
        )
        r1 = svc.submit("t", QuerySpec("bfs", 0), at=0.0)
        r2 = svc.submit("t", QuerySpec("bfs", 1), at=1.0)
        svc.run()
        assert r1.via == "solo" and r2.via == "solo"
        assert svc.stats.batches == 2
