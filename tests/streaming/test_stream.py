"""GraphStream: epochs, history, views, cache invalidation, chunked ingest."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.algebra.semiring import PLUS_TIMES
from repro.exec import DistBackend, ShmBackend
from repro.generators import erdos_renyi
from repro.runtime import CostLedger, LocaleGrid, Machine
from repro.runtime.epoch import bump_epoch, epoch_of
from repro.runtime.telemetry.registry import MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.sparse.vector import SparseVector
from repro.streaming import GraphStream, IncrementalView, UpdateBatch, batches_from_edgelist

pytestmark = pytest.mark.streaming


def graph(n=16, deg=3, seed=7) -> CSRMatrix:
    return erdos_renyi(n, deg, seed=seed)


def dist_backend(p=4) -> DistBackend:
    return DistBackend(
        Machine(grid=LocaleGrid.for_count(p), threads_per_locale=2, ledger=CostLedger())
    )


def shm_backend() -> ShmBackend:
    from repro.runtime.locale import shared_machine

    m = shared_machine(2)
    return ShmBackend(
        Machine(config=m.config, grid=m.grid, threads_per_locale=2, ledger=CostLedger())
    )


def insert_batch(n, edges, w=1.0):
    r, c = zip(*edges)
    return UpdateBatch.from_edges(n, n, inserts=(list(r), list(c), [w] * len(edges)))


class TestEpochPrimitive:
    def test_epoch_defaults_to_zero_and_bumps(self):
        a = graph()
        assert epoch_of(a) == 0
        assert bump_epoch(a) == 1
        assert bump_epoch(a) == 2
        assert epoch_of(a) == 2

    def test_epochs_are_per_object(self):
        a, b = graph(), graph()
        bump_epoch(a)
        assert epoch_of(b) == 0


class TestGraphStream:
    @pytest.mark.parametrize("make", [shm_backend, dist_backend], ids=["shm", "dist"])
    def test_apply_advances_epoch_and_nnz(self, make):
        a = graph()
        s = GraphStream(make(), a, registry=MetricsRegistry())
        assert s.epoch == 0
        before = s.nnz
        e = s.apply(insert_batch(16, [(0, 9), (9, 0)]))
        assert e == s.epoch == 1
        assert s.nnz >= before  # inserts may overwrite existing entries

    @pytest.mark.parametrize("make", [shm_backend, dist_backend], ids=["shm", "dist"])
    def test_stream_updates_are_visible_in_gathered_csr(self, make):
        b = make()
        s = GraphStream(b, graph(), registry=MetricsRegistry())
        s.apply(insert_batch(16, [(2, 11)], w=42.0))
        assert b.to_csr(s.handle).to_dense()[2, 11] == 42.0

    def test_apply_bumps_storage_epoch(self):
        b = shm_backend()
        s = GraphStream(b, graph(), registry=MetricsRegistry())
        e0 = epoch_of(s.handle)
        s.apply(insert_batch(16, [(1, 2)]))
        assert epoch_of(s.handle) == e0 + 1

    def test_shape_mismatch_raises(self):
        s = GraphStream(shm_backend(), graph(), registry=MetricsRegistry())
        with pytest.raises(ValueError):
            s.apply(UpdateBatch(5, 5))

    def test_ledger_entries_carry_epoch_prefix(self):
        """One ``stream[epoch=k]:apply_updates`` row per batch on both
        backends: the distributed delta delivery is billed inside it."""
        for make in (shm_backend, dist_backend):
            b = make()
            s = GraphStream(b, graph(), registry=MetricsRegistry())
            s.apply(insert_batch(16, [(0, 5)]))
            s.apply(insert_batch(16, [(1, 6)]))
            labels = [lbl for lbl, _ in b.machine.ledger.entries]
            assert labels == [
                "stream[epoch=1]:apply_updates",
                "stream[epoch=2]:apply_updates",
            ], b.name

    def test_pending_and_history_eviction(self):
        s = GraphStream(
            shm_backend(), graph(), history=2, registry=MetricsRegistry()
        )
        batches = [insert_batch(16, [(i, (i + 1) % 16)]) for i in range(3)]
        for b in batches:
            s.apply(b)
        assert s.pending(3) == []
        assert s.pending(2) == [batches[2]]
        assert s.pending(1) == batches[1:]
        assert s.pending(0) is None  # epoch 1 evicted from the window
        assert s.pending(-1) is None

    def test_accum_default_applies_to_every_batch(self):
        from repro.algebra.functional import PLUS

        b = shm_backend()
        a = CSRMatrix.from_triples(4, 4, [0], [1], [1.0])
        s = GraphStream(b, a, accum=PLUS, registry=MetricsRegistry())
        s.apply(insert_batch(4, [(0, 1)], w=2.0))
        s.apply(insert_batch(4, [(0, 1)], w=3.0))
        assert b.to_csr(s.handle).to_dense()[0, 1] == 6.0


class TestCacheInvalidation:
    def test_shm_transpose_cache_refreshes_after_apply(self):
        b = shm_backend()
        s = GraphStream(b, graph(), registry=MetricsRegistry())
        t0 = b.transpose(s.handle)
        assert b.transpose(s.handle) is t0  # warm hit
        s.apply(insert_batch(16, [(3, 14)], w=5.0))
        t1 = b.transpose(s.handle)
        assert t1 is not t0
        assert b.to_csr(t1).to_dense()[14, 3] == 5.0

    def test_dist_transpose_cache_refreshes_after_apply(self):
        b = dist_backend()
        s = GraphStream(b, graph(), registry=MetricsRegistry())
        t0 = b.transpose(s.handle)
        assert b.transpose(s.handle) is t0
        s.apply(insert_batch(16, [(3, 14)], w=5.0))
        t1 = b.transpose(s.handle)
        assert t1 is not t0
        assert b.to_csr(t1).to_dense()[14, 3] == 5.0

    @pytest.mark.parametrize("make", [shm_backend, dist_backend], ids=["shm", "dist"])
    def test_vxm_after_mutation_equals_fresh_backend(self, make):
        """The end-to-end staleness check: a warm-cached backend that just
        mutated its matrix must agree exactly with a cold one built on the
        post-update graph."""
        from repro.runtime import fastpath

        a = graph()
        batch = insert_batch(16, [(0, 7), (7, 3)], w=2.0)
        with fastpath.force(True):
            warm = make()
            s = GraphStream(warm, a.copy(), registry=MetricsRegistry())
            x = warm.vector(SparseVector.from_pairs(16, [0, 7], [1.0, 1.0]))
            warm.vxm(x, s.handle, semiring=PLUS_TIMES)  # prime plan caches
            s.apply(batch)
            y_warm = warm.to_sparse(
                warm.vxm(x, s.handle, semiring=PLUS_TIMES)
            )
            cold = make()
            from repro.streaming import apply_batch_csr

            post = apply_batch_csr(a, batch)
            y_cold = cold.to_sparse(
                cold.vxm(
                    cold.vector(SparseVector.from_pairs(16, [0, 7], [1.0, 1.0])),
                    cold.matrix(post),
                    semiring=PLUS_TIMES,
                )
            )
        assert np.array_equal(y_warm.indices, y_cold.indices)
        assert np.array_equal(y_warm.values, y_cold.values)


    @pytest.mark.parametrize("make", [shm_backend, dist_backend], ids=["shm", "dist"])
    def test_dense_spmv_after_mutation_equals_fresh_backend(self, make):
        """Row ids cached before an update are not reused after it: dense
        SpMV and SSSP on the mutated handle equal a cold backend's on the
        post-update graph, bit for bit."""
        from repro.algebra.semiring import MIN_PLUS
        from repro.algorithms import sssp
        from repro.streaming import apply_batch_csr

        a = graph()
        batch = UpdateBatch.from_edges(
            16, 16, inserts=([0, 7, 15], [7, 3, 0], [2.0, 0.5, 1.5]), deletes=([3], [a.colidx[a.rowptr[3]]])
        )
        x = np.arange(16, dtype=np.float64)
        warm = make()
        s = GraphStream(warm, a.copy(), registry=MetricsRegistry())
        warm.vxm_dense(x, s.handle, semiring=MIN_PLUS)  # expand the rows
        sssp(s.handle, 0, backend=warm)
        s.apply(batch)
        cold = make()
        post = cold.matrix(apply_batch_csr(a, batch))
        for semiring in (MIN_PLUS, PLUS_TIMES):
            got = warm.vxm_dense(x, s.handle, semiring=semiring)
            assert got.tobytes() == cold.vxm_dense(x, post, semiring=semiring).tobytes()
        assert sssp(s.handle, 0, backend=warm).tobytes() == sssp(post, 0, backend=cold).tobytes()


class TestIncrementalView:
    def setup_method(self):
        self.reg = MetricsRegistry()
        self.backend = shm_backend()
        self.stream = GraphStream(
            self.backend, graph(), history=2, registry=self.reg
        )
        self.calls = {"full": 0, "advance": 0}

    def _view(self):
        def compute():
            self.calls["full"] += 1
            return self.backend.matrix_nnz(self.stream.handle)

        def advance(prev, batch):
            self.calls["advance"] += 1
            return self.backend.matrix_nnz(self.stream.handle)

        return IncrementalView(self.stream, compute, advance, name="nnz")

    def test_first_value_computes_full_then_hits(self):
        v = self._view()
        assert v.value() == self.stream.nnz
        assert self.calls == {"full": 1, "advance": 0}
        v.value()  # same epoch: memoised
        assert self.calls == {"full": 1, "advance": 0}
        assert (
            self.reg.counter("stream.view.refresh").value(view="nnz", outcome="hit")
            == 1
        )

    def test_small_lag_advances_incrementally(self):
        v = self._view()
        v.value()
        self.stream.apply(insert_batch(16, [(0, 3)]))
        self.stream.apply(insert_batch(16, [(1, 4)]))
        v.value()
        assert self.calls == {"full": 1, "advance": 2}

    def test_evicted_history_falls_back_to_full(self):
        v = self._view()
        v.value()
        for i in range(3):  # history=2 → epoch 1 evicted
            self.stream.apply(insert_batch(16, [(i, i + 5)]))
        v.value()
        assert self.calls["full"] == 2 and self.calls["advance"] == 0

    def test_view_without_advance_always_recomputes(self):
        v = IncrementalView(
            self.stream,
            lambda: self.backend.matrix_nnz(self.stream.handle),
            name="memo",
        )
        v.value()
        self.stream.apply(insert_batch(16, [(2, 9)]))
        assert v.value() == self.stream.nnz
        assert (
            self.reg.counter("stream.view.refresh").value(view="memo", outcome="full")
            == 2
        )

    def test_invalidate_forces_full(self):
        v = self._view()
        v.value()
        v.invalidate()
        v.value()
        assert self.calls["full"] == 2

    def test_staleness_gauge_tracks_worst_view(self):
        v = self._view()
        v.value()
        self.stream.apply(insert_batch(16, [(0, 3)]))
        assert self.reg.gauge("stream.staleness").value(backend="shm") == 1
        v.value()
        assert self.reg.gauge("stream.staleness").value(backend="shm") == 0


class TestBatchesFromEdgelist:
    def test_chunked_file_feeds_stream_to_same_graph(self, tmp_path):
        """Ingesting a SNAP file chunk-by-chunk ends at exactly the graph
        read_edgelist builds whole."""
        from repro.io.edgelist import read_edgelist, write_edgelist

        a = graph(n=12, deg=2, seed=3)
        path = tmp_path / "g.txt"
        write_edgelist(path, a, comment="streamed")
        b = shm_backend()
        s = GraphStream(b, CSRMatrix.from_triples(12, 12, [], [], []),
                        registry=MetricsRegistry())
        s.ingest(batches_from_edgelist(path, 12, batch_edges=5))
        assert s.epoch == -(-a.nnz // 5)  # ceil(nnz / 5) batches
        got = b.to_csr(s.handle)
        ref = read_edgelist(path)
        assert np.allclose(got.to_dense(), ref.to_dense())

    def test_symmetric_mirrors_edges(self):
        f = io.StringIO("0 1 2.5\n")
        (batch,) = list(batches_from_edgelist(f, 4, batch_edges=10, symmetric=True))
        iu, iv, w = batch.upsert_triples()
        assert sorted(zip(iu, iv)) == [(0, 1), (1, 0)]
        assert np.array_equal(w, [2.5, 2.5])
