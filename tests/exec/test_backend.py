"""Unit tests for the execution frontend: protocol, backends, attribution.

Covers the :class:`~repro.exec.Backend` protocol conformance of both
backends, the per-handle transpose caches, the descriptor-driven output
step as seen *through* ``vxm``/``mxm``, and the per-iteration ledger
attribution (:class:`~repro.exec.IterationScope`).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import repro
from repro.algebra.functional import PLUS
from repro.algebra.semiring import MIN_PLUS, PLUS_PAIR
from repro.exec import (
    Backend,
    COMPLEMENT,
    Descriptor,
    DistBackend,
    IterationScope,
    REPLACE,
    ShmBackend,
    merge_vector,
)
from repro.runtime import CostLedger, LocaleGrid, Machine

N = 60


def dist_machine(p=4, ledger=None):
    return Machine(grid=LocaleGrid.for_count(p), threads_per_locale=4, ledger=ledger)


def graph(seed=1, deg=4):
    return repro.erdos_renyi(N, deg, seed=seed)


def vec(seed=2, nnz=15):
    return repro.random_sparse_vector(N, nnz=nnz, seed=seed)


@pytest.fixture(params=["shm", "dist", "dist_nonsquare"])
def backend(request):
    if request.param == "shm":
        return ShmBackend()
    p = 4 if request.param == "dist" else 6
    return DistBackend(dist_machine(p))


class TestProtocol:
    def test_backends_satisfy_protocol(self, backend):
        assert isinstance(backend, Backend)

    def test_constructors_roundtrip(self, backend):
        a, x = graph(), vec()
        ah, xh = backend.matrix(a), backend.vector(x)
        assert backend.shape(ah) == (N, N)
        assert backend.matrix_nnz(ah) == a.nnz
        assert backend.vector_nnz(xh) == x.nnz
        assert np.allclose(backend.to_csr(ah).to_dense(), a.to_dense())
        back = backend.to_sparse(xh)
        assert np.array_equal(back.indices, x.indices)
        # adopting a handle is a no-op
        assert backend.matrix(ah) is ah
        assert backend.vector(xh) is xh

    def test_vector_from_pairs_and_empty(self, backend):
        idx = np.array([3, 7, 41], dtype=np.int64)
        v = backend.vector_from_pairs(N, idx, np.ones(3))
        assert np.array_equal(backend.to_sparse(v).indices, idx)
        assert backend.vector_nnz(backend.empty_vector(N)) == 0

    def test_pattern(self, backend):
        ah = backend.matrix(graph())
        pat = backend.pattern(ah)
        assert np.all(backend.to_csr(pat).values == 1.0)

    def test_structure_ops_match_shm_reference(self, backend):
        a = graph(seed=3)
        ah = backend.matrix(a)
        assert np.array_equal(backend.row_degrees(ah), a.row_degrees())
        assert np.allclose(
            backend.to_csr(backend.tril(ah, -1)).to_dense(),
            np.tril(a.to_dense(), -1),
        )
        rows = np.arange(0, N, 2)
        sub = backend.to_csr(backend.extract(ah, rows, rows))
        assert np.allclose(sub.to_dense(), a.to_dense()[np.ix_(rows, rows)])
        assert np.allclose(
            backend.to_csr(backend.transpose(ah)).to_dense(), a.to_dense().T
        )

    def test_reductions(self, backend):
        a, x = graph(seed=4), vec(seed=5)
        ah, xh = backend.matrix(a), backend.vector(x)
        assert np.isclose(backend.reduce_matrix(ah), a.values.sum())
        assert np.isclose(backend.reduce_vector(xh), x.values.sum())
        assert np.allclose(
            backend.reduce_rows_dense(ah), np.asarray(a.to_dense()).sum(axis=1)
        )

    def test_dense_products(self, backend):
        a = graph(seed=6)
        x = np.arange(N, dtype=float)
        ah = backend.matrix(a)
        assert np.allclose(backend.mxv_dense(ah, x), a.to_dense() @ x)
        assert np.allclose(backend.vxm_dense(x, ah), x @ a.to_dense())

    def test_scale_rows(self, backend):
        a = graph(seed=7)
        f = np.linspace(0.5, 2.0, N)
        got = backend.to_csr(backend.scale_rows(backend.matrix(a), f))
        assert np.allclose(got.to_dense(), a.to_dense() * f[:, None])


class TestTransposeCache:
    def test_cache_hit_is_same_handle(self, backend):
        ah = backend.matrix(graph(seed=8))
        t1 = backend.transpose(ah)
        assert backend.transpose(ah) is t1

    def test_cache_does_not_alias_distinct_handles(self, backend):
        a1 = backend.matrix(graph(seed=9))
        a2 = backend.matrix(graph(seed=10))
        t1, t2 = backend.transpose(a1), backend.transpose(a2)
        assert t1 is not t2
        assert np.allclose(
            backend.to_csr(t2).to_dense(), backend.to_csr(a2).to_dense().T
        )

    def test_entries_die_with_their_sources(self, backend):
        for seed in range(5):
            backend.transpose(backend.matrix(graph(seed=20 + seed)))
        gc.collect()
        assert len(backend._transposes) == 0

    def test_shm_pair_hits_and_dies_together(self):
        b = ShmBackend()
        a = b.matrix(graph(seed=30))
        at = b.transpose(a)
        assert b.transpose(at) is a
        del a, at
        gc.collect()
        assert len(b._transposes) == 0


class TestVxmDescriptor:
    """The output step as seen through the frontend's vxm."""

    def reference(self, a, x, *, mask=None, complement=False, accum=None,
                  out=None, replace=False, transpose=False):
        mat = a.to_dense().T if transpose else a.to_dense()
        y = repro.SparseVector.from_dense(x.to_dense() @ mat)
        return merge_vector(
            y, out, mask=mask, complement=complement, accum=accum, replace=replace
        )

    def test_plain(self, backend):
        a, x = graph(seed=11, deg=3), vec(seed=12)
        got = backend.to_sparse(
            backend.vxm(backend.vector(x), backend.matrix(a), semiring=MIN_PLUS)
        )
        dense = np.where(a.to_dense() != 0, a.to_dense(), np.inf)
        xd = np.where(x.to_dense() != 0, x.to_dense(), np.inf)
        xd[x.indices] = x.values
        want = (xd[:, None] + dense).min(axis=0)
        assert np.allclose(got.to_dense(zero=np.inf)[got.indices], want[got.indices])

    @pytest.mark.parametrize("complement", [False, True])
    def test_masked(self, backend, complement):
        a, x = graph(seed=13), vec(seed=14)
        rng = np.random.default_rng(15)
        mask = rng.random(N) < 0.5
        desc = COMPLEMENT if complement else None
        got = backend.to_sparse(
            backend.vxm(backend.vector(x), backend.matrix(a), mask=mask, desc=desc)
        )
        want = self.reference(a, x, mask=mask, complement=complement)
        assert np.array_equal(got.indices, want.indices)
        assert np.allclose(got.to_dense(), want.to_dense())

    def test_accum_out_replace(self, backend):
        a, x, c = graph(seed=16), vec(seed=17), vec(seed=18, nnz=20)
        rng = np.random.default_rng(19)
        mask = rng.random(N) < 0.6
        got = backend.to_sparse(
            backend.vxm(
                backend.vector(x), backend.matrix(a),
                mask=mask, accum=PLUS, out=backend.vector(c), desc=REPLACE,
            )
        )
        want = self.reference(a, x, mask=mask, accum=PLUS, out=c, replace=True)
        assert np.array_equal(got.indices, want.indices)
        assert np.allclose(got.to_dense(), want.to_dense())

    def test_transpose_a(self, backend):
        a, x = graph(seed=20), vec(seed=21)
        got = backend.to_sparse(
            backend.vxm(
                backend.vector(x), backend.matrix(a), desc=Descriptor(transpose_a=True)
            )
        )
        want = self.reference(a, x, transpose=True)
        assert np.array_equal(got.indices, want.indices)
        assert np.allclose(got.to_dense(), want.to_dense())


class TestMxm:
    def test_masked_mxm_matches_dense(self, backend):
        a = graph(seed=22, deg=3)
        ah = backend.matrix(a)
        low = backend.tril(ah, -1)
        wedges = backend.mxm(
            low, backend.transpose(low), semiring=PLUS_PAIR, mask=low
        )
        ld = np.tril(a.to_dense() != 0, -1)
        want = (ld.astype(np.int64) @ ld.T.astype(np.int64)) * ld
        assert np.allclose(backend.to_csr(wedges).to_dense(), want)

    def test_mxm_accum_out(self, backend):
        a = graph(seed=23, deg=2)
        b = graph(seed=24, deg=2)
        ah, bh = backend.matrix(a), backend.matrix(b)
        c = backend.mxm(ah, bh, semiring=PLUS_PAIR, accum=PLUS, out=ah)
        prod = (a.to_dense() != 0).astype(float) @ (b.to_dense() != 0).astype(float)
        want = np.where(prod != 0, prod + a.to_dense() * (prod != 0), prod)
        want = prod + np.where(prod != 0, 0, 0)  # recompute cleanly below
        ad = a.to_dense()
        both = (prod != 0) & (ad != 0)
        want = np.where(both, prod + ad, np.where(prod != 0, prod, ad))
        assert np.allclose(backend.to_csr(c).to_dense(), want)


class TestIterationScope:
    def test_relabels_without_adding_entries(self):
        led = CostLedger()
        b = DistBackend(dist_machine(4, ledger=led))
        a = b.matrix(graph(seed=25))
        x = b.vector(vec(seed=26))
        with b.iteration("demo", 3):
            b.vxm(x, a)
        labels = [lbl for lbl, _ in led.entries]
        assert labels, "vxm must record spans"
        assert all(lbl.startswith("demo[iter=3]:") for lbl in labels)
        assert any("spmspv_dist" in lbl for lbl in labels)

    def test_by_component_unchanged_by_relabel(self):
        led1, led2 = CostLedger(), CostLedger()
        for led, scoped in ((led1, False), (led2, True)):
            b = DistBackend(dist_machine(4, ledger=led))
            a = b.matrix(graph(seed=27))
            x = b.vector(vec(seed=28))
            if scoped:
                with b.iteration("demo", 0):
                    b.vxm(x, a)
            else:
                b.vxm(x, a)
        assert led1.by_component() == led2.by_component()

    def test_none_ledger_is_noop(self):
        scope = IterationScope(None, "x[iter=0]")
        with scope:
            pass  # must not raise

    def test_nested_prefixes_stack(self):
        led = CostLedger()
        led.record("inner", repro.Breakdown())
        outer = IterationScope(led, "outer")
        with outer:
            with IterationScope(led, "mid"):
                led.record("leaf", repro.Breakdown())
        labels = [lbl for lbl, _ in led.entries]
        assert labels == ["inner", "outer:mid:leaf"]


class TestDistEwise:
    def test_ewise_requires_shared_distribution(self):
        b4 = DistBackend(dist_machine(4))
        b2 = DistBackend(dist_machine(2))
        u = b4.vector(vec(seed=29))
        v = b2.vector(vec(seed=30))
        with pytest.raises(ValueError, match="distribution"):
            b4.ewise_mult(u, v, PLUS)

    def test_ewise_matches_shm(self):
        u, v = vec(seed=31), vec(seed=32, nnz=25)
        shm, dist = ShmBackend(), DistBackend(dist_machine(6))
        for op_name in ("ewise_mult", "ewise_add"):
            s = getattr(shm, op_name)(shm.vector(u), shm.vector(v), PLUS)
            d = getattr(dist, op_name)(dist.vector(u), dist.vector(v), PLUS)
            assert np.array_equal(shm.to_sparse(s).indices, dist.to_sparse(d).indices)
            assert np.allclose(shm.to_sparse(s).to_dense(), dist.to_sparse(d).to_dense())
