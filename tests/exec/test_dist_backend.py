"""The distributed backend on its storage handles.

:class:`~repro.exec.DistBackend` takes and returns the block-distributed
storage (:class:`~repro.distributed.DistSparseMatrix` /
:class:`~repro.distributed.DistSparseVector`) directly.  These tests pin
what the backend adds on top of the kernels: the machine-grid check on
adoption, non-mutating apply, the fused vector mask with the
descriptor's complement, the blockwise output step, dispatch spans, and
a transpose cache that frees entries with their sources.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import repro
from repro.algebra import MIN_PLUS
from repro.algebra.functional import PLUS, SQUARE
from repro.algorithms import pagerank
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.exec import COMPLEMENT, REPLACE, Descriptor, DistBackend
from repro.exec.descriptor import merge_vector
from repro.generators import random_bool_dense
from repro.ops.mask import mask_vector_dense
from repro.runtime import CostLedger, LocaleGrid, Machine


def backend(p=4, ledger=None, **modes) -> DistBackend:
    m = Machine(grid=LocaleGrid.for_count(p), threads_per_locale=4, ledger=ledger)
    return DistBackend(m, **modes)


class TestHandles:
    def test_distribute_gather_roundtrip(self):
        b = backend()
        x = repro.random_sparse_vector(200, nnz=50, seed=1)
        a = repro.erdos_renyi(80, 4, seed=17)
        xh, ah = b.vector(x), b.matrix(a)
        assert isinstance(xh, DistSparseVector) and isinstance(ah, DistSparseMatrix)
        assert np.array_equal(b.to_sparse(xh).indices, x.indices)
        assert np.allclose(b.to_csr(ah).to_dense(), a.to_dense())

    def test_grid_mismatch_rejected(self):
        b = backend(p=4)
        grid = LocaleGrid.for_count(2)
        x = DistSparseVector.from_global(repro.random_sparse_vector(50, nnz=10, seed=2), grid)
        a = DistSparseMatrix.from_global(repro.erdos_renyi(50, 3, seed=2), grid)
        with pytest.raises(ValueError, match="grid"):
            b.vector(x)
        with pytest.raises(ValueError, match="grid"):
            b.matrix(a)


class TestApplyAssign:
    def test_apply_vector_non_mutating(self):
        b = backend()
        x = repro.random_sparse_vector(100, nnz=20, seed=3)
        xh = b.vector(x)
        yh = b.apply_vector(xh, SQUARE)
        assert np.allclose(b.to_sparse(yh).to_dense(), x.to_dense() ** 2)
        assert np.allclose(b.to_sparse(xh).to_dense(), x.to_dense())

    def test_apply_matrix_non_mutating(self):
        b = backend()
        a = repro.erdos_renyi(50, 3, seed=18)
        ah = b.matrix(a)
        sq = b.apply_matrix(ah, SQUARE)
        assert np.allclose(b.to_csr(sq).to_dense(), a.to_dense() ** 2)
        assert np.allclose(b.to_csr(ah).to_dense(), a.to_dense())

    def test_assign(self):
        b = backend()
        src = b.vector(repro.random_sparse_vector(80, nnz=15, seed=5))
        dst = b.empty_vector(80)
        assert b.assign(dst, src) is dst
        assert np.array_equal(b.to_sparse(dst).indices, b.to_sparse(src).indices)


class TestVxm:
    def setup_method(self):
        self.a = repro.erdos_renyi(90, 4, seed=30)
        self.x = repro.random_sparse_vector(90, nnz=25, seed=31)

    def oracle(self, b, region):
        """Unmasked distributed product post-filtered by ``region``."""
        y = b.vxm(b.vector(self.x), b.matrix(self.a))
        return mask_vector_dense(b.to_sparse(y), region)

    def test_matches_local(self):
        b = backend()
        y = b.vxm(b.vector(self.x), b.matrix(self.a))
        assert np.allclose(b.to_sparse(y).to_dense(), self.x.to_dense() @ self.a.to_dense())

    def test_semiring_and_forced_modes(self):
        auto = backend()
        forced = backend(gather_mode="bulk", scatter_mode="fine", sort="radix")
        ys = [
            b.to_sparse(b.vxm(b.vector(self.x), b.matrix(self.a), semiring=MIN_PLUS))
            for b in (auto, forced)
        ]
        assert np.array_equal(ys[0].indices, ys[1].indices)
        assert np.array_equal(ys[0].values, ys[1].values)

    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_fused_mask_matches_post_filter(self, p):
        b = backend(p)
        region = random_bool_dense(90, seed=32).values
        got = b.to_sparse(b.vxm(b.vector(self.x), b.matrix(self.a), mask=region))
        ref = self.oracle(b, region)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.values, ref.values)

    def test_desc_complement_partitions_the_output(self):
        b = backend()
        region = random_bool_dense(90, seed=33).values
        xh, ah = b.vector(self.x), b.matrix(self.a)
        kept = b.to_sparse(b.vxm(xh, ah, mask=region))
        dropped = b.to_sparse(b.vxm(xh, ah, mask=region, desc=COMPLEMENT))
        assert np.array_equal(dropped.indices, self.oracle(b, ~region).indices)
        assert kept.nnz + dropped.nnz == b.to_sparse(b.vxm(xh, ah)).nnz

    def test_accum_out_merges_blockwise_like_global(self):
        b = backend()
        region = random_bool_dense(90, seed=35).values
        c = repro.random_sparse_vector(90, nnz=20, seed=36)
        got = b.to_sparse(
            b.vxm(b.vector(self.x), b.matrix(self.a), mask=region, accum=PLUS, out=b.vector(c))
        )
        ref = merge_vector(self.oracle(b, region), c, mask=region, accum=PLUS)
        assert np.array_equal(got.indices, ref.indices)
        assert np.allclose(got.values, ref.values)

    def test_replace_drops_out_outside_mask(self):
        b = backend()
        region = random_bool_dense(90, seed=37).values
        c = repro.random_sparse_vector(90, nnz=20, seed=38)
        got = b.to_sparse(
            b.vxm(b.vector(self.x), b.matrix(self.a), mask=region, out=b.vector(c), desc=REPLACE)
        )
        ref = merge_vector(self.oracle(b, region), c, mask=region, replace=True)
        assert np.array_equal(got.indices, ref.indices)
        assert not np.any(~region[got.indices])

    def test_masked_vxm_records_dispatch_span(self):
        led = CostLedger()
        b = backend(ledger=led)
        region = random_bool_dense(90, seed=39).values
        b.vxm(b.vector(self.x), b.matrix(self.a), mask=region)
        assert any(lbl.startswith("dispatch[vxm_dist]") for lbl, _ in led.entries)
        assert "Gather Input" in led.by_component()


class TestMatrixProducts:
    def test_mxm(self):
        b = backend()
        a = repro.erdos_renyi(40, 3, seed=19)
        ah = b.matrix(a)
        c = b.mxm(ah, ah)
        assert np.allclose(b.to_csr(c).to_dense(), a.to_dense() @ a.to_dense())

    def test_mxm_transpose_b(self):
        b = backend()
        a = repro.erdos_renyi(30, 3, seed=20)
        ah = b.matrix(a)
        c = b.mxm(ah, ah, desc=Descriptor(transpose_b=True))
        assert np.allclose(b.to_csr(c).to_dense(), a.to_dense() @ a.to_dense().T)


class TestTransposeCache:
    def test_entries_die_with_their_sources(self):
        """Each solve here transposes a fresh row-scaled matrix of its own;
        a backend kept across solves must not keep those alive, and
        sharing it must not change ranks or the simulated bill."""
        a = repro.erdos_renyi(120, 4, seed=40)

        def solve(b):
            scaled = b.scale_rows(b.matrix(a), np.full(120, 0.5))
            b.transpose(scaled)
            assert len(b._transposes) == 1
            return pagerank(a, backend=b)

        shared_led, fresh_led = CostLedger(), CostLedger()
        shared = backend(ledger=shared_led)
        kept = [solve(shared) for _ in range(3)]
        gc.collect()
        assert not shared._transposes
        fresh_machine = backend(ledger=fresh_led).machine
        for rank in kept:
            assert np.array_equal(rank, solve(DistBackend(fresh_machine)))
        assert shared_led.total == fresh_led.total
        assert shared_led.by_component() == fresh_led.by_component()

    def test_live_source_still_hits(self):
        b = backend()
        ah = b.matrix(repro.erdos_renyi(30, 3, seed=41))
        t = b.transpose(ah)
        gc.collect()
        assert b.transpose(ah) is t
        assert np.allclose(b.to_csr(t).to_dense(), b.to_csr(ah).to_dense().T)
