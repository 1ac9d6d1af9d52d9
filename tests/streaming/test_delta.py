"""UpdateBatch semantics: CSR deltas, delete-then-upsert merge."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.functional import PLUS
from repro.sparse.csr import CSRMatrix
from repro.streaming import UpdateBatch, apply_batch_csr
from tests.strategies import PROFILE

pytestmark = pytest.mark.streaming


def dense(a: CSRMatrix) -> np.ndarray:
    return a.to_dense()


class TestUpdateBatch:
    def test_from_edges_defaults_and_counts(self):
        b = UpdateBatch.from_edges(
            10, 10, inserts=([1, 2], [3, 4]), deletes=([5], [6])
        )
        assert b.shape == (10, 10)
        assert b.num_upserts == 2 and b.num_deletes == 1 and b.size == 3
        _, _, w = b.upsert_triples()
        assert np.array_equal(w, [1.0, 1.0])  # weights default to 1

    def test_duplicate_insert_keeps_last_weight(self):
        b = UpdateBatch.from_edges(
            5, 5, inserts=([1, 1, 1], [2, 2, 2], [7.0, 8.0, 9.0])
        )
        assert b.num_upserts == 1
        _, _, w = b.upsert_triples()
        assert w[0] == 9.0

    def test_out_of_range_indices_raise(self):
        with pytest.raises(IndexError):
            UpdateBatch.from_edges(4, 4, inserts=([4], [0]))
        with pytest.raises(IndexError):
            UpdateBatch.from_edges(4, 4, deletes=([0], [-1]))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            UpdateBatch.from_edges(4, 4, inserts=([0, 1], [2]))
        with pytest.raises(ValueError):
            UpdateBatch.from_edges(4, 4, deletes=([0, 1], [2]))

    def test_symmetrized_mirrors_both_deltas(self):
        b = UpdateBatch.from_edges(
            6, 6, inserts=([0], [1], [2.5]), deletes=([2], [3])
        ).symmetrized()
        iu, iv, w = b.upsert_triples()
        assert sorted(zip(iu, iv)) == [(0, 1), (1, 0)]
        assert np.array_equal(w, [2.5, 2.5])
        du, dv = b.delete_pairs()
        assert sorted(zip(du, dv)) == [(2, 3), (3, 2)]
        with pytest.raises(ValueError):
            UpdateBatch.from_edges(2, 3, inserts=([0], [0])).symmetrized()


class TestApplyBatchCSR:
    def setup_method(self):
        self.a = CSRMatrix.from_triples(
            4, 4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]
        )

    def test_deletes_then_upserts(self):
        """One batch can atomically move an edge: the delete of (0,1)
        applies before the upsert of (0,2)."""
        batch = UpdateBatch.from_edges(
            4, 4, inserts=([0], [2], [9.0]), deletes=([0], [1])
        )
        out = apply_batch_csr(self.a, batch)
        d = dense(out)
        assert d[0, 1] == 0.0 and d[0, 2] == 9.0
        assert d[1, 2] == 2.0 and d[2, 3] == 3.0  # untouched entries survive

    def test_default_accum_overwrites_existing(self):
        batch = UpdateBatch.from_edges(4, 4, inserts=([1], [2], [10.0]))
        assert dense(apply_batch_csr(self.a, batch))[1, 2] == 10.0

    def test_plus_accum_increments_existing(self):
        batch = UpdateBatch.from_edges(4, 4, inserts=([1], [2], [10.0]))
        assert dense(apply_batch_csr(self.a, batch, accum=PLUS))[1, 2] == 12.0

    def test_delete_of_absent_entry_is_a_noop(self):
        batch = UpdateBatch.from_edges(4, 4, deletes=([3], [0]))
        assert np.array_equal(dense(apply_batch_csr(self.a, batch)), dense(self.a))

    def test_empty_batch_returns_a_fresh_copy(self):
        out = apply_batch_csr(self.a, UpdateBatch(4, 4))
        assert out is not self.a
        assert np.array_equal(dense(out), dense(self.a))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_batch_csr(self.a, UpdateBatch(5, 4))


@st.composite
def random_batches(draw, n: int):
    ni = draw(st.integers(0, 12))
    nd = draw(st.integers(0, 8))
    idx = st.lists(st.integers(0, n - 1), min_size=0, max_size=12)
    ir = draw(st.lists(st.integers(0, n - 1), min_size=ni, max_size=ni))
    ic = draw(st.lists(st.integers(0, n - 1), min_size=ni, max_size=ni))
    dr = draw(st.lists(st.integers(0, n - 1), min_size=nd, max_size=nd))
    dc = draw(st.lists(st.integers(0, n - 1), min_size=nd, max_size=nd))
    del idx
    w = draw(
        st.lists(
            st.floats(0.25, 8.0, allow_nan=False), min_size=ni, max_size=ni
        )
    )
    return UpdateBatch.from_edges(n, n, inserts=(ir, ic, w), deletes=(dr, dc))


class TestApplyOracle:
    @given(data=st.data())
    @settings(PROFILE)
    def test_apply_matches_dense_oracle(self, data):
        """Delete-then-overwrite semantics against a plain dense model."""
        n = data.draw(st.integers(2, 10))
        m = data.draw(st.integers(0, 2 * n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        a = CSRMatrix.from_triples(
            n, n,
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.uniform(0.5, 2.0, m),
        )
        batch = data.draw(random_batches(n))
        ref = a.to_dense().copy()
        du, dv = batch.delete_pairs()
        ref[du, dv] = 0.0
        iu, iv, w = batch.upsert_triples()
        ref[iu, iv] = w
        assert np.allclose(apply_batch_csr(a, batch).to_dense(), ref)
