"""Shared-memory backend semantics over its storage handles.

``ShmBackend`` handles are ``CSRMatrix``/``SparseVector`` themselves; these
tests pin what the backend adds on top of the kernels: type checks on
adoption, the in-place matching-domain ``assign``, non-mutating ``apply``,
and the structural, product and reduction ops against dense references.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algebra import MAX_MONOID, MIN_PLUS, PLUS_PAIR
from repro.algebra.functional import PLUS, SQUARE, TRIU, VALUEGT
from repro.exec import COMPLEMENT, ShmBackend
from repro.sparse import CSRMatrix, SparseVector


def dense_pair(seed=0, n=8):
    rng = np.random.default_rng(seed)
    d1 = (rng.random((n, n)) < 0.3) * rng.integers(1, 5, (n, n)).astype(float)
    d2 = (rng.random((n, n)) < 0.3) * rng.integers(1, 5, (n, n)).astype(float)
    return d1, d2


@pytest.fixture
def b():
    return ShmBackend()


class TestHandles:
    def test_matrix_adoption_is_identity(self, b):
        a = CSRMatrix.identity(3)
        assert b.matrix(a) is a and b.to_csr(a) is a

    def test_vector_adoption_is_identity(self, b):
        x = SparseVector.from_pairs(5, [2], [1.0])
        assert b.vector(x) is x and b.to_sparse(x) is x

    def test_matrix_rejects_wrong_types(self, b):
        with pytest.raises(TypeError):
            b.matrix(np.eye(3))
        with pytest.raises(TypeError):
            b.matrix(SparseVector.empty(3))

    def test_vector_rejects_wrong_types(self, b):
        with pytest.raises(TypeError):
            b.vector([1, 2, 3])


class TestAssign:
    def test_in_place_copy(self, b):
        v = SparseVector.empty(5)
        w = SparseVector.from_pairs(5, [2], [9.0])
        assert b.assign(v, w) is v
        assert v[2] == 9.0
        w.values[0] = 1.0  # dst holds a copy, not src's arrays
        assert v[2] == 9.0

    def test_mismatched_capacity(self, b):
        with pytest.raises(ValueError):
            b.assign(SparseVector.empty(5), SparseVector.empty(6))


class TestApply:
    def test_apply_vector_does_not_mutate(self, b):
        v = SparseVector.from_pairs(5, [1, 2], [2.0, 3.0])
        out = b.apply_vector(v, SQUARE)
        assert out[1] == 4.0 and out[2] == 9.0
        assert v[1] == 2.0 and v[2] == 3.0

    def test_apply_matrix_does_not_mutate(self, b):
        a = CSRMatrix.from_dense(np.array([[2.0, 0.0], [0.0, 3.0]]))
        out = b.apply_matrix(a, SQUARE)
        assert out[0, 0] == 4.0 and out[1, 1] == 9.0
        assert a[0, 0] == 2.0


class TestStructure:
    def test_transpose(self, b):
        d1, _ = dense_pair(1)
        assert np.allclose(b.transpose(CSRMatrix.from_dense(d1)).to_dense(), d1.T)

    def test_tril_and_select(self, b):
        d1, _ = dense_pair(2)
        a = CSRMatrix.from_dense(d1)
        assert np.allclose(b.tril(a).to_dense(), np.tril(d1))
        assert np.allclose(b.select_matrix(a, TRIU, 1).to_dense(), np.triu(d1, 1))

    def test_select_value(self, b):
        d1, _ = dense_pair(3)
        got = b.select_matrix(CSRMatrix.from_dense(d1), VALUEGT, 2.0)
        assert np.allclose(got.to_dense(), np.where(d1 > 2.0, d1, 0.0))

    def test_extract(self, b):
        d1, _ = dense_pair(4)
        sub = b.extract(CSRMatrix.from_dense(d1), [1, 3], [0, 2, 4])
        assert np.allclose(sub.to_dense(), d1[np.ix_([1, 3], [0, 2, 4])])


class TestElementwise:
    def test_ewise_mult(self, b):
        u = SparseVector.from_pairs(5, [1, 2], [2.0, 3.0])
        v = SparseVector.from_pairs(5, [2, 3], [5.0, 7.0])
        mult = b.ewise_mult(u, v, PLUS)
        assert np.array_equal(mult.indices, [2]) and mult[2] == 8.0

    def test_ewise_add(self, b):
        u = SparseVector.from_pairs(5, [1, 2], [2.0, 3.0])
        v = SparseVector.from_pairs(5, [2, 3], [5.0, 7.0])
        add = b.ewise_add(u, v)
        assert np.array_equal(add.indices, [1, 2, 3]) and add[2] == 8.0


class TestProducts:
    def test_vxm(self, b):
        a = CSRMatrix.from_dense(np.array([[0.0, 2.0], [3.0, 0.0]]))
        assert b.vxm(SparseVector.from_pairs(2, [0], [5.0]), a)[1] == 10.0

    def test_vxm_complemented_mask(self, b):
        a = CSRMatrix.from_triples(4, 4, [0, 0], [1, 2], [1.0, 1.0])
        visited = np.array([False, True, False, False])
        y = b.vxm(SparseVector.from_pairs(4, [0], [1.0]), a, mask=visited, desc=COMPLEMENT)
        assert np.array_equal(y.indices, [2])

    def test_vxm_min_plus(self, b):
        a = CSRMatrix.from_dense(np.array([[0.0, 2.0], [0.0, 0.0]]))
        y = b.vxm(SparseVector.from_pairs(2, [0], [1.0]), a, semiring=MIN_PLUS)
        assert y[1] == 3.0

    def test_mxm_semiring(self, b):
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        c = CSRMatrix.from_dense(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert b.mxm(a, c, semiring=MIN_PLUS)[0, 0] == 3.0

    @pytest.mark.parametrize("complement", [False, True])
    def test_masked_mxm(self, b, complement):
        d1, d2 = dense_pair(10)
        a, c = CSRMatrix.from_dense(d1), CSRMatrix.from_dense(d2)
        mask = CSRMatrix.from_dense((d1 != 0).astype(float))
        got = b.mxm(a, c, mask=mask, desc=COMPLEMENT if complement else None)
        keep = (d1 == 0) if complement else (d1 != 0)
        assert np.allclose(got.to_dense(), np.where(keep, d1 @ d2, 0.0))

    def test_triangle_count(self, b):
        # the Sandia formulation in three backend calls
        low = b.tril(CSRMatrix.from_dense(1.0 - np.eye(4)), -1)  # K4
        c = b.mxm(low, b.transpose(low), semiring=PLUS_PAIR, mask=low)
        assert b.reduce_matrix(c) == 4.0


class TestReductions:
    def test_reduce_matrix(self, b):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert b.reduce_matrix(a) == 6.0
        assert b.reduce_matrix(a, MAX_MONOID) == 3.0

    def test_reduce_vector(self, b):
        v = SparseVector.from_pairs(5, [1, 2], [3.0, 4.0])
        assert b.reduce_vector(v) == 7.0
        assert b.reduce_vector(v, MAX_MONOID) == 4.0

    def test_reduce_rows_dense(self, b):
        a = repro.erdos_renyi(20, 3, seed=1)
        assert np.allclose(b.reduce_rows_dense(a), a.to_dense().sum(axis=1))
