"""Unit and property tests for monoids (reduce / reduceat semantics)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.algebra import (
    LAND_MONOID,
    LOR_MONOID,
    LXOR_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    Monoid,
    PLUS_MONOID,
    TIMES_MONOID,
    monoid,
)
from repro.algebra.functional import MINUS, PLUS


class TestConstruction:
    def test_requires_associative_op(self):
        with pytest.raises(ValueError, match="associative"):
            Monoid(MINUS, 0)

    def test_name(self):
        assert PLUS_MONOID.name == "plus_monoid"

    def test_lookup(self):
        assert monoid("plus") is PLUS_MONOID
        assert monoid("min") is MIN_MONOID
        with pytest.raises(KeyError):
            monoid("bogus")

    def test_callable(self):
        assert PLUS_MONOID(2, 3) == 5


class TestReduce:
    def test_empty_returns_identity(self):
        assert PLUS_MONOID.reduce(np.array([])) == 0
        assert MIN_MONOID.reduce(np.array([])) == np.inf
        assert LOR_MONOID.reduce(np.array([], dtype=bool)) is False

    def test_plus(self):
        assert PLUS_MONOID.reduce(np.array([1.0, 2.0, 3.0])) == 6.0

    def test_times(self):
        assert TIMES_MONOID.reduce(np.array([2.0, 3.0, 4.0])) == 24.0

    def test_min_max(self):
        v = np.array([3.0, -1.0, 2.0])
        assert MIN_MONOID.reduce(v) == -1.0
        assert MAX_MONOID.reduce(v) == 3.0

    def test_logical(self):
        assert LOR_MONOID.reduce(np.array([False, True])) is True
        assert LAND_MONOID.reduce(np.array([True, True])) is True
        assert LAND_MONOID.reduce(np.array([True, False])) is False
        assert LXOR_MONOID.reduce(np.array([True, True, True])) is True

    def test_identity_is_neutral(self):
        for m in [PLUS_MONOID, TIMES_MONOID, MIN_MONOID, MAX_MONOID]:
            assert m.op(m.identity, 7.0) == 7.0


class TestReduceat:
    def test_basic_segments(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        starts = np.array([0, 2, 4])
        out = PLUS_MONOID.reduceat(v, starts)
        assert np.array_equal(out, [3.0, 7.0, 5.0])

    def test_empty_segment_gets_identity(self):
        v = np.array([1.0, 2.0])
        starts = np.array([0, 1, 1, 2])  # middle segment and trailing empty
        out = PLUS_MONOID.reduceat(v, starts)
        # segments: [0:1)=1, [1:1)=empty, [1:2)=2, [2:2)=empty
        assert np.array_equal(out, [1.0, 0.0, 2.0, 0.0])

    def test_all_empty_segments(self):
        out = PLUS_MONOID.reduceat(np.array([]), np.array([0, 0, 0]))
        assert np.array_equal(out, [0.0, 0.0, 0.0])

    def test_no_segments(self):
        out = PLUS_MONOID.reduceat(np.array([1.0]), np.array([], dtype=np.int64))
        assert out.size == 0

    def test_min_reduceat_identity_for_empty(self):
        v = np.array([5.0, 1.0])
        out = MIN_MONOID.reduceat(v, np.array([0, 2]))
        assert out[0] == 1.0
        assert out[1] == np.inf

    def test_generic_fallback_for_unregistered_op(self):
        from repro.algebra.functional import FIRST

        m = Monoid(FIRST, None)
        v = np.array([10.0, 20.0, 30.0])
        out = m.reduceat(v, np.array([0, 1]))
        assert np.array_equal(out, [10.0, 20.0])



def scatter_reduce_loop(m, values, indices, size):
    """Reference fold: ``out[k] = op(out[k], v)`` in entry order from the
    identity — the order ``scatter_reduce`` promises."""
    out = [m.identity] * size
    for k, v in zip(indices, values):
        out[k] = m.op(out[k], v)
    return out


class TestScatterReduce:
    @pytest.mark.parametrize(
        "m",
        [PLUS_MONOID, TIMES_MONOID, MIN_MONOID, MAX_MONOID, LOR_MONOID, LAND_MONOID, LXOR_MONOID],
        ids=lambda m: m.name,
    )
    def test_matches_the_entry_order_loop(self, m):
        rng = np.random.default_rng(7)
        values = rng.uniform(-2.0, 2.0, 200)
        indices = rng.integers(0, 40, 200)  # leaves some of 45 slots empty
        out = m.scatter_reduce(values, indices, 45)
        assert np.array_equal(out, np.asarray(scatter_reduce_loop(m, values, indices, 45), dtype=out.dtype))

    def test_min_of_ints_widens_to_float(self):
        out = MIN_MONOID.scatter_reduce(np.array([3, 1], dtype=np.int64), np.array([0, 0]), 2)
        assert out.dtype == np.float64 and list(out) == [1.0, np.inf]

    def test_generic_fallback_for_unregistered_op(self):
        from repro.algebra.functional import FIRST

        m = Monoid(FIRST, None)
        out = m.scatter_reduce(np.array([10.0, 20.0, 30.0]), np.array([2, 0, 2]), 3)
        assert list(out) == [20.0, None, 10.0]

    def test_empty(self):
        assert PLUS_MONOID.scatter_reduce(np.empty(0), np.empty(0, np.int64), 0).size == 0
        assert list(MAX_MONOID.scatter_reduce(np.empty(0), np.empty(0, np.int64), 2)) == [-np.inf] * 2


class TestProperties:
    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=30))
    def test_plus_reduce_matches_sum(self, xs):
        v = np.array(xs, dtype=np.float64)
        assert PLUS_MONOID.reduce(v) == pytest.approx(v.sum() if xs else 0.0)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30)
    )
    def test_min_reduce_matches_min(self, xs):
        v = np.array(xs)
        assert MIN_MONOID.reduce(v) == min(xs)

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
        st.data(),
    )
    def test_reduceat_matches_per_segment_reduce(self, seg_lens, data):
        values = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=-10, max_value=10),
                    min_size=sum(seg_lens),
                    max_size=sum(seg_lens),
                )
            ),
            dtype=np.float64,
        )
        starts = np.cumsum([0] + seg_lens[:-1]).astype(np.int64)
        out = PLUS_MONOID.reduceat(values, starts)
        bounds = np.append(starts, values.size)
        expected = [values[s:e].sum() if e > s else 0.0 for s, e in zip(bounds[:-1], bounds[1:])]
        assert np.allclose(out, expected)
