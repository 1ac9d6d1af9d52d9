"""Unit tests for SpGEMM (ESC and Gustavson) and masked products."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import MIN_FIRST, MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.algebra.semiring import MAX_SECOND
from repro.generators import erdos_renyi
from repro.ops import flops, mask_matrix, mxm, mxm_gustavson
from repro.runtime import fastpath
from repro.sparse import CSRMatrix

#: the module, not the ``repro.ops.mxm`` function that shadows it
mxm_module = importlib.import_module("repro.ops.mxm")

def rand(seed, n=10, m=None, density=0.3):
    rng = np.random.default_rng(seed)
    m = n if m is None else m
    d = (rng.random((n, m)) < density) * rng.integers(1, 5, (n, m)).astype(float)
    return CSRMatrix.from_dense(d)


class TestESC:
    def test_matches_numpy(self):
        a, b = rand(1), rand(2)
        c = mxm(a, b)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())
        c.check()

    def test_rectangular(self):
        a = rand(3, n=4, m=7)
        b = rand(4, n=7, m=5)
        c = mxm(a, b)
        assert c.shape == (4, 5)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_identity_neutral(self):
        a = rand(5)
        c = mxm(a, CSRMatrix.identity(10))
        assert np.allclose(c.to_dense(), a.to_dense())

    def test_empty_product(self):
        a = CSRMatrix.empty(4, 4)
        assert mxm(a, a).nnz == 0

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner"):
            mxm(CSRMatrix.empty(2, 3), CSRMatrix.empty(4, 2))

    def test_min_plus_shortest_two_hop(self):
        inf = 0.0  # unstored means "no edge"
        d = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        a = CSRMatrix.from_dense(d)
        c = mxm(a, a, semiring=MIN_PLUS)
        assert c[0, 2] == 3.0  # 0->1->2

    def test_plus_pair_counts_paths(self):
        d = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        a = CSRMatrix.from_dense(d)
        c = mxm(a, a, semiring=PLUS_PAIR)
        assert c[0, 2] == 1.0  # exactly one 2-path 0->1->2


class TestGustavson:
    def test_agrees_with_esc(self):
        a, b = rand(6), rand(7)
        c1 = mxm(a, b)
        c2 = mxm_gustavson(a, b)
        assert np.allclose(c1.to_dense(), c2.to_dense())
        c2.check()

    def test_empty_rows(self):
        a = CSRMatrix.from_dense(np.array([[0.0, 0.0], [1.0, 0.0]]))
        c = mxm_gustavson(a, a)
        assert np.allclose(c.to_dense(), a.to_dense() @ a.to_dense())

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner"):
            mxm_gustavson(CSRMatrix.empty(2, 3), CSRMatrix.empty(4, 2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(0, 10**6))
    def test_both_match_numpy_property(self, n, k, m, seed):
        a = rand(seed, n=n, m=k)
        b = rand(seed + 1, n=k, m=m)
        expected = a.to_dense() @ b.to_dense()
        assert np.allclose(mxm(a, b).to_dense(), expected)
        assert np.allclose(mxm_gustavson(a, b).to_dense(), expected)


class TestMasked:
    def test_mask_restricts_pattern(self):
        a, b = rand(8), rand(9)
        mask = rand(10, density=0.4)
        c = mxm(a, b, mask=mask)
        full = a.to_dense() @ b.to_dense()
        expected = np.where(mask.to_dense() != 0, full, 0.0)
        assert np.allclose(c.to_dense(), expected)

    def test_complement_mask(self):
        a, b = rand(11), rand(12)
        mask = rand(13, density=0.4)
        c = mxm(a, b, mask=mask, complement=True)
        full = a.to_dense() @ b.to_dense()
        expected = np.where(mask.to_dense() == 0, full, 0.0)
        assert np.allclose(c.to_dense(), expected)

    def test_gustavson_mask_agrees(self):
        a, b = rand(14), rand(15)
        mask = rand(16, density=0.3)
        c1 = mxm(a, b, mask=mask)
        c2 = mxm_gustavson(a, b, mask=mask)
        assert np.allclose(c1.to_dense(), c2.to_dense())


def _order_sensitive(seed, n, m, empty_rows=()):
    """Dense-ish float64 operand whose every stored value is an inexact
    float, so reordering a long sum changes its last bits."""
    rng = np.random.default_rng(seed)
    d = rng.random((n, m)) + 0.25
    d[list(empty_rows), :] = 0.0
    return CSRMatrix.from_dense(d)


#: 12x24 · 24x10: every output coordinate of a non-empty A row sums 23
#: products (B row 5 is empty); A rows 3 and 7 are empty
ESC_A = _order_sensitive(1, 12, 24, empty_rows=(3, 7))
ESC_B = _order_sensitive(2, 24, 10, empty_rows=(5,))


def _int64(m):
    """The same structure with int64 values."""
    return CSRMatrix(m.nrows, m.ncols, m.rowptr, m.colidx, (m.values * 1000).astype(np.int64))


def _esc_mask(kind):
    rng = np.random.default_rng(3)
    if kind == "random":
        return CSRMatrix.from_dense((rng.random((12, 10)) < 0.4).astype(float))
    if kind == "empty":
        return CSRMatrix.empty(12, 10)
    if kind == "disjoint":  # only A's empty rows: a plain mask keeps nothing
        d = np.zeros((12, 10))
        d[[3, 7], :] = 1.0
        return CSRMatrix.from_dense(d)
    return CSRMatrix.from_dense(np.ones((12, 10)))  # "full"


class TestMaskedESCDifferential:
    """On both sides of the fast-path switch, the masked ESC multiply —
    which prunes products before the compress on the fast path — equals
    the unmasked product filtered afterwards, bit for bit."""

    def test_fixture_exposes_summation_order(self):
        ad, bd = ESC_A.to_dense(), ESC_B.to_dense()
        counts = (ad != 0).astype(int) @ (bd != 0).astype(int)
        assert counts[counts > 0].min() >= 16
        prods = ad[:, :, None] * bd[None, :, :]
        forward = np.cumsum(prods, axis=1)[:, -1, :]
        backward = np.cumsum(prods[:, ::-1, :], axis=1)[:, -1, :]
        assert (forward != backward).any()

    @pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
    # FIRST and SECOND catch a swapped A ⊗ B operand order
    @pytest.mark.parametrize(
        "semiring", [PLUS_TIMES, MIN_PLUS, PLUS_PAIR, MIN_FIRST, MAX_SECOND], ids=lambda s: s.name
    )
    @pytest.mark.parametrize("kind", ["random", "empty", "disjoint", "full"])
    @pytest.mark.parametrize("complement", [False, True])
    # formats of (A, B, mask): CSR is the one local format
    @pytest.mark.parametrize("fmts", [("csr", "csr", "csr")], ids="-".join)
    def test_equals_mask_after_compress(self, fast, semiring, kind, complement, fmts):
        a, b, m = ESC_A, ESC_B, _esc_mask(kind)
        with fastpath.force(fast):
            got = mxm(a, b, semiring=semiring, mask=m, complement=complement)
            want = mask_matrix(mxm(a, b, semiring=semiring), m, complement=complement)
        for label in ("rowptr", "colidx", "values"):
            g, w = getattr(got, label), getattr(want, label)
            assert g.dtype == w.dtype, label
            assert np.array_equal(g, w), label
        got.check()
        with fastpath.force(not fast):
            other = mxm(a, b, semiring=semiring, mask=m, complement=complement)
        assert other.values.dtype == got.values.dtype
        assert np.array_equal(other.values, got.values)
        assert np.array_equal(other.colidx, got.colidx)

    @pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
    @pytest.mark.parametrize("semiring", [MIN_PLUS, MIN_FIRST], ids=lambda s: s.name)
    @pytest.mark.parametrize("kind", ["random", "empty", "disjoint", "full"])
    def test_int64_values_stay_int64(self, fast, semiring, kind):
        """The min monoid folds int64 products through float64; the result
        is cast back to the product dtype on every path."""
        a, b, m = _int64(ESC_A), _int64(ESC_B), _esc_mask(kind)
        with fastpath.force(fast):
            got = mxm(a, b, semiring=semiring, mask=m)
            want = mask_matrix(mxm(a, b, semiring=semiring), m)
        assert got.values.dtype == want.values.dtype == np.int64
        for label in ("rowptr", "colidx", "values"):
            assert np.array_equal(getattr(got, label), getattr(want, label)), label

    def test_keeps_nothing(self):
        with fastpath.force(True):
            c = mxm(ESC_A, ESC_B, mask=_esc_mask("disjoint"))
            everything = mxm(ESC_A, ESC_B, mask=_esc_mask("disjoint"), complement=True)
        assert c.nnz == 0 and c.values.dtype == np.float64
        assert everything.nnz == mxm(ESC_A, ESC_B).nnz

    @pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
    def test_wrong_shape_mask_raises(self, fast):
        with fastpath.force(fast), pytest.raises(ValueError, match="shape"):
            mxm(ESC_A, ESC_B, mask=CSRMatrix.empty(12, 11))


class TestDotPath:
    """A plain mask whose candidates ``D = Σ_(i,j)∈M nnz(A[i,:])`` number
    fewer than the expansion's ``F = flops(A, B)`` products takes one dot
    product per mask entry: it expands no B rows."""

    @staticmethod
    def candidates(a, m):
        return int((np.diff(m.rowptr) * np.diff(a.rowptr)).sum())

    def test_fixture_counts(self):
        assert flops(ESC_A, ESC_B) == 2300
        d = {kind: self.candidates(ESC_A, _esc_mask(kind)) for kind in ("random", "empty", "disjoint", "full")}
        assert d == {"random": 912, "empty": 0, "disjoint": 0, "full": 2400}

    @pytest.mark.parametrize(
        "kind, complement, expands",
        [
            ("random", False, False),
            ("empty", False, False),
            ("disjoint", False, False),
            ("full", False, True),  # D = 2400 >= F = 2300
            ("random", True, True),  # a complement mask always expands
        ],
    )
    def test_which_path_each_mask_takes(self, monkeypatch, kind, complement, expands):
        calls = []
        real = CSRMatrix.extract_rows

        def spy(self, rows):
            calls.append(rows.size)
            return real(self, rows)

        monkeypatch.setattr(CSRMatrix, "extract_rows", spy)
        with fastpath.force(True):
            mxm(ESC_A, ESC_B, mask=_esc_mask(kind), complement=complement)
        assert bool(calls) == expands

    def test_dot_path_never_extracts_rows(self, monkeypatch):
        a, m = erdos_renyi(300, 6, seed=4), erdos_renyi(300, 2, seed=5)
        assert self.candidates(a, m) < flops(a, a)
        want = mask_matrix(mxm(a, a, semiring=MIN_FIRST), m)

        def boom(self, rows):
            raise AssertionError("the dot path expanded B's rows")

        monkeypatch.setattr(CSRMatrix, "extract_rows", boom)
        with fastpath.force(True):
            got = mxm(a, a, semiring=MIN_FIRST, mask=m)
        for label in ("rowptr", "colidx", "values"):
            assert np.array_equal(getattr(got, label), getattr(want, label)), label


def _sparse_case():
    """A = B = ER(2000, 4) and a 20-entry mask: 16 entries of ``A·A``, ten
    of them with two or more products, and 4 cells it does not store.
    B's 4 M cells are far more than 64 per candidate."""
    a = erdos_renyi(2000, 4, seed=7)
    paths = mxm(a, a, semiring=PLUS_PAIR)
    rows, cols = paths.row_indices(), paths.colidx
    rng = np.random.default_rng(8)
    many = np.flatnonzero(paths.values >= 2)
    one = np.flatnonzero(paths.values == 1)
    pick = np.concatenate([rng.choice(many, 10, replace=False), rng.choice(one, 6, replace=False)])
    mr = np.concatenate([rows[pick], rng.integers(0, 2000, 4)])
    mc = np.concatenate([cols[pick], rng.integers(0, 2000, 4)])
    mask = CSRMatrix.from_triples(2000, 2000, mr, mc, np.ones(mr.size))
    return a, a, mask


def _boundary_case(row):
    """8x32 · 32x64, every value an inexact float: B has 2048 cells.  A's
    row 0 stores 31 entries and its other rows 32, so a one-entry mask in
    row ``row`` tests ``D = 31`` (2048 > 64·31) or ``D = 32`` (2048 = 64·32)
    candidates."""
    rng = np.random.default_rng(6)
    ad = rng.random((8, 32)) + 0.25
    ad[0, 5] = 0.0
    bd = rng.random((32, 64)) + 0.25
    mask = CSRMatrix.from_triples(8, 64, [row], [3], [1.0])
    return CSRMatrix.from_dense(ad), CSRMatrix.from_dense(bd), mask


LOOKUP_CASES = {
    "fixture": lambda: (ESC_A, ESC_B, _esc_mask("random")),  # 240 cells, D = 912
    "sparse": _sparse_case,
    "boundary": lambda: _boundary_case(1),
    "past_boundary": lambda: _boundary_case(0),
}


class TestKeyLookup:
    """The dot path and the ESC mask test find row-major keys through
    ``_find_keys``: a position table when the matrix has at most 64 cells
    per key, a binary search otherwise.  Either way the result is the one
    the pruned ESC computes."""

    @pytest.mark.parametrize("case", ["sparse", "boundary", "past_boundary"])
    @pytest.mark.parametrize(
        "semiring", [PLUS_TIMES, MIN_PLUS, PLUS_PAIR, MIN_FIRST, MAX_SECOND], ids=lambda s: s.name
    )
    @pytest.mark.parametrize("complement", [False, True])
    def test_equals_mask_after_compress(self, case, semiring, complement):
        a, b, m = LOOKUP_CASES[case]()
        with fastpath.force(True):
            got = mxm(a, b, semiring=semiring, mask=m, complement=complement)
        want = mask_matrix(mxm(a, b, semiring=semiring), m, complement=complement)
        for label in ("rowptr", "colidx", "values"):
            g, w = getattr(got, label), getattr(want, label)
            assert g.dtype == w.dtype, label
            assert np.array_equal(g, w), label
        assert complement or got.nnz > 0

    @pytest.mark.parametrize("case", ["sparse", "boundary", "past_boundary"])
    @pytest.mark.parametrize("semiring", [MIN_PLUS, MIN_FIRST], ids=lambda s: s.name)
    def test_int64_values_stay_int64(self, case, semiring):
        a, b, m = LOOKUP_CASES[case]()
        a, b = _int64(a), _int64(b)
        with fastpath.force(True):
            got = mxm(a, b, semiring=semiring, mask=m)
        want = mask_matrix(mxm(a, b, semiring=semiring), m)
        assert got.values.dtype == want.values.dtype == np.int64
        for label in ("rowptr", "colidx", "values"):
            assert np.array_equal(getattr(got, label), getattr(want, label)), label

    def test_case_counts(self):
        """D against B's cells for each dot-path case."""
        for case, d in {"fixture": 912, "boundary": 32, "past_boundary": 31}.items():
            a, b, m = LOOKUP_CASES[case]()
            assert TestDotPath.candidates(a, m) == d < flops(a, b), case
        a, b, m = _sparse_case()
        assert m.nnz == 20
        assert b.nrows * b.ncols > 64 * TestDotPath.candidates(a, m)

    @pytest.mark.parametrize(
        "case, complement, lookup",
        [
            ("fixture", False, "table"),  # dot path: 240 cells <= 64 * 912
            ("sparse", False, "search"),  # dot path: 4 M cells > 64 * D
            ("boundary", False, "table"),  # dot path: 2048 cells == 64 * 32
            ("past_boundary", False, "search"),  # dot path: 2048 > 64 * 31
            ("fixture", True, "table"),  # ESC mask test: 120 cells, 2300 products
            ("sparse", True, "search"),  # ESC mask test: 4 M cells > 64 * F
        ],
    )
    def test_which_lookup_each_case_takes(self, monkeypatch, case, complement, lookup):
        taken = []
        for name in ("_find_by_table", "_find_by_search"):
            real = getattr(mxm_module, name)

            def spy(*args, _real=real, _name=name):
                taken.append(_name)
                return _real(*args)

            monkeypatch.setattr(mxm_module, name, spy)
        a, b, m = LOOKUP_CASES[case]()
        with fastpath.force(True):
            mxm(a, b, mask=m, complement=complement)
        assert taken == [f"_find_by_{lookup}"]

    @pytest.mark.parametrize("seed", range(5))
    def test_both_lookups_return_the_same_positions(self, seed):
        rng = np.random.default_rng(seed)
        cells = int(rng.integers(1, 5000))
        mkeys = np.sort(rng.choice(cells, int(rng.integers(1, cells + 1)), replace=False))
        misses = np.setdiff1d(np.arange(cells), mkeys)
        queries = {
            "mixed": rng.integers(0, cells, 300),
            "all_miss": rng.choice(misses, min(misses.size, 50)),
            "all_hit": rng.permutation(mkeys),
            "last_cell": np.array([cells - 1]),
            "none": np.empty(0, dtype=np.int64),
        }
        where = {int(k): p for p, k in enumerate(mkeys)}
        for label, keys in queries.items():
            want = np.array([where.get(int(k), -1) for k in keys], dtype=np.int64)
            by_table = mxm_module._find_by_table(mkeys, cells, keys)
            by_search = mxm_module._find_by_search(mkeys, keys)
            assert np.array_equal(by_table, want), label
            assert np.array_equal(by_search, want), label

    def test_matrix_keys(self):
        """``_find_keys`` reads a matrix's keys row-major, empty ones too."""
        m = CSRMatrix.from_dense(np.array([[0.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 5.0]]))
        keys = np.arange(9)
        assert mxm_module._find_keys(m, keys).tolist() == [-1, 0, 1, -1, -1, -1, 2, -1, 3]
        assert mxm_module._find_keys(m, keys[:0]).size == 0
        assert mxm_module._find_keys(CSRMatrix.empty(3, 3), keys).tolist() == [-1] * 9


class TestFlops:
    def test_counts_partial_products(self):
        d1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        d2 = np.array([[1.0, 0.0], [1.0, 1.0]])
        a, b = CSRMatrix.from_dense(d1), CSRMatrix.from_dense(d2)
        # row0 of a hits rows 0 (1 nnz) and 1 (2 nnz); row1 hits row 1 (2)
        assert flops(a, b) == 5

    def test_mismatch(self):
        with pytest.raises(ValueError):
            flops(CSRMatrix.empty(2, 3), CSRMatrix.empty(2, 3))

    def test_er_flops_scale_with_density(self):
        a = erdos_renyi(100, 4, seed=1)
        b = erdos_renyi(100, 8, seed=2)
        assert flops(a, b) > flops(a, erdos_renyi(100, 2, seed=3))
