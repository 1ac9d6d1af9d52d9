"""Tests for the Erdős–Rényi generator (the paper's workload)."""

import numpy as np
import pytest

from repro.generators import erdos_renyi, erdos_renyi_triples
from repro.generators.erdos_renyi import _sample
from repro.sparse.csr import CSRMatrix
from repro.sparse.sort import unique_sorted


class TestErdosRenyi:
    def test_deterministic_given_seed(self):
        a = erdos_renyi(100, 4, seed=7)
        b = erdos_renyi(100, 4, seed=7)
        assert np.array_equal(a.colidx, b.colidx)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = erdos_renyi(100, 4, seed=1)
        b = erdos_renyi(100, 4, seed=2)
        assert not np.array_equal(a.colidx, b.colidx)

    def test_expected_density(self):
        # nnz ~ Binomial(n^2, d/n): mean d*n, sd ~ sqrt(d*n)
        n, d = 1000, 8
        a = erdos_renyi(n, d, seed=3)
        assert abs(a.nnz - d * n) < 6 * np.sqrt(d * n)

    def test_structure_valid_and_unique(self):
        a = erdos_renyi(200, 5, seed=4)
        a.check()  # sorted, deduplicated, in bounds

    def test_row_degrees_near_d(self):
        a = erdos_renyi(2000, 16, seed=5)
        assert abs(a.row_degrees().mean() - 16) < 1.0

    def test_values_modes(self):
        u = erdos_renyi(50, 3, seed=6, values="uniform")
        assert (u.values > 0).all() and (u.values < 1).all()
        o = erdos_renyi(50, 3, seed=6, values="one")
        assert (o.values == 1.0).all()
        with pytest.raises(ValueError):
            erdos_renyi(50, 3, values="bogus")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi(0, 1)
        with pytest.raises(ValueError):
            erdos_renyi(10, -1)
        with pytest.raises(ValueError):
            erdos_renyi(10, 11)

    def test_dense_extreme(self):
        a = erdos_renyi(10, 10, seed=8)  # p = 1: complete matrix
        assert a.nnz == 100

    def test_empty_extreme(self):
        a = erdos_renyi(10, 0, seed=9)
        assert a.nnz == 0

    def test_triples_match_matrix(self):
        rows, cols, vals = erdos_renyi_triples(60, 4, seed=10)
        assert rows.size == cols.size == vals.size
        assert rows.min() >= 0 and rows.max() < 60
        assert cols.min() >= 0 and cols.max() < 60
        # no duplicate coordinates
        keys = rows * 60 + cols
        assert np.unique(keys).size == keys.size


class TestSortFreeBuild:
    """``erdos_renyi`` skips the re-sort of its already unique cells; the
    matrix stays byte-identical to compressing the sampled triples."""

    @pytest.mark.parametrize(
        "n, d", [(2000, 8), (7, 7), (10, 0), (1, 1), (1, 0), (60, 59.5)]
    )
    @pytest.mark.parametrize("values", ["uniform", "one"])
    @pytest.mark.parametrize("generator", [False, True], ids=["int", "rng"])
    def test_matches_from_triples(self, n, d, values, generator):
        def seed():
            return np.random.default_rng(12) if generator else 12

        got = erdos_renyi(n, d, seed=seed(), values=values)
        want = CSRMatrix.from_triples(
            n, n, *erdos_renyi_triples(n, d, seed=seed(), values=values)
        )
        for name in ("rowptr", "colidx", "values"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            assert g.tobytes() == w.tobytes(), name
        got.check()


def _sample_union_and_sort(n, d, seed, values):
    """The top-up loop as it was first written: every round re-sorts the
    union of everything drawn so far.  Kept as the reference for
    ``_sample``, whose rounds insert only their new cells."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = d / n
    total_cells = n * n
    nnz = int(rng.binomial(total_cells, p)) if p < 1.0 else total_cells
    chosen = unique_sorted(rng.integers(0, total_cells, size=int(nnz * 1.05) + 16))
    while chosen.size < nnz:
        extra = rng.integers(0, total_cells, size=nnz - chosen.size + 16)
        chosen = unique_sorted(np.concatenate([chosen, extra]))
    perm = rng.permutation(chosen.size)[:nnz]
    vals = rng.random(nnz) if values == "uniform" else np.ones(nnz)
    return chosen, perm, vals


class TestTopUp:
    """Near-complete graphs need many top-up rounds; inserting each
    round's new cells draws and returns exactly what re-sorting the whole
    union every round did."""

    @pytest.mark.parametrize(
        "n, d",
        [
            (300, 299.5),
            (1000, 900),
            pytest.param(2000, 1990, marks=pytest.mark.slow),
            (50, 49.9),
            (7, 7),
            (300, 150),
        ],
    )
    @pytest.mark.parametrize("generator", [False, True], ids=["int", "rng"])
    def test_matches_the_union_and_sort_loop(self, n, d, generator):
        def seed():
            return np.random.default_rng(21) if generator else 21

        got = _sample(n, d, seed(), "uniform")
        want = _sample_union_and_sort(n, d, seed(), "uniform")
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
