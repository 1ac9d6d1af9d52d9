"""Property-based fuzzing of whole-operation equivalences.

Randomised pipelines assert the library's central meta-invariants:

* distributed execution ≡ local execution, for every operation and any
  locale-grid shape;
* the implementation-variant pairs the paper compares (Apply1/Apply2,
  Assign1/Assign2, merge/radix sort, fine/bulk communication, ESC/Gustavson
  SpGEMM, 1-D/2-D distribution) agree *numerically* — they may only differ
  in simulated cost;
* semiring algebra: products over several semirings match a scalar
  reference evaluator.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algebra import LOR_LAND, MAX_TIMES, MIN_PLUS, PLUS_TIMES
from repro.algebra.functional import SQUARE
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.generators import erdos_renyi, random_sparse_vector
from repro.ops import (
    apply1,
    apply2,
    mxm,
    mxm_gustavson,
    spmspv_dist,
    spmspv_shm,
)
from repro.runtime import LocaleGrid, Machine, shared_machine

SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES]


@st.composite
def workload(draw):
    n = draw(st.integers(4, 60))
    d = draw(st.floats(0.0, 6.0))
    nnz = draw(st.integers(0, n))
    seed = draw(st.integers(0, 10_000))
    a = erdos_renyi(n, min(d, n), seed=seed)
    x = random_sparse_vector(n, nnz=nnz, seed=seed + 1)
    return a, x


@settings(max_examples=40, deadline=None)
@given(workload(), st.integers(1, 12), st.sampled_from(SEMIRINGS))
def test_spmspv_dist_equals_shm_any_grid(wl, p, semiring):
    a, x = wl
    y_ref, _ = spmspv_shm(a, x, shared_machine(1), semiring=semiring)
    grid = LocaleGrid.for_count(p)
    yd, _ = spmspv_dist(
        DistSparseMatrix.from_global(a, grid),
        DistSparseVector.from_global(x, grid),
        Machine(grid=grid, threads_per_locale=2),
        semiring=semiring,
    )
    got = yd.gather()
    assert np.array_equal(got.indices, y_ref.indices)
    assert np.allclose(got.values, y_ref.values)


@settings(max_examples=30, deadline=None)
@given(workload(), st.sampled_from(SEMIRINGS))
def test_auto_dispatch_matches_forced_push(wl, semiring):
    """The cost-model auto dispatcher is an equivalence variant too: whatever
    kernel it selects must agree with the baseline push kernel."""
    from repro.exec import ShmBackend

    a, x = wl
    y_ref, _ = spmspv_shm(a, x, shared_machine(1), semiring=semiring)
    got = ShmBackend().vxm(x, a, semiring=semiring, mode="auto")
    assert np.array_equal(got.indices, y_ref.indices)
    assert np.allclose(got.values, y_ref.values)


@settings(max_examples=30, deadline=None)
@given(workload(), st.integers(1, 12), st.sampled_from(SEMIRINGS))
def test_auto_dispatch_dist_equals_shm_any_grid(wl, p, semiring):
    """Distributed auto dispatch (gather/scatter/sort all chosen by the
    cost model) stays numerically identical to local execution — driven
    through the distributed backend, so dispatch composes with the frontend."""
    from repro.exec import DistBackend

    a, x = wl
    y_ref, _ = spmspv_shm(a, x, shared_machine(1), semiring=semiring)
    b = DistBackend(Machine(grid=LocaleGrid.for_count(p), threads_per_locale=2))
    got = b.to_sparse(b.vxm(b.vector(x), b.matrix(a), semiring=semiring))
    assert np.array_equal(got.indices, y_ref.indices)
    assert np.allclose(got.values, y_ref.values)


@settings(max_examples=30, deadline=None)
@given(workload(), st.sampled_from(["fine", "bulk"]), st.sampled_from(["merge", "radix"]))
def test_mode_variants_numerically_identical(wl, comm, sort):
    a, x = wl
    grid = LocaleGrid.for_count(4)
    baseline, _ = spmspv_dist(
        DistSparseMatrix.from_global(a, grid),
        DistSparseVector.from_global(x, grid),
        Machine(grid=grid),
    )
    variant, _ = spmspv_dist(
        DistSparseMatrix.from_global(a, grid),
        DistSparseVector.from_global(x, grid),
        Machine(grid=grid),
        gather_mode=comm,
        scatter_mode=comm,
        sort=sort,
    )
    assert np.array_equal(baseline.gather().indices, variant.gather().indices)
    assert np.allclose(baseline.gather().values, variant.gather().values)


@settings(max_examples=30, deadline=None)
@given(workload(), st.integers(1, 9))
def test_apply_variants_agree(wl, p):
    _, x = wl
    grid = LocaleGrid.for_count(p)
    x1 = DistSparseVector.from_global(x, grid)
    x2 = DistSparseVector.from_global(x, grid)
    m = Machine(grid=grid, threads_per_locale=2)
    apply1(x1, SQUARE, m)
    apply2(x2, SQUARE, m)
    assert np.allclose(x1.gather().to_dense(), x2.gather().to_dense())


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.floats(0.0, 5.0), st.integers(0, 9999), st.sampled_from(SEMIRINGS))
def test_spgemm_variants_agree(n, d, seed, semiring):
    a = erdos_renyi(n, min(d, n), seed=seed)
    b = erdos_renyi(n, min(d, n), seed=seed + 7)
    c1 = mxm(a, b, semiring=semiring)
    c2 = mxm_gustavson(a, b, semiring=semiring)
    assert np.array_equal(c1.rowptr, c2.rowptr)
    assert np.array_equal(c1.colidx, c2.colidx)
    assert np.allclose(c1.values, c2.values)


@settings(max_examples=25, deadline=None)
@given(workload())
def test_boolean_reachability_matches_set_logic(wl):
    a, x = wl
    y, _ = spmspv_shm(a, x, shared_machine(1), semiring=LOR_LAND)
    reach = set()
    for i in x.indices:
        reach.update(a.row(int(i))[0].tolist())
    assert set(y.indices.tolist()) == reach


@settings(max_examples=25, deadline=None)
@given(workload(), st.integers(1, 8))
def test_distribute_never_loses_entries(wl, p):
    a, x = wl
    grid = LocaleGrid.for_count(p)
    ad = DistSparseMatrix.from_global(a, grid)
    xd = DistSparseVector.from_global(x, grid)
    assert ad.nnz == a.nnz
    assert xd.nnz == x.nnz
    ad.check()
    xd.check()
