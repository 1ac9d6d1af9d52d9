"""Differential property tests: every kernel variant against the oracle.

The dispatch engine's core contract is that *kernel choice can only change
simulated cost, never values*.  This suite pins that with Hypothesis:

* every ``y ← x A`` variant — push with merge/radix sort, the sort-based
  SPA-free kernel, the pull direction, and the cost-model dispatcher in
  every mode — agrees **bit-for-bit** with every other, over all
  representative semirings (push and pull reduce products in the same
  ascending-input-index order, so even float results are identical);
* the arithmetic (PLUS_TIMES) case additionally matches the scipy.sparse
  dense oracle exactly (entries are drawn from exactly-representable
  floats, so no tolerances are needed);
* the same holds for the distributed kernel over random locale grids, the
  sorting kernels against ``numpy.sort``, the SPA against dense
  accumulation, and eWiseMult's atomic/prefix index-collection methods.

Strategies and example-count tiers live in :mod:`tests.strategies`; select
a tier with ``REPRO_TEST_PROFILE`` (quick/standard/slow).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.algebra.semiring import PLUS_TIMES
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.ops.dispatch import PULL, PUSH_MERGE, PUSH_RADIX, PUSH_SORTBASED, Dispatcher
from repro.ops.ewise import ewisemult_sparse_dense
from repro.ops.spmspv import spmspv_shm
from repro.ops.spmspv_merge import spmspv_shm_merge
from repro.ops.spmv import vxm_pull
from repro.runtime import CostLedger, LocaleGrid, Machine, shared_machine
from repro.sparse.sort import merge_sort, radix_sort
from repro.sparse.spa import SPA
from repro.sparse.vector import DenseVector, SparseVector

from tests.strategies import (
    PROFILE,
    PROFILE_SLOW,
    dense_masks,
    matrix_vector_pairs,
    monoids,
    semirings,
    sparse_vectors,
    values,
)

scipy_sparse = pytest.importorskip("scipy.sparse")


def _assert_identical(got: SparseVector, want: SparseVector, label: str) -> None:
    assert got.capacity == want.capacity, label
    assert np.array_equal(got.indices, want.indices), label
    assert np.array_equal(got.values, want.values), f"{label}: values differ"


def _all_variants(a, x, *, semiring, mask=None, complement=False):
    """(label, result) for every shared-memory kernel variant."""
    m = shared_machine(2)
    out = [
        (
            PUSH_MERGE,
            spmspv_shm(
                a, x, m, semiring=semiring, sort="merge",
                mask=mask, complement=complement,
            )[0],
        ),
        (
            PUSH_RADIX,
            spmspv_shm(
                a, x, m, semiring=semiring, sort="radix",
                mask=mask, complement=complement,
            )[0],
        ),
        (
            PULL,
            vxm_pull(
                a.transposed(), x, m, semiring=semiring,
                mask=mask, complement=complement,
            )[0],
        ),
        (
            "dispatch[auto]",
            Dispatcher(m).vxm(
                a, x, semiring=semiring, mask=mask, complement=complement
            )[0],
        ),
    ]
    if mask is None:  # the sort-based kernel has no fused-mask path
        out.insert(
            2, (PUSH_SORTBASED, spmspv_shm_merge(a, x, m, semiring=semiring)[0])
        )
    return out


# ---------------------------------------------------------------------------
# shared-memory vxm: oracle + cross-kernel agreement
# ---------------------------------------------------------------------------


@PROFILE
@given(matrix_vector_pairs())
def test_every_kernel_matches_scipy_oracle(pair):
    """PLUS_TIMES results equal the scipy dense product, exactly."""
    a, x = pair
    sp = scipy_sparse.csr_matrix(
        (a.values, a.colidx, a.rowptr), shape=(a.nrows, a.ncols)
    )
    want = x.to_dense() @ sp.toarray()
    for label, got in _all_variants(a, x, semiring=PLUS_TIMES):
        assert np.array_equal(got.to_dense(), want), label


@PROFILE
@given(matrix_vector_pairs(), semirings())
def test_kernel_variants_bit_identical(pair, semiring):
    """All variants agree bit-for-bit over every representative semiring."""
    a, x = pair
    variants = _all_variants(a, x, semiring=semiring)
    _, ref = variants[0]
    for label, got in variants[1:]:
        _assert_identical(got, ref, f"{label} vs {variants[0][0]}")


@PROFILE
@given(matrix_vector_pairs(), semirings(), st.data())
def test_masked_kernels_bit_identical(pair, semiring, data):
    """Fused masks: every mask-capable variant agrees, both polarities."""
    a, x = pair
    mask = data.draw(dense_masks(a.ncols))
    complement = data.draw(st.booleans())
    variants = _all_variants(
        a, x, semiring=semiring, mask=mask, complement=complement
    )
    _, ref = variants[0]
    for label, got in variants[1:]:
        _assert_identical(got, ref, f"masked {label} vs {variants[0][0]}")
    # fused mask ≡ unmasked multiply followed by pattern filtering
    unmasked, _ = spmspv_shm(a, x, shared_machine(1), semiring=semiring)
    allowed = ~mask if complement else mask
    keep = allowed[unmasked.indices]
    _assert_identical(
        ref,
        SparseVector(a.ncols, unmasked.indices[keep], unmasked.values[keep]),
        "fused vs post-hoc mask",
    )


@PROFILE
@given(
    matrix_vector_pairs(),
    semirings(),
    st.sampled_from(["auto", "push", "pull", PUSH_MERGE, PUSH_RADIX, PULL]),
    st.sampled_from([None, 0.0, 0.05, 0.5, 1.0]),
)
def test_dispatch_never_changes_results(pair, semiring, mode, threshold):
    """Any mode/threshold combination returns the reference result."""
    a, x = pair
    want, _ = spmspv_shm(a, x, shared_machine(1), semiring=semiring)
    disp = Dispatcher(shared_machine(2), mode=mode, pull_threshold=threshold)
    got, _ = disp.vxm(a, x, semiring=semiring)
    _assert_identical(got, want, f"mode={mode} threshold={threshold}")
    assert len(disp.decisions) == 1
    assert disp.decisions[0].chosen in disp.decisions[0].estimates


# ---------------------------------------------------------------------------
# distributed vxm
# ---------------------------------------------------------------------------


@pytest.mark.slow
@PROFILE_SLOW
@given(
    matrix_vector_pairs(),
    semirings(),
    st.integers(1, 9),
    st.sampled_from(["auto", "fine", "bulk"]),
    st.sampled_from(["auto", "merge", "radix"]),
)
def test_dist_dispatch_equals_shm(pair, semiring, p, comm, sort):
    """Distributed auto/forced modes over any grid match shared memory."""
    a, x = pair
    want, _ = spmspv_shm(a, x, shared_machine(1), semiring=semiring)
    grid = LocaleGrid.for_count(p)
    machine = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
    yd, _ = Dispatcher(machine).vxm_dist(
        DistSparseMatrix.from_global(a, grid),
        DistSparseVector.from_global(x, grid),
        semiring=semiring,
        gather_mode=comm,
        scatter_mode=comm,
        sort=sort,
    )
    _assert_identical(yd.gather(), want, f"p={p} comm={comm} sort={sort}")


# ---------------------------------------------------------------------------
# sorting kernels
# ---------------------------------------------------------------------------


@PROFILE
@given(
    st.lists(st.integers(0, 2**40), max_size=200),
    st.sampled_from([np.int64, np.int32, np.uint32]),
)
def test_sorts_match_numpy_oracle(keys, dtype):
    """merge_sort and radix_sort equal numpy's sort; dtype is preserved."""
    if dtype == np.int32:
        keys = [k & 0x7FFFFFFF for k in keys]
    elif dtype == np.uint32:
        keys = [k & 0xFFFFFFFF for k in keys]
    arr = np.array(keys, dtype=dtype)
    want = np.sort(arr, kind="stable")
    for name, out in (("merge", merge_sort(arr)), ("radix", radix_sort(arr))):
        assert np.array_equal(out, want), name
        assert out.dtype == arr.dtype, f"{name} changed dtype"


@PROFILE
@given(st.lists(st.integers(-2**40, -1), min_size=1, max_size=8))
def test_radix_rejects_negative_keys(keys):
    """Negative keys raise — including the single-element fast path."""
    with pytest.raises(ValueError):
        radix_sort(np.array(keys, dtype=np.int64))


# ---------------------------------------------------------------------------
# SPA
# ---------------------------------------------------------------------------


@PROFILE
@given(
    st.integers(1, 40),
    st.data(),
    monoids(),
)
def test_spa_scatter_matches_dense_accumulation(cap, data, monoid):
    """Batched SPA scatters equal a dense per-slot fold, in any batch split."""
    n_batches = data.draw(st.integers(1, 3))
    spa = SPA(cap)
    dense: dict[int, float] = {}
    for _ in range(n_batches):
        idx = data.draw(
            st.lists(st.integers(0, cap - 1), max_size=30)
        )
        vals = data.draw(
            st.lists(values(), min_size=len(idx), max_size=len(idx))
        )
        spa.scatter(
            np.array(idx, dtype=np.int64), np.array(vals), monoid=monoid
        )
        for i, v in zip(idx, vals):
            dense[i] = monoid.op(dense[i], v) if i in dense else v
    spa.check()
    got = spa.gather()
    assert np.array_equal(got.indices, np.array(sorted(dense), dtype=np.int64))
    assert np.array_equal(
        got.values, np.array([dense[i] for i in sorted(dense)])
    )


# ---------------------------------------------------------------------------
# eWiseMult methods
# ---------------------------------------------------------------------------


@PROFILE
@given(st.data())
def test_ewisemult_methods_agree(data):
    """atomic and prefix produce the same filter result as the oracle."""
    from repro.algebra.functional import TIMES

    x = data.draw(sparse_vectors())
    y_bits = data.draw(
        st.lists(st.booleans(), min_size=x.capacity, max_size=x.capacity)
    )
    y = DenseVector(np.array(y_bits, dtype=np.float64))
    m = shared_machine(2)
    za, _ = ewisemult_sparse_dense(x, y, TIMES, m, method="atomic")
    zp, _ = ewisemult_sparse_dense(x, y, TIMES, m, method="prefix")
    _assert_identical(zp, za, "prefix vs atomic")
    # oracle: entries of x where y is truthy and the product is non-zero
    keep = np.array(y_bits, dtype=bool)[x.indices] & (x.values != 0)
    _assert_identical(
        za,
        SparseVector(x.capacity, x.indices[keep], x.values[keep]),
        "vs dense oracle",
    )
