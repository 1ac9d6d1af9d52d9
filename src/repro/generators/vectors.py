"""Random sparse/dense vector generators for the paper's experiments.

Paper inputs: "Input sparse vectors are randomly generated with 10M
nonzeros" (Fig 1), "1M nonzeros" (Fig 2), 10K/1M/100M (Figs 4-5), and
"randomly created the input vector that is f percent full meaning that it
has nf nonzeros" (SpMSpV, §III-D).
"""

from __future__ import annotations

import numpy as np

from ..sparse.sort import unique_sorted
from ..sparse.vector import DenseVector, SparseVector

__all__ = ["random_sparse_vector", "random_bool_dense", "sample_distinct"]


def sample_distinct(
    n: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """``k`` distinct integers from ``[0, n)``, sorted — O(k) expected.

    Oversample-and-dedup, topping up shortfalls; avoids the O(n) memory of
    ``permutation`` so 10M-of-1B samples stay cheap.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k > n // 2:
        # dense case: a partial shuffle is cheaper than rejection
        return np.sort(rng.permutation(n)[:k].astype(np.int64))
    chosen = unique_sorted(rng.integers(0, n, size=int(k * 1.1) + 16))
    while chosen.size < k:
        extra = rng.integers(0, n, size=k - chosen.size + 16)
        chosen = unique_sorted(np.concatenate([chosen, extra]))
    if chosen.size > k:
        keep = rng.choice(chosen.size, size=k, replace=False)
        chosen = np.sort(chosen[keep])
    return chosen.astype(np.int64)


def random_sparse_vector(
    capacity: int,
    *,
    nnz: int | None = None,
    density: float | None = None,
    seed: int | np.random.Generator = 0,
    values: str = "uniform",
) -> SparseVector:
    """A random sparse vector with exactly ``nnz`` stored entries.

    Exactly one of ``nnz`` / ``density`` must be given; ``density`` is the
    paper's ``f`` (so ``nnz = f * capacity``).
    """
    if (nnz is None) == (density is None):
        raise ValueError("give exactly one of nnz / density")
    if nnz is None:
        nnz = int(round(density * capacity))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    idx = sample_distinct(capacity, nnz, rng)
    if values == "uniform":
        vals = rng.random(nnz)
    elif values == "one":
        vals = np.ones(nnz)
    elif values == "index":
        vals = idx.astype(np.float64)
    else:
        raise ValueError(f"unknown values mode {values!r}")
    return SparseVector(capacity, idx, vals)


def random_bool_dense(
    capacity: int,
    *,
    true_fraction: float = 0.5,
    seed: int | np.random.Generator = 0,
) -> DenseVector:
    """A random Boolean dense vector.

    The paper's eWiseMult experiment uses exactly this: "the dense vector y
    is simply a Boolean vector … we initialize y in a way that half the
    entries in x are kept in the output vector z" (§III-C).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return DenseVector(rng.random(capacity) < true_fraction)
