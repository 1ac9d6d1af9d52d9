"""Erdős–Rényi random sparse matrices — the paper's evaluation workload.

Paper §II-A: "In the Erdős-Rényi random graph model G(n, p), each edge is
present with probability p independently from each other.  For p = d/m
where d ≪ m, in expectation d nonzeros are uniformly distributed in each
column.  … Randomly generated matrices give us precise control over the
nonzero distribution."

The generator samples the *number* of edges from the exact Binomial(n², p)
law and places them uniformly (rejecting the rare duplicate), which is
equivalent to per-entry coin flips but runs in O(nnz) instead of O(n²).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.sort import unique_sorted

__all__ = ["erdos_renyi", "erdos_renyi_triples"]


def _sample(
    n: int, d: float, seed: int | np.random.Generator, values: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw G(n, d/n): ``(chosen, perm, vals)``.

    ``chosen`` holds sorted distinct linear cell indices (at least the
    edge count), ``perm`` the positions of the kept cells in sampling
    order — ``chosen[perm]`` is ``rng.permutation(chosen)[:nnz]``, the
    same draws — and ``vals`` their values in that order.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if d < 0 or d > n:
        raise ValueError("need 0 <= d <= n")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = d / n
    total_cells = n * n
    nnz = int(rng.binomial(total_cells, p)) if p < 1.0 else total_cells
    # sample distinct linear cell indices; duplicates are rare for d << n,
    # so oversample then top up the shortfall.  Each round dedupes only its
    # own draws and inserts the cells not chosen yet: the sorted union,
    # without re-sorting the cells already chosen.
    chosen = unique_sorted(rng.integers(0, total_cells, size=int(nnz * 1.05) + 16))
    while chosen.size < nnz:
        extra = unique_sorted(rng.integers(0, total_cells, size=nnz - chosen.size + 16))
        pos = np.searchsorted(chosen, extra)
        fresh = chosen[np.minimum(pos, chosen.size - 1)] != extra
        chosen = np.insert(chosen, pos[fresh], extra[fresh])
    perm = rng.permutation(chosen.size)[:nnz]
    if values == "uniform":
        vals = rng.random(nnz)
    elif values == "one":
        vals = np.ones(nnz)
    else:
        raise ValueError(f"unknown values mode {values!r}")
    return chosen, perm, vals


def erdos_renyi_triples(
    n: int,
    d: float,
    *,
    seed: int | np.random.Generator = 0,
    values: str = "uniform",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample G(n, d/n) as (rows, cols, values) triples without duplicates.

    Parameters
    ----------
    n:
        Number of rows/columns (the paper uses square matrices only).
    d:
        Expected nonzeros per row/column; ``p = d/n``.
    seed:
        Integer seed or a numpy Generator (determinism for benchmarks).
    values:
        ``"uniform"`` — U(0,1) values; ``"one"`` — all ones (boolean-style
        adjacency).
    """
    chosen, perm, vals = _sample(n, d, seed, values)
    cells = chosen[perm]
    return (cells // n).astype(np.int64), (cells % n).astype(np.int64), vals


def erdos_renyi(
    n: int,
    d: float,
    *,
    seed: int | np.random.Generator = 0,
    values: str = "uniform",
) -> CSRMatrix:
    """A G(n, d/n) random matrix in CSR form (see :func:`erdos_renyi_triples`).

    The same matrix as ``CSRMatrix.from_triples(*erdos_renyi_triples(...))``
    without a sort: the kept cells are already in row-major order in
    ``chosen``, so each value is scattered to its cell's rank among them.
    """
    chosen, perm, vals = _sample(n, d, seed, values)
    keep = np.zeros(chosen.size, dtype=bool)
    keep[perm] = True
    slot = np.cumsum(keep) - 1
    sorted_vals = np.empty_like(vals)
    sorted_vals[slot[perm]] = vals
    cells = chosen[keep]
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells // n, minlength=n), out=rowptr[1:])
    return CSRMatrix(n, n, rowptr, cells % n, sorted_vals)
