"""Maximal bipartite matching — the paper's reference [12] problem.

Azad & Buluç's matching work ([12] in the paper) is the motivating example
for *fine-grained* communication: "traversing a small number of long paths
in a bipartite graph matching algorithm benefits from fine-grained
asynchronous communication" (§IV).  This module implements the standard
GraphBLAS building block of that line of work: a one-round-per-step
**greedy maximal matching**:

1. every unmatched row proposes to its smallest unmatched column — one
   ``(min, second)`` SpMV over a column vector carrying free column ids;
2. every proposed-to column accepts its smallest proposer (first-touch);
3. matched pairs leave the game; repeat until no proposals.

The result is maximal (no augmenting edge remains) and therefore at least
half the size of the maximum matching — the classic 1/2-approximation the
tests pin against networkx's exact matching.  Min is associative, so the
distributed backend matches identically.
"""

from __future__ import annotations

import numpy as np

from ..algebra.semiring import MIN_SECOND
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from ..sparse.sort import unique_sorted

__all__ = ["maximal_matching", "is_valid_matching"]


def _maximal_matching_core(b: Backend, a) -> tuple[np.ndarray, np.ndarray]:
    nrows, ncols = b.shape(a)
    row_match = np.full(nrows, -1, dtype=np.int64)
    col_match = np.full(ncols, -1, dtype=np.int64)
    live = b.row_degrees(a) > 0
    rnd = 0
    while live.any():
        rnd += 1
        # step 1: x[j] = j for free columns (inf otherwise); (min, second)
        # hands every row its smallest unmatched neighbouring column
        x = np.where(col_match < 0, np.arange(ncols, dtype=np.float64), np.inf)
        with b.iteration("matching", rnd):
            best = b.mxv_dense(a, x, semiring=MIN_SECOND)
        proposals = live & np.isfinite(best)
        if not proposals.any():
            break
        prop_rows = np.flatnonzero(proposals).astype(np.int64)
        prop_cols = best[prop_rows].astype(np.int64)
        # step 2: each column accepts its smallest proposer (proposals are
        # generated in ascending row order, so the first proposal per
        # column wins under a stable first-touch)
        order = np.argsort(prop_cols, kind="stable")
        pc = prop_cols[order]
        pr = prop_rows[order]
        accept_first = np.empty(pc.size, dtype=bool)
        accept_first[0] = True
        accept_first[1:] = pc[1:] != pc[:-1]
        won_rows = pr[accept_first]
        won_cols = pc[accept_first]
        row_match[won_rows] = won_cols
        col_match[won_cols] = won_rows
        # step 3: matched rows leave; rows with no free neighbour left are
        # pruned by the finiteness test of the next round's proposals
        live &= row_match < 0
    return row_match, col_match


def maximal_matching(
    a: CSRMatrix, *, backend: Backend | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximal matching of the bipartite graph ``A`` (rows × cols).

    Returns ``(row_match, col_match)``: ``row_match[i]`` is the column
    matched to row ``i`` (or -1), and symmetrically for columns.  The
    matching is *maximal*: every unmatched row has only matched neighbours.
    """
    b = backend or ShmBackend()
    return _maximal_matching_core(b, b.matrix(a))


def is_valid_matching(
    a: CSRMatrix, row_match: np.ndarray, col_match: np.ndarray
) -> bool:
    """Validity: matched pairs are real edges, used at most once, consistent."""
    matched = np.flatnonzero(row_match >= 0)
    for i in matched.tolist():
        j = int(row_match[i])
        if a[i, j] is None or col_match[j] != i:
            return False
    used_cols = row_match[matched]
    return unique_sorted(used_cols).size == used_cols.size


def _is_maximal(a: CSRMatrix, row_match: np.ndarray, col_match: np.ndarray) -> bool:
    """No edge joins an unmatched row to an unmatched column (test helper)."""
    rows = a.row_indices()
    cols = a.colidx
    return not np.any((row_match[rows] < 0) & (col_match[cols] < 0))
