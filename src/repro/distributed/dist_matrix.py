"""2-D block-distributed sparse matrices.

Paper §II-B: "we only used 2-D block-distributed partitions of sparse
matrices and vectors, since they have been shown to be more scalable than
1-D block distributions."  Each locale ``(i, j)`` owns the intersection of
row block ``i`` and column block ``j`` as a *local* CSR matrix with local
(rebased) indices — the layout SpMSpV_dist computes on directly.

A 1-D row-distributed variant (:class:`DistSparseMatrix1D`) is provided for
the 1-D vs 2-D ablation (``benchmarks/test_abl_1d_vs_2d.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime import fastpath
from ..runtime.locale import LocaleGrid
from ..sparse.csr import CSRMatrix
from ..sparse.sort import stable_argsort_bounded
from .block import Block1D, Block2D

__all__ = ["DistSparseMatrix", "DistSparseMatrix1D"]


def _partition_to_cells(
    a: CSRMatrix, layout: Block2D
) -> list[CSRMatrix]:
    """Cut a global CSR into pr*pc local CSR blocks (vectorised).

    Each nonzero's owning cell is computed from the row/col block owners;
    one stable sort groups nonzeros by cell, and per-cell CSRs are built
    from the sorted slices with rebased indices.
    """
    pr, pc = layout.grid_rows, layout.grid_cols
    rbounds = layout.row_blocks.bounds
    cbounds = layout.col_blocks.bounds
    if fastpath.enabled():
        # Row blocks are CONTIGUOUS row ranges of an already row-sorted
        # CSR, so the global sort-by-cell reduces to: slice each row
        # block's nonzeros straight out of the CSR arrays, stable-sort
        # only within the slice by column owner (preserving the (row,
        # col) order inside each cell exactly like the global stable
        # sort), and build each cell's CSR directly — the triples are
        # sorted and duplicate-free by construction, so the reference
        # path's coalesce round-trip is pure overhead.
        blocks2: list[CSRMatrix] = []
        for i in range(pr):
            rlo, rhi = int(rbounds[i]), int(rbounds[i + 1])
            s, e = int(a.rowptr[rlo]), int(a.rowptr[rhi])
            nr = rhi - rlo
            cols_i = a.colidx[s:e]
            vals_i = a.values[s:e]
            lens_i = np.diff(a.rowptr[rlo : rhi + 1])
            rows_i = np.repeat(np.arange(nr, dtype=np.int64), lens_i)
            owner_i = (
                np.searchsorted(cbounds, cols_i, side="right") - 1
                if cols_i.size
                else cols_i
            )
            order = stable_argsort_bounded(owner_i, pc)
            rows_s = rows_i[order]
            cols_s = cols_i[order]
            vals_s = vals_i[order]
            cuts = np.searchsorted(owner_i[order], np.arange(pc + 1))
            for j in range(pc):
                clo, chi = int(cbounds[j]), int(cbounds[j + 1])
                lo, hi = int(cuts[j]), int(cuts[j + 1])
                rowptr = np.zeros(nr + 1, dtype=np.int64)
                np.cumsum(
                    np.bincount(rows_s[lo:hi], minlength=nr), out=rowptr[1:]
                )
                blocks2.append(
                    CSRMatrix(
                        nr,
                        chi - clo,
                        rowptr,
                        cols_s[lo:hi] - clo,
                        vals_s[lo:hi].copy(),
                    )
                )
        return blocks2
    rows = a.row_indices()
    cols = a.colidx
    vals = a.values
    row_owner = layout.row_blocks.owners(rows) if rows.size else rows
    col_owner = layout.col_blocks.owners(cols) if cols.size else cols
    cell = row_owner * pc + col_owner
    order = np.argsort(cell, kind="stable")
    rows, cols, vals, cell = rows[order], cols[order], vals[order], cell[order]
    cuts = np.searchsorted(cell, np.arange(pr * pc + 1))
    blocks: list[CSRMatrix] = []
    for i in range(pr):
        rlo, rhi = rbounds[i], rbounds[i + 1]
        for j in range(pc):
            clo, chi = cbounds[j], cbounds[j + 1]
            k = i * pc + j
            s, e = cuts[k], cuts[k + 1]
            blocks.append(
                CSRMatrix.from_triples(
                    int(rhi - rlo),
                    int(chi - clo),
                    rows[s:e] - rlo,
                    cols[s:e] - clo,
                    vals[s:e],
                )
            )
    return blocks


@dataclass
class DistSparseMatrix:
    """A sparse matrix as a ``pr x pc`` grid of local CSR blocks."""

    nrows: int
    ncols: int
    grid: LocaleGrid
    blocks: list[CSRMatrix]  # row-major by grid cell

    def __post_init__(self) -> None:
        if len(self.blocks) != self.grid.size:
            raise ValueError(
                f"{len(self.blocks)} blocks for {self.grid.size} locales"
            )

    @classmethod
    def from_global(cls, a: CSRMatrix, grid: LocaleGrid) -> "DistSparseMatrix":
        """Distribute a global CSR matrix 2-D block-wise over the grid."""
        layout = Block2D.for_grid(a.nrows, a.ncols, grid)
        return cls(a.nrows, a.ncols, grid, _partition_to_cells(a, layout))

    @property
    def layout(self) -> Block2D:
        """The 2-D block layout of this matrix."""
        return Block2D.of(self.nrows, self.ncols, self.grid.rows, self.grid.cols)

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return sum(b.nnz for b in self.blocks)

    def block(self, i: int, j: int) -> CSRMatrix:
        """Local block of grid cell (i, j)."""
        if not (0 <= i < self.grid.rows and 0 <= j < self.grid.cols):
            raise IndexError(f"cell ({i},{j}) outside grid")
        return self.blocks[i * self.grid.cols + j]

    def nnz_per_locale(self) -> np.ndarray:
        """Stored entries per locale (load-balance diagnostics)."""
        return np.array([b.nnz for b in self.blocks], dtype=np.int64)

    def require_available(self, faults=None) -> None:
        """Raise :class:`~repro.runtime.faults.LocaleFailure` if a failed
        locale owns a nonempty block of this matrix."""
        if faults is None:
            return
        for k, b in enumerate(self.blocks):
            if b.nnz and faults.failed(k):
                faults.check_locale(k, "DistSparseMatrix.block")

    def gather(self, *, faults=None) -> CSRMatrix:
        """Reassemble the global matrix (test/verification path).

        With a fault injector, data on a failed locale is unrecoverable —
        an uncovered fault raising
        :class:`~repro.runtime.faults.LocaleFailure`.
        """
        self.require_available(faults)
        layout = self.layout
        rows, cols, vals = [], [], []
        for i in range(self.grid.rows):
            for j in range(self.grid.cols):
                rlo, _, clo, _ = layout.extent(i, j)
                blk = self.block(i, j)
                coo = blk.to_coo()
                rows.append(coo.rows + rlo)
                cols.append(coo.cols + clo)
                vals.append(coo.values)
        return CSRMatrix.from_triples(
            self.nrows,
            self.ncols,
            np.concatenate(rows) if rows else np.empty(0, np.int64),
            np.concatenate(cols) if cols else np.empty(0, np.int64),
            np.concatenate(vals) if vals else np.empty(0),
        )

    def check(self) -> None:
        """Validate every block and the block shapes."""
        layout = self.layout
        for i in range(self.grid.rows):
            for j in range(self.grid.cols):
                rlo, rhi, clo, chi = layout.extent(i, j)
                blk = self.block(i, j)
                assert blk.shape == (rhi - rlo, chi - clo), f"cell ({i},{j}) shape"
                blk.check()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistSparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, "
            f"grid={self.grid.rows}x{self.grid.cols})"
        )


@dataclass
class DistSparseMatrix1D:
    """Row-block (1-D) distributed sparse matrix — the ablation baseline.

    Each locale owns a contiguous band of whole rows.  SpMSpV on this layout
    must broadcast the *entire* input vector to every locale instead of only
    a processor row's share, which is why 2-D wins at scale (§II-B).
    """

    nrows: int
    ncols: int
    grid: LocaleGrid
    blocks: list[CSRMatrix]  # one per locale, full column width

    @classmethod
    def from_global(cls, a: CSRMatrix, grid: LocaleGrid) -> "DistSparseMatrix1D":
        """Row-band distribute a global CSR over the grid's locales."""
        dist = Block1D.of(a.nrows, grid.size)
        blocks = []
        for k in range(grid.size):
            lo, hi = dist.extent(k)
            blocks.append(a.extract_rows(np.arange(lo, hi)))
        return cls(a.nrows, a.ncols, grid, blocks)

    @property
    def row_dist(self) -> Block1D:
        """The 1-D row-band partition over locales."""
        return Block1D.of(self.nrows, self.grid.size)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return sum(b.nnz for b in self.blocks)

    def gather(self) -> CSRMatrix:
        """Reassemble the global matrix."""
        dist = self.row_dist
        rows, cols, vals = [], [], []
        for k, blk in enumerate(self.blocks):
            lo, _ = dist.extent(k)
            coo = blk.to_coo()
            rows.append(coo.rows + lo)
            cols.append(coo.cols)
            vals.append(coo.values)
        return CSRMatrix.from_triples(
            self.nrows,
            self.ncols,
            np.concatenate(rows) if rows else np.empty(0, np.int64),
            np.concatenate(cols) if cols else np.empty(0, np.int64),
            np.concatenate(vals) if vals else np.empty(0),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistSparseMatrix1D({self.nrows}x{self.ncols}, nnz={self.nnz}, "
            f"p={self.grid.size})"
        )
