"""Edge-list I/O (SNAP-style whitespace-separated ``u v [w]`` lines).

The de-facto exchange format of large public graph datasets (SNAP, KONECT):
``#``-prefixed comments, one edge per line, optional weight column.  Reading
returns a CSR adjacency; vertex ids may be arbitrary non-negative integers
(``compact=True`` relabels them densely and returns the mapping).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.sort import unique_sorted

__all__ = ["iter_edgelist_chunks", "read_edgelist", "write_edgelist"]


def _parse_line(lineno: int, line: str):
    line = line.strip()
    if not line or line.startswith(("#", "%")):
        return None
    parts = line.split()
    if len(parts) < 2:
        raise ValueError(f"line {lineno}: expected 'u v [w]', got {line!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) > 2 else 1.0
    except ValueError:
        raise ValueError(
            f"line {lineno}: expected 'u v [w]', got {line!r}"
        ) from None


def iter_edgelist_chunks(path_or_file, chunk_edges: int):
    """Yield ``(u, v, w)`` array triples of at most ``chunk_edges`` edges.

    The streaming counterpart of :func:`read_edgelist`: the file is read
    line by line (never materialised whole), so arbitrarily large SNAP
    downloads can feed a :class:`~repro.streaming.stream.GraphStream` —
    wrap each chunk in an
    :class:`~repro.streaming.delta.UpdateBatch` (or use
    :func:`~repro.streaming.stream.batches_from_edgelist`, which does
    exactly that).  Vertex ids are passed through as-is; relabelling is
    a whole-file operation and belongs to ``read_edgelist(compact=True)``.
    """
    if chunk_edges <= 0:
        raise ValueError("chunk_edges must be positive")
    own = isinstance(path_or_file, (str, Path))
    f = open(path_or_file) if own else path_or_file
    us, vs, ws = [], [], []
    try:
        for lineno, line in enumerate(f, 1):
            parsed = _parse_line(lineno, line)
            if parsed is None:
                continue
            u, v, w = parsed
            if u < 0 or v < 0:
                raise ValueError(f"line {lineno}: negative vertex id")
            us.append(u)
            vs.append(v)
            ws.append(w)
            if len(us) == chunk_edges:
                yield (
                    np.asarray(us, dtype=np.int64),
                    np.asarray(vs, dtype=np.int64),
                    np.asarray(ws),
                )
                us, vs, ws = [], [], []
        if us:
            yield (
                np.asarray(us, dtype=np.int64),
                np.asarray(vs, dtype=np.int64),
                np.asarray(ws),
            )
    finally:
        if own:
            f.close()


def read_edgelist(
    path_or_file,
    *,
    symmetric: bool = False,
    compact: bool = False,
    n: int | None = None,
):
    """Parse an edge list into a :class:`CSRMatrix`.

    Parameters
    ----------
    symmetric:
        Mirror every edge (undirected input stored one direction).
    compact:
        Relabel vertex ids densely; returns ``(matrix, original_ids)``
        instead of just the matrix.
    n:
        Vertex-count override (default: ``max id + 1``).
    """
    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file) as f:
            text = f.read()
    else:
        text = path_or_file.read()
    us, vs, ws = [], [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        parsed = _parse_line(lineno, line)
        if parsed is None:
            continue
        us.append(parsed[0])
        vs.append(parsed[1])
        ws.append(parsed[2])
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    w = np.asarray(ws)
    if u.size and (u.min() < 0 or v.min() < 0):
        raise ValueError("negative vertex id")
    ids = None
    if compact:
        ids = unique_sorted(np.concatenate([u, v])) if u.size else np.empty(0, np.int64)
        remap = {int(orig): k for k, orig in enumerate(ids)}
        u = np.asarray([remap[int(x)] for x in u], dtype=np.int64)
        v = np.asarray([remap[int(x)] for x in v], dtype=np.int64)
    size = n if n is not None else (int(max(u.max(), v.max())) + 1 if u.size else 0)
    if symmetric:
        u, v = np.concatenate([u, v]), np.concatenate([v, u])
        w = np.concatenate([w, w])
    mat = CSRMatrix.from_triples(size, size, u, v, w)
    return (mat, ids) if compact else mat


def write_edgelist(path_or_file, a: CSRMatrix, *, weights: bool = True, comment: str = "") -> None:
    """Write a CSR matrix as a SNAP-style edge list."""
    own = isinstance(path_or_file, (str, Path))
    f = open(path_or_file, "w") if own else path_or_file
    try:
        for line in comment.splitlines():
            f.write(f"# {line}\n")
        rows = a.row_indices()
        if weights:
            for u, v, w in zip(rows, a.colidx, a.values):
                f.write(f"{u} {v} {w:g}\n")
        else:
            for u, v in zip(rows, a.colidx):
                f.write(f"{u} {v}\n")
    finally:
        if own:
            f.close()
