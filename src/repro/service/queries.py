"""Query specs and the batched multi-source dispatch.

The GraphBLAS idiom for concurrent traversals: N simultaneous BFS (or
SSSP) queries over the same graph are one matrix problem.  The N
frontiers stack into one ``N × n`` sparse frontier *matrix* and each
expansion is a single ``mxm`` against the adjacency — one kernel
invocation, one communication round per level, shared across every
query — instead of N independent vector sweeps each paying its own
per-level latencies.  On completion each query's answer is row ``i`` of
the core's dense ``N × n`` result (levels for BFS, distances for SSSP).

The multi-source cores live with the algorithms
(:func:`~repro.algorithms.bfs_levels_batch`,
:func:`~repro.algorithms.sssp_batch`) and pick the kernel: a repeated
source runs once, and one distinct source runs the single-source vector
kernel, billing exactly its ledger.  Both are *bit-identical* per
source to the sequential single-source algorithms, which the service's
differential suite (``tests/service/``) pins on both backends, across
locale grids and covered fault plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms import bfs_levels_batch, sssp_batch

__all__ = ["ALGOS", "QuerySpec", "run_batch"]

#: batchable algorithms (the traversal family with a frontier-matrix form)
ALGOS = ("bfs", "sssp")


@dataclass(frozen=True)
class QuerySpec:
    """One tenant query: a traversal ``algo`` from ``source``.

    Frozen and hashable — the spec *is* the cache-args and the
    batch-compatibility key.  Queries with the same ``algo`` against the
    same graph epoch are batch-compatible (they share every kernel of a
    multi-source run); the source is the per-query argument.
    """

    algo: str
    source: int

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r} (expected one of {ALGOS})")
        if self.source < 0:
            raise IndexError(f"source {self.source} must be non-negative")

    @property
    def batch_key(self) -> str:
        """Queries with equal keys may coalesce into one multi-source run."""
        return self.algo

    @property
    def cache_args(self) -> tuple:
        """The result-cache argument tuple (everything but the graph)."""
        return (self.source,)


#: batch key → multi-source core
_CORES = {"bfs": bfs_levels_batch, "sssp": sssp_batch}


def run_batch(b, a, algo: str, sources: np.ndarray) -> np.ndarray:
    """One coalesced multi-source run; row ``i`` answers ``sources[i]``."""
    return _CORES[algo](a, sources, backend=b)
