"""repro — a GraphBLAS library with a Chapel-like distributed runtime simulator.

Reproduction of Azad & Buluç, *Towards a GraphBLAS Library in Chapel*
(IPDPS Workshops, 2017).  The package provides:

* :mod:`repro.algebra` — unary/binary operators, monoids, semirings;
* :mod:`repro.sparse` — CSR/CSC/COO matrices, sparse vectors, the SPA;
* :mod:`repro.runtime` — the simulated Chapel runtime (locales, tasks,
  communication, calibrated Edison machine model);
* :mod:`repro.distributed` — 2-D block-distributed matrices and vectors;
* :mod:`repro.ops` — the GraphBLAS operations (Apply, Assign, eWiseMult,
  SpMSpV, SpMV, MXM, extract, reduce, transpose, masks), each with the
  implementation variants the paper compares;
* :mod:`repro.exec` — the backend-agnostic execution frontend
  (descriptors, the :class:`~repro.exec.backend.Backend` protocol, the
  shared-memory and distributed backends);
* :mod:`repro.algorithms` — BFS, connected components, SSSP, PageRank,
  triangle counting and more, written once against the frontend and
  runnable on either backend;
* :mod:`repro.generators` / :mod:`repro.io` — workloads and Matrix Market;
* :mod:`repro.bench` — the harness that regenerates every paper figure.

Quickstart::

    import repro
    a = repro.erdos_renyi(1000, 8, seed=1)
    levels = repro.bfs_levels(a, source=0)
"""

from .algebra import (
    BinaryOp,
    LOR_LAND,
    MIN_PLUS,
    Monoid,
    PLUS_TIMES,
    Semiring,
    UnaryOp,
    binary,
    monoid,
    semiring,
    unary,
)
from .algorithms import (
    bfs_levels,
    bfs_parents,
    connected_components,
    count_triangles,
    num_components,
    pagerank,
    sssp,
)
from .distributed import (
    DistDenseVector,
    DistSparseMatrix,
    DistSparseVector,
)
from .generators import erdos_renyi, random_sparse_vector, rmat
from .io import read_matrix_market, write_matrix_market
from .runtime import EDISON, Breakdown, CostLedger, LocaleGrid, Machine, MachineConfig, shared_machine
from .sparse import COOMatrix, CSCMatrix, CSRMatrix, DenseVector, SPA, SparseVector
from .exec import Backend, Descriptor, DistBackend, ShmBackend

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algebra
    "UnaryOp", "BinaryOp", "Monoid", "Semiring",
    "unary", "binary", "monoid", "semiring",
    "PLUS_TIMES", "MIN_PLUS", "LOR_LAND",
    # data structures
    "COOMatrix", "CSRMatrix", "CSCMatrix", "SparseVector", "DenseVector", "SPA",
    "DistSparseMatrix", "DistSparseVector", "DistDenseVector",
    # execution frontend
    "Backend", "Descriptor", "ShmBackend", "DistBackend",
    # runtime
    "MachineConfig", "EDISON", "Machine", "LocaleGrid", "shared_machine",
    "Breakdown", "CostLedger",
    # algorithms
    "bfs_levels", "bfs_parents", "connected_components", "num_components",
    "sssp", "pagerank", "count_triangles",
    # generators / io
    "erdos_renyi", "random_sparse_vector", "rmat",
    "read_matrix_market", "write_matrix_market",
]
