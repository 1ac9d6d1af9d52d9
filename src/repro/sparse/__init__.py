"""Sparse data structures: COO/CSR/CSC matrices, vectors, SPA, sorts."""

from .coo import COOMatrix, coalesce
from .csc import CSCMatrix
from .csr import CSRMatrix
from .sort import merge_sort, merge_two, radix_sort
from .spa import SPA
from .validate import (
    ValidationError, same_pattern, validate_coo, validate_csr, validate_vector,
)
from .vector import DenseVector, SparseVector

__all__ = [
    "COOMatrix", "CSCMatrix", "CSRMatrix",
    "SPA", "SparseVector",
    "DenseVector", "coalesce", "merge_sort", "merge_two", "radix_sort",
    "ValidationError", "validate_csr", "validate_vector", "validate_coo",
    "same_pattern",
]
