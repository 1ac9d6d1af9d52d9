"""GraphBLAS operations: operator algebra and the operation kernels.

The paper's four operations (Apply, Assign, eWiseMult, SpMSpV) each come in
the two implementation styles the paper compares, plus the rest of the
GraphBLAS function surface (MXV, MXM, extract, reduce, transpose, masks).
"""

from ..algebra.functional import (
    ABS, AINV, ANY, BinaryOp, COLINDEX, DIAG_ONLY, DIV, EQ, EXP, FIRST, GE,
    GT, IDENTITY, IndexUnaryOp, LAND, LE, LNOT, LOG, LOR, LT, LXOR, MAX, MIN,
    MINUS, MINV, NE, OFFDIAG, ONE, PAIR, PLUS, ROWINDEX, SECOND, SQRT,
    SQUARE, TIMES, TRIL, TRIU, UnaryOp, VALUEEQ, VALUEGT, VALUELT, VALUENE,
    binary, unary,
)
from ..algebra.monoid import (
    ANY_MONOID, LAND_MONOID, LOR_MONOID, LXOR_MONOID, MAX_MONOID, MIN_MONOID,
    Monoid, PLUS_MONOID, TIMES_MONOID, monoid,
)
from ..algebra.semiring import (
    ANY_SECOND, LOR_LAND, MAX_MIN, MAX_TIMES, MIN_FIRST, MIN_PLUS,
    MIN_SECOND, PLUS_FIRST, PLUS_PAIR, PLUS_SECOND, PLUS_TIMES, Semiring,
    semiring,
)
from .apply import apply1, apply2, apply_agg, apply_shm
from .assign_general import assign_matrix, assign_vector
from .construct import block_diag, diag, diag_extract, hstack, kronecker, vstack
from .assign import assign1, assign2, assign_agg, assign_shm1, assign_shm2
from .ewise import (
    ewiseadd_mm, ewiseadd_vv, ewisemult_dist, ewisemult_mm,
    ewisemult_sparse_dense, ewisemult_vv,
)
from .ewise_dist import ewiseadd_dist_vv, ewisemult_dist_vv, redistribute
from .select import select_dist_vector, select_vector
from .extract import extract_col, extract_matrix, extract_row, extract_vector
from .mask import mask_dist_vector, mask_matrix, mask_vector, mask_vector_dense
from .mxm import flops, mxm, mxm_gustavson
from .mxm_dist import mxm_dist
from .reduce import (
    reduce_cols_sparse, reduce_dist_vector, reduce_matrix_scalar,
    reduce_rows_sparse, reduce_vector,
)
from .dispatch import PULL, PUSH_MERGE, PUSH_RADIX, PUSH_SORTBASED, Decision, Dispatcher
from .spmspv import bulk_scatter_cost, spmspv_dist, spmspv_dist_1d, spmspv_shm
from .spmspv_merge import spmspv_shm_merge
from .spmv import spmv, spmv_dist, vxm_dense, vxm_dense_dist, vxm_pull
from .transpose import transpose, transpose_dist

__all__ = [
    "UnaryOp", "BinaryOp", "IndexUnaryOp", "Monoid", "Semiring",
    "unary", "binary", "monoid", "semiring",
    "IDENTITY", "AINV", "MINV", "ABS", "LNOT", "ONE", "SQRT", "EXP", "LOG", "SQUARE",
    "PLUS", "MINUS", "TIMES", "DIV", "MIN", "MAX", "FIRST", "SECOND", "PAIR", "ANY",
    "LAND", "LOR", "LXOR", "EQ", "NE", "GT", "LT", "GE", "LE",
    "TRIL", "TRIU", "DIAG_ONLY", "OFFDIAG", "ROWINDEX", "COLINDEX",
    "VALUEEQ", "VALUENE", "VALUEGT", "VALUELT",
    "PLUS_MONOID", "TIMES_MONOID", "MIN_MONOID", "MAX_MONOID",
    "LOR_MONOID", "LAND_MONOID", "LXOR_MONOID", "ANY_MONOID",
    "PLUS_TIMES", "MIN_PLUS", "MAX_TIMES", "MAX_MIN", "LOR_LAND",
    "MIN_FIRST", "MIN_SECOND", "PLUS_PAIR", "PLUS_FIRST", "PLUS_SECOND", "ANY_SECOND",
    "apply_shm", "apply1", "apply2", "apply_agg",
    "assign_vector", "assign_matrix",
    "kronecker", "hstack", "vstack", "block_diag", "diag", "diag_extract",
    "mxm_dist",
    "assign_shm1", "assign_shm2", "assign1", "assign2", "assign_agg",
    "ewisemult_sparse_dense", "ewisemult_dist", "ewisemult_vv", "ewiseadd_vv",
    "ewisemult_mm", "ewiseadd_mm",
    "ewiseadd_dist_vv", "ewisemult_dist_vv", "redistribute",
    "select_vector", "select_dist_vector",
    "spmspv_shm", "spmspv_shm_merge", "spmspv_dist", "spmspv_dist_1d",
    "bulk_scatter_cost",
    "spmv", "vxm_dense", "vxm_pull", "spmv_dist", "vxm_dense_dist",
    "Dispatcher", "Decision", "PUSH_MERGE", "PUSH_RADIX", "PUSH_SORTBASED", "PULL",
    "mxm", "mxm_gustavson", "flops",
    "extract_vector", "extract_matrix", "extract_row", "extract_col",
    "reduce_vector", "reduce_rows_sparse", "reduce_cols_sparse",
    "reduce_matrix_scalar", "reduce_dist_vector",
    "transpose", "transpose_dist",
    "mask_vector", "mask_vector_dense", "mask_matrix", "mask_dist_vector",
]
