"""GraphBLAS operator algebra: unary, binary, and index-unary operators.

GraphBLAS derives much of its power from letting every operation be
parameterised by user-defined scalar functions (paper §III: "a GraphBLAS
semiring allows overloading the scalar multiplication and addition with user
defined binary operators").  This module defines the operator objects that
the rest of the library composes into monoids (:mod:`repro.algebra.monoid`) and
semirings (:mod:`repro.algebra.semiring`).

All operator callables are *vectorised*: they accept and return numpy arrays
(or scalars) and must be closed over elementwise application.  The library
never loops over scalars in Python — per the numpy idiom, kernels apply
operators to whole index-selected slices at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "UnaryOp",
    "BinaryOp",
    "IndexUnaryOp",
    "unary",
    "binary",
    "register_unary",
    "register_binary",
    # unary ops
    "IDENTITY",
    "AINV",
    "MINV",
    "ABS",
    "LNOT",
    "ONE",
    "SQRT",
    "EXP",
    "LOG",
    "SQUARE",
    # binary ops
    "PLUS",
    "MINUS",
    "TIMES",
    "DIV",
    "MIN",
    "MAX",
    "FIRST",
    "SECOND",
    "PAIR",
    "ANY",
    "LAND",
    "LOR",
    "LXOR",
    "EQ",
    "NE",
    "GT",
    "LT",
    "GE",
    "LE",
    # index unary ops
    "TRIL",
    "TRIU",
    "DIAG_ONLY",
    "OFFDIAG",
    "ROWINDEX",
    "COLINDEX",
    "VALUEEQ",
    "VALUENE",
    "VALUEGT",
    "VALUELT",
]


@dataclass(frozen=True)
class UnaryOp:
    """A named unary scalar operator ``z = f(x)``.

    Parameters
    ----------
    name:
        Stable identifier used in reprs, error messages and registries.
    fn:
        Vectorised callable: ``fn(ndarray) -> ndarray``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"UnaryOp({self.name})"


@dataclass(frozen=True)
class BinaryOp:
    """A named binary scalar operator ``z = f(x, y)``.

    ``fn`` must be vectorised and support numpy broadcasting.  The optional
    flags describe algebraic structure that kernels may exploit:

    ``commutative``
        ``f(x, y) == f(y, x)`` — lets SpGEMM and reductions reorder operands.
    ``associative``
        required for the operator to seed a :class:`~repro.algebra.monoid.Monoid`.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    commutative: bool = False
    associative: bool = False

    def __call__(self, x, y):
        return self.fn(x, y)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BinaryOp({self.name})"


@dataclass(frozen=True)
class IndexUnaryOp:
    """A positional operator ``z = f(value, row, col, thunk)``.

    Used by ``select``-style filtering (GraphBLAS ``GrB_select``): the
    operator sees each stored element's value *and* coordinates plus a scalar
    ``thunk``, and returns a boolean keep-mask (or a computed value).
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray, object], np.ndarray]

    def __call__(self, values, rows, cols, thunk=None):
        return self.fn(values, rows, cols, thunk)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IndexUnaryOp({self.name})"


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

_UNARY_REGISTRY: dict[str, UnaryOp] = {}
_BINARY_REGISTRY: dict[str, BinaryOp] = {}


def register_unary(op: UnaryOp) -> UnaryOp:
    """Add ``op`` to the global unary registry (idempotent by name)."""
    _UNARY_REGISTRY[op.name] = op
    return op


def register_binary(op: BinaryOp) -> BinaryOp:
    """Add ``op`` to the global binary registry (idempotent by name)."""
    _BINARY_REGISTRY[op.name] = op
    return op


def unary(name: str) -> UnaryOp:
    """Look up a registered :class:`UnaryOp` by name."""
    try:
        return _UNARY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown unary op {name!r}; known: {sorted(_UNARY_REGISTRY)}"
        ) from None


def binary(name: str) -> BinaryOp:
    """Look up a registered :class:`BinaryOp` by name."""
    try:
        return _BINARY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown binary op {name!r}; known: {sorted(_BINARY_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# standard unary operators
# ---------------------------------------------------------------------------

IDENTITY = register_unary(UnaryOp("identity", lambda x: np.asarray(x).copy()))
AINV = register_unary(UnaryOp("ainv", lambda x: -np.asarray(x)))
MINV = register_unary(UnaryOp("minv", lambda x: 1.0 / np.asarray(x)))
ABS = register_unary(UnaryOp("abs", lambda x: np.abs(x)))
LNOT = register_unary(UnaryOp("lnot", lambda x: ~np.asarray(x, dtype=bool)))
ONE = register_unary(UnaryOp("one", lambda x: np.ones_like(np.asarray(x))))
SQRT = register_unary(UnaryOp("sqrt", lambda x: np.sqrt(x)))
EXP = register_unary(UnaryOp("exp", lambda x: np.exp(x)))
LOG = register_unary(UnaryOp("log", lambda x: np.log(x)))
SQUARE = register_unary(UnaryOp("square", lambda x: np.asarray(x) * np.asarray(x)))


# ---------------------------------------------------------------------------
# standard binary operators
# ---------------------------------------------------------------------------

PLUS = register_binary(
    BinaryOp("plus", lambda x, y: np.add(x, y), commutative=True, associative=True)
)
MINUS = register_binary(BinaryOp("minus", lambda x, y: np.subtract(x, y)))
TIMES = register_binary(
    BinaryOp("times", lambda x, y: np.multiply(x, y), commutative=True, associative=True)
)
DIV = register_binary(BinaryOp("div", lambda x, y: np.divide(x, y)))
MIN = register_binary(
    BinaryOp("min", lambda x, y: np.minimum(x, y), commutative=True, associative=True)
)
MAX = register_binary(
    BinaryOp("max", lambda x, y: np.maximum(x, y), commutative=True, associative=True)
)
FIRST = register_binary(
    BinaryOp("first", lambda x, y: np.broadcast_arrays(np.asarray(x), np.asarray(y))[0].copy(), associative=True)
)
SECOND = register_binary(
    BinaryOp("second", lambda x, y: np.broadcast_arrays(np.asarray(x), np.asarray(y))[1].copy(), associative=True)
)
PAIR = register_binary(
    BinaryOp(
        "pair",
        lambda x, y: np.ones_like(np.broadcast_arrays(np.asarray(x), np.asarray(y))[0]),
        commutative=True,
    )
)
# ANY returns either operand; like SuiteSparse GxB_ANY it is used where the
# reduction result is known to be operand-independent (e.g. BFS frontiers).
ANY = register_binary(
    BinaryOp("any", lambda x, y: np.broadcast_arrays(np.asarray(x), np.asarray(y))[0].copy(), commutative=True, associative=True)
)
LAND = register_binary(
    BinaryOp(
        "land",
        lambda x, y: np.logical_and(x, y),
        commutative=True,
        associative=True,
    )
)
LOR = register_binary(
    BinaryOp(
        "lor",
        lambda x, y: np.logical_or(x, y),
        commutative=True,
        associative=True,
    )
)
LXOR = register_binary(
    BinaryOp(
        "lxor",
        lambda x, y: np.logical_xor(x, y),
        commutative=True,
        associative=True,
    )
)
EQ = register_binary(BinaryOp("eq", lambda x, y: np.equal(x, y), commutative=True))
NE = register_binary(BinaryOp("ne", lambda x, y: np.not_equal(x, y), commutative=True))
GT = register_binary(BinaryOp("gt", lambda x, y: np.greater(x, y)))
LT = register_binary(BinaryOp("lt", lambda x, y: np.less(x, y)))
GE = register_binary(BinaryOp("ge", lambda x, y: np.greater_equal(x, y)))
LE = register_binary(BinaryOp("le", lambda x, y: np.less_equal(x, y)))


# ---------------------------------------------------------------------------
# standard index-unary (select) operators — return boolean keep-masks
# ---------------------------------------------------------------------------

TRIL = IndexUnaryOp("tril", lambda v, r, c, k: c <= r + (0 if k is None else k))
TRIU = IndexUnaryOp("triu", lambda v, r, c, k: c >= r + (0 if k is None else k))
DIAG_ONLY = IndexUnaryOp("diag", lambda v, r, c, k: c == r + (0 if k is None else k))
OFFDIAG = IndexUnaryOp("offdiag", lambda v, r, c, k: c != r + (0 if k is None else k))
ROWINDEX = IndexUnaryOp("rowindex", lambda v, r, c, k: r + (0 if k is None else k))
COLINDEX = IndexUnaryOp("colindex", lambda v, r, c, k: c + (0 if k is None else k))
VALUEEQ = IndexUnaryOp("valueeq", lambda v, r, c, k: v == k)
VALUENE = IndexUnaryOp("valuene", lambda v, r, c, k: v != k)
VALUEGT = IndexUnaryOp("valuegt", lambda v, r, c, k: v > k)
VALUELT = IndexUnaryOp("valuelt", lambda v, r, c, k: v < k)
