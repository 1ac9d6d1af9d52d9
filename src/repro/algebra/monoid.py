"""GraphBLAS monoids: an associative binary operator plus an identity.

Paper §III: "A GraphBLAS monoid is a semiring with only one binary operator
and an identity element."  Monoids drive reductions and the "add" half of a
semiring.  A *terminal* value (absorbing element) is an optional optimisation
hint: once a reduction reaches the terminal it may stop early (e.g. ``lor``
saturates at ``True``, ``min`` over non-negative data at ``0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .functional import BinaryOp, LAND, LOR, LXOR, MAX, MIN, PLUS, TIMES, ANY

__all__ = [
    "Monoid",
    "PLUS_MONOID",
    "TIMES_MONOID",
    "MIN_MONOID",
    "MAX_MONOID",
    "LOR_MONOID",
    "LAND_MONOID",
    "LXOR_MONOID",
    "ANY_MONOID",
    "monoid",
]


@dataclass(frozen=True)
class Monoid:
    """An associative, commutative binary operator with an identity element.

    Parameters
    ----------
    op:
        The underlying :class:`~repro.algebra.functional.BinaryOp`; must be
        associative (checked at construction).
    identity:
        Scalar such that ``op(identity, x) == x`` for all ``x``.
    terminal:
        Optional absorbing element: ``op(terminal, x) == terminal``.
    """

    op: BinaryOp
    identity: Any
    terminal: Any = None

    def __post_init__(self) -> None:
        if not self.op.associative:
            raise ValueError(
                f"monoid requires an associative op, got {self.op.name!r}"
            )

    @property
    def name(self) -> str:
        """Stable identifier of this object."""
        return f"{self.op.name}_monoid"

    def __call__(self, x, y):
        return self.op(x, y)

    def reduce(self, values: np.ndarray):
        """Reduce a 1-D array to a scalar; the identity for empty input."""
        values = np.asarray(values)
        if values.size == 0:
            return self.identity
        return _REDUCERS.get(self.op.name, _generic_reduce)(self, values)

    def reduceat(self, values: np.ndarray, segment_starts: np.ndarray) -> np.ndarray:
        """Segmented reduction: reduce each ``values[s_i:s_{i+1}]`` slice.

        ``segment_starts`` follows :func:`numpy.ufunc.reduceat` semantics and
        is how CSR row-wise reductions vectorise without a Python loop.
        Empty segments produce the identity.
        """
        values = np.asarray(values)
        starts = np.asarray(segment_starts, dtype=np.int64)
        ufunc = _UFUNCS.get(self.op.name)
        if ufunc is None:
            return _generic_reduceat(self, values, starts)
        if starts.size == 0:
            return np.empty(0, dtype=values.dtype)
        # numpy's reduceat rejects a start index == len(values); such starts
        # denote empty trailing segments and get the identity.  Empty
        # *interior* segments (starts[k] == starts[k+1]) come out of
        # reduceat as values[starts[k]] and are overwritten with the
        # identity too.
        out = np.full(starts.size, self.identity, dtype=self._out_dtype(values))
        valid = starts < values.size
        if values.size and valid.any():
            out[valid] = ufunc.reduceat(values, starts[valid])
        empty = np.zeros(starts.size, dtype=bool)
        empty[:-1] = starts[:-1] == starts[1:]
        if empty.any():
            out[empty] = self.identity
        return out

    def reduceat_dense(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """:meth:`reduceat` for callers that guarantee *dense* segments:
        ``starts`` strictly increasing with every entry ``< len(values)``
        (no empty segments, nothing out of range).  Skips the identity
        fill/masking of the general path; bit-identical to it under the
        guarantee.
        """
        ufunc = _UFUNCS.get(self.op.name)
        if ufunc is None:
            return _generic_reduceat(self, values, np.asarray(starts, dtype=np.int64))
        if starts.size == 0:
            return np.empty(0, dtype=values.dtype)
        return ufunc.reduceat(values, starts).astype(self._out_dtype(values), copy=False)

    def scatter_reduce(
        self, values: np.ndarray, indices: np.ndarray, size: int
    ) -> np.ndarray:
        """Dense ``out[k] = ⊕ values[indices == k]`` for ``k < size``.

        The op's ufunc folds ``values`` into ``out`` in entry order,
        starting from the identity (``ufunc.at``: no sort); an index that
        no value hits keeps the identity.  A monoid with no ufunc sorts
        the values by index (stable) and runs :meth:`reduceat` instead.
        """
        values = np.asarray(values)
        indices = np.asarray(indices, dtype=np.int64)
        ufunc = _UFUNCS.get(self.op.name)
        if ufunc is None:
            order = np.argsort(indices, kind="stable")
            starts = np.zeros(size, dtype=np.int64)
            np.cumsum(np.bincount(indices, minlength=size)[:-1], out=starts[1:])
            return self.reduceat(values[order], starts)
        out = np.full(size, self.identity, dtype=self._out_dtype(values))
        ufunc.at(out, indices, values)
        return out

    def _out_dtype(self, values: np.ndarray) -> np.dtype:
        """Result dtype of a reduction of ``values``: widened to float when
        the identity is a non-finite float (``±inf`` of min/max)."""
        if isinstance(self.identity, float) and not np.isfinite(self.identity):
            return np.result_type(values.dtype, np.float64)
        return values.dtype

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Monoid({self.op.name}, identity={self.identity!r})"


def _generic_reduce(m: Monoid, values: np.ndarray):
    acc = values[0]
    for v in values[1:]:
        acc = m.op(acc, v)
        if m.terminal is not None and acc == m.terminal:
            return acc
    return acc


def _generic_reduceat(m: Monoid, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    bounds = np.append(starts, values.size)
    out = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        out.append(m.reduce(values[s:e]))
    return np.asarray(out)


_UFUNCS = {
    "plus": np.add,
    "times": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "lor": np.logical_or,
    "land": np.logical_and,
    "lxor": np.logical_xor,
}

_REDUCERS = {
    "plus": lambda m, v: v.sum(),
    "times": lambda m, v: v.prod(),
    "min": lambda m, v: v.min(),
    "max": lambda m, v: v.max(),
    "lor": lambda m, v: bool(np.any(v)),
    "land": lambda m, v: bool(np.all(v)),
    "lxor": lambda m, v: bool(np.logical_xor.reduce(np.asarray(v, dtype=bool))),
    "any": lambda m, v: v[0],
}


PLUS_MONOID = Monoid(PLUS, 0)
TIMES_MONOID = Monoid(TIMES, 1)
MIN_MONOID = Monoid(MIN, np.inf, terminal=-np.inf)
MAX_MONOID = Monoid(MAX, -np.inf, terminal=np.inf)
LOR_MONOID = Monoid(LOR, False, terminal=True)
LAND_MONOID = Monoid(LAND, True, terminal=False)
LXOR_MONOID = Monoid(LXOR, False)
ANY_MONOID = Monoid(ANY, None)

_MONOIDS = {
    "plus": PLUS_MONOID,
    "times": TIMES_MONOID,
    "min": MIN_MONOID,
    "max": MAX_MONOID,
    "lor": LOR_MONOID,
    "land": LAND_MONOID,
    "lxor": LXOR_MONOID,
    "any": ANY_MONOID,
}


def monoid(name: str) -> Monoid:
    """Look up a standard monoid by its binary-op name (e.g. ``"plus"``)."""
    try:
        return _MONOIDS[name]
    except KeyError:
        raise KeyError(f"unknown monoid {name!r}; known: {sorted(_MONOIDS)}") from None
