"""The backend protocol the algorithms program against.

A backend owns a :class:`~repro.runtime.locale.Machine` and exposes the
GraphBLAS op set over *opaque handles*, which are each backend's storage
itself: shared-memory handles are :class:`~repro.sparse.csr.CSRMatrix` /
:class:`~repro.sparse.vector.SparseVector`, distributed handles the
block-distributed
:class:`~repro.distributed.dist_matrix.DistSparseMatrix` /
:class:`~repro.distributed.dist_vector.DistSparseVector`.  An algorithm
written against this protocol runs unmodified on either — the CombBLAS
2.0 "write once" contract — and every op it issues lands in the
machine's cost ledger, so whole-algorithm runs decompose exactly like
single kernels.

Conventions shared by both backends:

* **vector masks** are dense Boolean numpy arrays over the output space
  (replicated algorithm state like ``levels < 0`` is already in that
  shape); **matrix masks** are matrix handles (structural).
* **dense vectors** (``vxm_dense`` / ``mxv_dense``) cross the boundary
  as plain numpy arrays — replicated state in, replicated state out.
* ``desc`` is a :class:`~repro.exec.descriptor.Descriptor`; ``accum`` an
  optional binary op folded against ``out`` via the uniform merge step
  of :mod:`repro.exec.descriptor`.
* :meth:`iteration` tags every op recorded inside its scope with an
  ``algo[iter=k]:`` label prefix, so ``ledger.by_component()`` and
  :class:`~repro.runtime.trace.Trace` decompose whole-algorithm runs
  per iteration (the paper's Figs 8–9 view, now for any algorithm).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable, Protocol, runtime_checkable

import numpy as np

from ..algebra.functional import BinaryOp, ONE, UnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from ..algebra.semiring import Semiring
from ..runtime.clock import CostLedger
from ..runtime.locale import Machine
from ..runtime.telemetry import registry as _metrics
from ..sparse.csr import CSRMatrix
from ..sparse.vector import SparseVector
from .descriptor import Descriptor

__all__ = ["Backend", "BackendBase", "BackendProfile", "IterationScope", "OpStat"]


class IterationScope:
    """Context manager labelling ledger entries with an iteration prefix.

    Entries recorded while the scope is open are relabelled from
    ``spmspv_dist`` to e.g. ``bfs[iter=3]:spmspv_dist``.  Components are
    untouched, so ``by_component()`` aggregates are unchanged and no
    extra (double-counting) entries are appended.

    The same prefix is mirrored into the telemetry layer: metric series
    recorded inside the scope gain a ``scope=`` label (via
    ``registry.scoped``), and an attached :class:`BackendProfile` opens a
    matching per-iteration bucket — so ledger, metrics, and op tallies all
    decompose along identical iteration boundaries.
    """

    def __init__(
        self,
        ledger: CostLedger | None,
        prefix: str,
        *,
        registry: "_metrics.MetricsRegistry | None" = None,
        profile: "BackendProfile | None" = None,
    ) -> None:
        self.ledger = ledger
        self.prefix = prefix
        self.registry = registry
        self.profile = profile
        self._start = 0
        self._scope_cm = None

    def __enter__(self) -> "IterationScope":
        if self.ledger is not None:
            self._start = len(self.ledger.entries)
        if self.registry is not None:
            self._scope_cm = self.registry.scoped(self.prefix)
            self._scope_cm.__enter__()
        if self.profile is not None:
            self.profile.push_scope(self.prefix)
        return self

    def __exit__(self, *exc) -> None:
        if self.profile is not None:
            self.profile.pop_scope()
        if self._scope_cm is not None:
            self._scope_cm.__exit__(None, None, None)
            self._scope_cm = None
        if self.ledger is None:
            return
        entries = self.ledger.entries
        for i in range(self._start, len(entries)):
            label, breakdown = entries[i]
            entries[i] = (f"{self.prefix}:{label}", breakdown)


# ---------------------------------------------------------------------------
# profiling hooks
# ---------------------------------------------------------------------------


@dataclass
class OpStat:
    """Tally of one backend op: calls and outermost simulated seconds."""

    count: int = 0
    seconds: float = 0.0

    def add(self, seconds: float) -> None:
        """Count one call charging ``seconds`` of simulated time."""
        self.count += 1
        self.seconds += seconds


class BackendProfile:
    """Per-op tallies collected through the backend's profiling hooks.

    ``totals`` maps op name → :class:`OpStat` for the whole run;
    ``by_scope`` nests the same per iteration scope (``bfs[iter=3]``,
    nested scopes joined with ``:``) so an algorithm gets its per-iteration
    op counts for free just by running under :meth:`Backend.iteration`.

    Simulated seconds are attributed to the *outermost* op only: a
    ``pattern`` that internally calls ``apply_matrix`` counts both calls
    but charges the time once, so summing ``seconds`` over ops never
    double-counts.
    """

    def __init__(self) -> None:
        self.totals: dict[str, OpStat] = {}
        self.by_scope: dict[str, dict[str, OpStat]] = {}
        self._scopes: list[str] = []

    # -- scope stack (driven by IterationScope) -----------------------------

    def push_scope(self, name: str) -> None:
        """Open a nested attribution scope."""
        self._scopes.append(name)

    def pop_scope(self) -> None:
        """Close the innermost scope."""
        self._scopes.pop()

    @property
    def scope(self) -> str | None:
        """The joined current scope (``None`` outside any iteration)."""
        return ":".join(self._scopes) if self._scopes else None

    # -- recording ----------------------------------------------------------

    def record(self, op: str, seconds: float) -> None:
        """Tally one completed op (called by :meth:`BackendBase.on_op_end`)."""
        self.totals.setdefault(op, OpStat()).add(seconds)
        scope = self.scope
        if scope is not None:
            self.by_scope.setdefault(scope, {}).setdefault(op, OpStat()).add(seconds)

    # -- views --------------------------------------------------------------

    def iterations(self, algo: str) -> dict[int, dict[str, OpStat]]:
        """Per-iteration tallies of ``algo``: ``{k: {op: OpStat}}``.

        Matches top-level scopes of the form ``algo[iter=k]`` (and their
        nested extensions, merged into iteration ``k``).
        """
        prefix = f"{algo}[iter="
        out: dict[int, dict[str, OpStat]] = {}
        for scope, ops in self.by_scope.items():
            head = scope.split(":", 1)[0]
            if not (head.startswith(prefix) and head.endswith("]")):
                continue
            k = int(head[len(prefix) : -1])
            bucket = out.setdefault(k, {})
            for op, stat in ops.items():
                agg = bucket.setdefault(op, OpStat())
                agg.count += stat.count
                agg.seconds += stat.seconds
        return out

    def render(self) -> str:
        """Text table of total op tallies, busiest first."""
        if not self.totals:
            return "(no ops profiled)"
        rows = sorted(
            self.totals.items(), key=lambda kv: kv[1].seconds, reverse=True
        )
        width = max(len(op) for op, _ in rows)
        lines = [f"{'op'.ljust(width)}  calls  simulated_s"]
        for op, stat in rows:
            lines.append(f"{op.ljust(width)}  {stat.count:5d}  {stat.seconds:.6g}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BackendProfile(ops={len(self.totals)}, scopes={len(self.by_scope)})"


#: protocol ops auto-wrapped with the profiling hooks.  Handle-local
#: introspection (``shape``/``*_nnz``) and the scope factory stay bare.
PROFILED_OPS = frozenset(
    {
        "matrix", "vector", "vector_from_pairs", "empty_vector",
        "to_csr", "to_sparse",
        "row_degrees", "transpose", "tril", "extract", "select_matrix",
        "apply_vector", "apply_matrix", "pattern", "assign",
        "apply_updates",
        "ewise_mult", "ewise_add",
        "vxm", "vxm_dense", "mxv_dense", "mxm",
        "reduce_vector", "reduce_matrix", "reduce_rows_dense",
        "scale_rows",
    }
)


def _profiled(op: str, fn):
    """Wrap a backend method with on_op_start/on_op_end bracketing.

    Simulated seconds are measured as the growth of the ledger's total
    over the op, so the ops' seconds telescope and re-add to the ledger
    total; nested profiled ops report 0.0 so only the outermost call
    carries the time (see :class:`BackendProfile`).
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        self.on_op_start(op)
        ledger = self.machine.ledger
        depth = self._op_depth
        self._op_depth = depth + 1
        outermost = depth == 0 and ledger is not None
        before = ledger.total if outermost else 0.0
        try:
            return fn(self, *args, **kwargs)
        finally:
            self._op_depth = depth
            seconds = ledger.total - before if outermost else 0.0
            self.on_op_end(op, seconds)

    wrapper._telemetry_wrapped = True
    return wrapper


@runtime_checkable
class Backend(Protocol):
    """The op surface an algorithm may use (see module docstring).

    ``Any`` stands for the backend's opaque matrix/vector handles.
    """

    name: str
    machine: Machine

    # constructors / bridges
    def matrix(self, a) -> Any: ...
    def vector(self, x) -> Any: ...
    def vector_from_pairs(self, n: int, indices, values) -> Any: ...
    def empty_vector(self, n: int) -> Any: ...
    def to_csr(self, a) -> CSRMatrix: ...
    def to_sparse(self, v) -> SparseVector: ...

    # structure
    def shape(self, a) -> tuple[int, int]: ...
    def matrix_nnz(self, a) -> int: ...
    def vector_nnz(self, v) -> int: ...
    def row_degrees(self, a) -> np.ndarray: ...
    def transpose(self, a) -> Any: ...
    def tril(self, a, k: int = 0) -> Any: ...
    def extract(self, a, rows, cols) -> Any: ...
    def select_matrix(self, a, op, thunk=None) -> Any: ...

    # elementwise / apply / assign
    def apply_vector(self, v, op: UnaryOp) -> Any: ...
    def apply_matrix(self, a, op: UnaryOp) -> Any: ...
    def pattern(self, a) -> Any: ...
    def assign(self, dst, src) -> Any: ...
    def ewise_mult(self, u, v, op: BinaryOp) -> Any: ...
    def ewise_add(self, u, v, op) -> Any: ...

    # streaming updates (see repro.streaming): mutate ``a`` IN PLACE by one
    # hypersparse delta batch (deletes first, then upserts merged with
    # ``accum``; default overwrite) and bump its storage mutation epoch so
    # every identity-anchored cache (plans, transposes) misses afterwards.
    def apply_updates(self, a, batch, *, accum: BinaryOp | None = None) -> Any: ...

    # products
    def vxm(
        self, v, a, *, semiring: Semiring = ..., mask=None, accum=None,
        out=None, desc: Descriptor | None = None, mode: str | None = None,
    ) -> Any: ...
    def vxm_dense(self, x: np.ndarray, a, *, semiring: Semiring = ...) -> np.ndarray: ...
    def mxv_dense(self, a, x: np.ndarray, *, semiring: Semiring = ...) -> np.ndarray: ...
    def mxm(
        self, a, b, *, semiring: Semiring = ..., mask=None, accum=None,
        out=None, desc: Descriptor | None = None,
    ) -> Any: ...

    # reductions
    def reduce_vector(self, v, monoid: Monoid = ...) -> float: ...
    def reduce_matrix(self, a, monoid: Monoid = ...) -> float: ...
    def reduce_rows_dense(self, a, monoid: Monoid = ...) -> np.ndarray: ...

    # attribution / profiling
    def iteration(self, algo: str, k: int) -> IterationScope: ...
    def on_op_start(self, op: str) -> None: ...
    def on_op_end(self, op: str, seconds: float) -> None: ...


class BackendBase:
    """Shared plumbing for concrete backends.

    Subclasses get the profiling hooks for free: every protocol op they
    define is wrapped (via ``__init_subclass__``) to bracket execution
    with :meth:`on_op_start` / :meth:`on_op_end`, measuring each op's
    simulated seconds off the ledger.  The default hooks feed the
    process-wide telemetry registry (``backend.ops`` /
    ``backend.op.seconds``) and, when :meth:`attach_profile` has been
    called, a :class:`BackendProfile` with per-iteration tallies.
    """

    name = "abstract"

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.profile: BackendProfile | None = None
        self._op_depth = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for op in PROFILED_OPS:
            fn = cls.__dict__.get(op)
            if fn is None or getattr(fn, "_telemetry_wrapped", False):
                continue
            setattr(cls, op, _profiled(op, fn))

    @property
    def ledger(self) -> CostLedger | None:
        """The machine's cost ledger (may be ``None``)."""
        return self.machine.ledger

    # -- profiling hooks (overridable per the protocol) ----------------------

    def attach_profile(self, profile: BackendProfile | None = None) -> BackendProfile:
        """Start collecting per-op tallies; returns the (new) profile."""
        self.profile = profile if profile is not None else BackendProfile()
        return self.profile

    def on_op_start(self, op: str) -> None:
        """Called before every profiled op (default: no-op)."""

    def on_op_end(self, op: str, seconds: float) -> None:
        """Called after every profiled op with its simulated seconds.

        ``seconds`` is 0.0 for ops nested inside another profiled op (the
        outermost call carries the whole time) and for ops that recorded
        nothing to the ledger.
        """
        if self.profile is not None:
            self.profile.record(op, seconds)
        _metrics.counter("backend.ops").inc(1, backend=self.name, op=op)
        if seconds > 0.0:
            _metrics.histogram("backend.op.seconds").observe(
                seconds, backend=self.name, op=op
            )

    def iteration(self, algo: str, k: int) -> IterationScope:
        """Scope whose recorded ops get the ``algo[iter=k]:`` label prefix
        (mirrored into metric ``scope=`` labels and the attached profile)."""
        return IterationScope(
            self.machine.ledger,
            f"{algo}[iter={k}]",
            registry=_metrics.default_registry(),
            profile=self.profile,
        )

    def pattern(self, a):
        """The structural pattern of ``a`` (all stored values set to 1)."""
        return self.apply_matrix(a, ONE)

    def vector_from_pairs(self, n: int, indices: Iterable[int], values) -> Any:
        """Coordinate vector construction."""
        return self.vector(
            SparseVector.from_pairs(n, indices, values, PLUS_MONOID)
        )

    def empty_vector(self, n: int):
        """An empty sparse vector of capacity ``n``."""
        return self.vector(SparseVector.empty(n))

    # concrete backends must provide the rest of the protocol
    def apply_matrix(self, a, op):  # pragma: no cover - abstract
        raise NotImplementedError

    def vector(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


# the base's own helpers are profiled too, so `pattern` shows up in tallies
# alongside the `apply_matrix` it delegates to (time attributed once).
for _op in ("pattern", "vector_from_pairs", "empty_vector"):
    setattr(BackendBase, _op, _profiled(_op, BackendBase.__dict__[_op]))
del _op
