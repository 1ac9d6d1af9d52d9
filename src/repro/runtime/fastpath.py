"""The simulator fast path: one switch for the wall-clock optimisations.

Simulated time is gated by the perf-regression gate; *wall* time is what
the ROADMAP's "make the simulator itself fast" item attacks.  Three
families of optimisation live behind this switch:

* **vectorized kernels** — the hot local kernels keep their pure-Python
  reference implementations (``radix_sort_reference``,
  ``merge_sort_reference``, ``mxm_gustavson_reference``) and gain numpy
  ``argsort``/``lexsort``/``reduceat`` fast paths proven bit-identical by
  ``tests/ops/test_kernel_oracles.py``;
* **plan caching** — :class:`~repro.ops.dispatch.Dispatcher` memoises its
  per-operation pricing across iterations (``docs/performance.md``);
* **buffer pooling** — :class:`~repro.runtime.aggregation.BufferPool`
  recycles the exchange layer's numpy scratch arrays across supersteps.

All three produce bit-identical results, which is what the oracle /
property suites pin.  The vectorized kernels and buffer pooling also leave
the ledger byte-identical; plan caching does not.  A cache hit replays
estimates priced for another operand in the same nnz bucket, so the
dispatcher can pick another kernel and bill another time
(:class:`~repro.ops.dispatch.PlanCache` has the measurement: 22 of 176
shared-memory BFS decisions differ on R-MAT(14, 8), and the ledger total
moves by 0.016%).  ROADMAP item 5 deletes the cache.  The switch exists
so the differential tests (and the ``BENCH_wall.json`` before/after
ablation) can run both sides in one process.

Default: enabled.  Set ``REPRO_FASTPATH=0`` in the environment to start
disabled, or use :func:`force` / :func:`disabled` for scoped control.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["enabled", "set_enabled", "force", "disabled"]

_ENABLED = os.environ.get("REPRO_FASTPATH", "1") not in ("0", "false", "no")


def enabled() -> bool:
    """Whether the vectorized fast paths are active."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Set the fast-path switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


@contextmanager
def force(flag: bool):
    """Scoped override of the fast-path switch (used by the differential
    suites and the wall-clock ablation to compare both sides)."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


def disabled():
    """Scoped reference mode: ``with fastpath.disabled(): ...``."""
    return force(False)
