"""Fault-stream keying: every draw is a pure function of its position.

The injector seeds each PRNG stream by ``(plan.seed, site, superstep,
locale)`` (:mod:`repro.runtime.faults`), so the faults a locale sees do
not depend on the order in which the kernel visits the locales, and
:meth:`~repro.runtime.faults.FaultInjector.reset` replays a run exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime import FaultInjector, FaultPlan, RetryPolicy
from tests.strategies import PROFILE_FAST


class _FakeGrid:
    """Minimal grid stand-in for driving the injector directly."""

    def __init__(self, n: int) -> None:
        self._n = n

    def __iter__(self):
        class _Loc:
            def __init__(self, i):
                self.id = i

        return iter([_Loc(i) for i in range(self._n)])


class TestFaultStreamOrderIndependence:
    """Regression: streams used to advance in kernel *call order*, so the
    draws one locale saw depended on how many draws other locales made
    first.  The (site, superstep, locale) keying makes each endpoint's
    sequence a pure function of its position in the computation."""

    PLAN = FaultPlan(
        seed=42, transient_rate=0.35, max_burst=2, drop_rate=0.25, dup_rate=0.25
    )
    POLICY = RetryPolicy(max_attempts=5)

    def _consume(self, order):
        """Draws for four locales at one superstep, visited in ``order``."""
        inj = FaultInjector(self.PLAN, self.POLICY)
        inj.check_grid(_FakeGrid(4), "op")
        out = {}
        for loc in order:
            _, retry = inj.transfer("op.gather", 1e-3, src=0, dst=loc)
            idx, vals, extra = inj.deliver_puts(
                "op.scatter",
                np.arange(24),
                np.arange(24.0),
                src=0,
                dst=loc,
                per_element_seconds=1e-6,
            )
            _, bextra = inj.batched_transfer(
                "op.agg", 3, 1e-4, src=0, dst=loc
            )
            out[loc] = (retry, idx.tobytes(), vals.tobytes(), extra, bextra)
        return out, tuple(sorted((e.kind, e.site, e.locale) for e in inj.events))

    @settings(PROFILE_FAST, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_draws_do_not_depend_on_call_order(self, order):
        assert self._consume(order) == self._consume(list(range(4)))

    def test_superstep_advances_streams(self):
        """Same site+locale at successive supersteps gets fresh streams
        (otherwise every op would replay the first op's faults)."""
        inj = FaultInjector(self.PLAN, self.POLICY)
        seqs = []
        for _ in range(2):
            inj.check_grid(_FakeGrid(2), "op")
            seqs.append(
                [inj.transfer("s", 1e-3, src=0, dst=d)[1] for d in range(2)]
            )
        assert inj.superstep == 2
        # replay from reset reproduces both supersteps exactly
        inj.reset()
        assert inj.superstep == 0
        for step in range(2):
            inj.check_grid(_FakeGrid(2), "op")
            got = [inj.transfer("s", 1e-3, src=0, dst=d)[1] for d in range(2)]
            assert got == seqs[step]
