"""Stateful chaos: a distributed vector/matrix lifecycle under fault injection.

A Hypothesis :class:`RuleBasedStateMachine` drives a distributed vector and
matrix through sequences of dispatcher-selectable kernels (auto and forced
SpMSpV variants, e-wise add/mult, SpGEMM, gathers) on a machine whose comm
layer is running a *covered* fault plan, while a fault-free local mirror
executes the same program.  The meta-invariant checked after every rule:

    distributed-under-faults  ≡  local-fault-free   (bit-identical)

and whenever the injector records a repairable event during a comm-bearing
kernel, the repair time must surface as the ``Retries`` component of that
kernel's breakdown.
"""

import os

import numpy as np
import pytest
from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.algebra.monoid import PLUS_MONOID
from repro.algebra.semiring import MAX_TIMES, MIN_PLUS, PLUS_TIMES
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.ops import mxm, spmspv_shm
from repro.ops.dispatch import Dispatcher
from repro.ops.ewise import ewiseadd_vv, ewisemult_vv
from repro.ops.ewise_dist import ewiseadd_dist_vv, ewisemult_dist_vv
from repro.ops.mxm_dist import mxm_dist
from repro.ops.spmspv import spmspv_dist
from repro.runtime import (
    RETRY_STEP,
    CostLedger,
    FaultInjector,
    FaultPlan,
    LocaleGrid,
    Machine,
    RetryPolicy,
    shared_machine,
)
from tests.strategies import fault_plans, matrix_vector_pairs, sparse_vectors
from tests.strategies.settings import DERANDOMIZE, PROFILE_NAME

pytestmark = pytest.mark.chaos

_REPAIRABLE = ("transient", "drop", "duplicate")

_STEPS = {"quick": 5, "standard": 8, "slow": 12}[PROFILE_NAME]
_EXAMPLES = {"quick": 12, "standard": 30, "slow": 75}[PROFILE_NAME]


class DistLifecycle(RuleBasedStateMachine):
    """Distributed state under faults vs. a fault-free local mirror."""

    @initialize(
        wl=matrix_vector_pairs(square=True, min_side=2, max_side=14, max_nnz=50),
        p=st.sampled_from([1, 4, 9]),
        plan=fault_plans(allow_failures=False),
        sr=st.sampled_from([PLUS_TIMES, MIN_PLUS, MAX_TIMES]),
    )
    def setup(self, wl, p, plan, sr):
        a, x = wl
        self.a, self.x = a, x
        self.sr = sr
        self.grid = LocaleGrid.for_count(p)
        # positive per-repair costs so "event fired => Retries > 0" holds
        policy = RetryPolicy(
            max_attempts=plan.max_burst + 2,
            detect_timeout=1e-4,
            backoff_base=5e-5,
        )
        assert plan.covered_by(policy)
        self.machine = Machine(
            grid=self.grid,
            threads_per_locale=2,
            ledger=CostLedger(),
            faults=FaultInjector(plan, policy),
        )
        self.ref = shared_machine(1)
        self.ad = DistSparseMatrix.from_global(a, self.grid)
        self.xd = DistSparseVector.from_global(x, self.grid)
        self._events = dict(self.machine.faults.event_counts())

    # -- helpers ----------------------------------------------------------

    def _new_repairable_events(self):
        now = dict(self.machine.faults.event_counts())
        fresh = any(
            now.get(k, 0) > self._events.get(k, 0) for k in _REPAIRABLE
        )
        self._events = now
        return fresh

    def _check_retry_accounting(self, b):
        assert RETRY_STEP in b
        assert b[RETRY_STEP] >= 0.0
        if self._new_repairable_events():
            assert b[RETRY_STEP] > 0.0

    # -- rules: SpMSpV in every dispatcher-selectable variant -------------

    @rule()
    def vxm_auto(self):
        """Auto dispatch: the cost model picks gather/scatter/sort."""
        yd, b = Dispatcher(self.machine).vxm_dist(
            self.ad, self.xd, semiring=self.sr
        )
        y_ref, _ = spmspv_shm(self.a, self.x, self.ref, semiring=self.sr)
        self.xd, self.x = yd, y_ref
        self._check_retry_accounting(b)

    @rule(
        gather=st.sampled_from(["fine", "bulk"]),
        scatter=st.sampled_from(["fine", "bulk"]),
        sort=st.sampled_from(["merge", "radix"]),
    )
    def vxm_forced(self, gather, scatter, sort):
        """Every forced gather/scatter/sort combination."""
        yd, b = spmspv_dist(
            self.ad,
            self.xd,
            self.machine,
            semiring=self.sr,
            gather_mode=gather,
            scatter_mode=scatter,
            sort=sort,
        )
        y_ref, _ = spmspv_shm(self.a, self.x, self.ref, semiring=self.sr)
        self.xd, self.x = yd, y_ref
        self._check_retry_accounting(b)

    # -- rules: element-wise lifecycle ------------------------------------

    @rule(data=st.data())
    def ewise_add(self, data):
        other = data.draw(
            sparse_vectors(capacity=self.x.capacity), label="add operand"
        )
        od = DistSparseVector.from_global(other, self.grid)
        zd, _ = ewiseadd_dist_vv(self.xd, od, self.machine, PLUS_MONOID)
        self.xd, self.x = zd, ewiseadd_vv(self.x, other, PLUS_MONOID)

    @rule(data=st.data())
    def ewise_mult(self, data):
        other = data.draw(
            sparse_vectors(capacity=self.x.capacity), label="mult operand"
        )
        od = DistSparseVector.from_global(other, self.grid)
        zd, _ = ewisemult_dist_vv(self.xd, od, self.machine)
        self.xd, self.x = zd, ewisemult_vv(self.x, other)

    # -- rules: matrix lifecycle ------------------------------------------

    @precondition(lambda self: self.a.nnz <= 40)
    @rule()
    def square_matrix(self):
        """A ← A ⊗ A via sparse SUMMA (bounded to keep fill-in small)."""
        cd, b = mxm_dist(self.ad, self.ad, self.machine)
        self.ad, self.a = cd, mxm(self.a, self.a)
        self._check_retry_accounting(b)

    @rule()
    def gather_roundtrip(self):
        """Materialising distributed state matches the mirror exactly."""
        got = self.xd.gather(faults=self.machine.faults)
        assert np.array_equal(got.indices, self.x.indices)
        assert np.array_equal(got.values, self.x.values)
        am = self.ad.gather(faults=self.machine.faults)
        assert np.array_equal(am.rowptr, self.a.rowptr)
        assert np.array_equal(am.colidx, self.a.colidx)
        assert np.array_equal(am.values, self.a.values)

    # -- the meta-invariant ------------------------------------------------

    @invariant()
    def distributed_equals_local(self):
        got = self.xd.gather(faults=self.machine.faults)
        assert got.capacity == self.x.capacity
        assert np.array_equal(got.indices, self.x.indices)
        assert np.array_equal(got.values, self.x.values)

    @invariant()
    def retry_costs_are_ledgered(self):
        """Every repairable event the injector saw is billed somewhere:
        summing the ledger's Retries components must be positive iff any
        transient/drop/duplicate event has fired so far."""
        totals = self.machine.ledger.by_component()
        counts = self.machine.faults.event_counts()
        fired = any(counts.get(k, 0) for k in _REPAIRABLE)
        if fired:
            assert totals.get(RETRY_STEP, 0.0) > 0.0

    def teardown(self):
        # the run must end with a consistent, fully-gatherable state
        assert self.xd.gather(faults=self.machine.faults).nnz == self.x.nnz


# -- replay wiring -----------------------------------------------------------
#
# Local runs seed the whole machine from entropy and PRINT the seed, so a
# failing sequence replays exactly with
#     REPRO_CHAOS_SEED=<printed> pytest tests/chaos/test_state_machine.py
# CI runs derandomize instead (deterministic example stream, no seed needed);
# an explicit REPRO_CHAOS_SEED always wins — hypothesis.seed overrides
# derandomize by design.
_ENV_SEED = os.environ.get("REPRO_CHAOS_SEED")
if _ENV_SEED is not None:
    _SEED = int(_ENV_SEED)
elif not DERANDOMIZE:
    _SEED = int.from_bytes(os.urandom(4), "little")
else:
    _SEED = None
if _SEED is not None:
    seed(_SEED)(DistLifecycle)
    print(f"[chaos] DistLifecycle seeded — replay with REPRO_CHAOS_SEED={_SEED}")

DistLifecycle.TestCase.settings = settings(
    max_examples=_EXAMPLES,
    stateful_step_count=_STEPS,
    deadline=None,
    print_blob=True,
    derandomize=DERANDOMIZE and _SEED is None,
)

TestDistLifecycle = DistLifecycle.TestCase
