"""Distributed ingest bills the delta, not the matrix.

``DistBackend.apply_updates`` merges each locale's share of a batch into
its own block in place and writes one ``apply_updates`` row per batch:
``apply`` is the slowest locale's merge, and the delivery of the delta
to its owners is :func:`~repro.ops.assign.assign_agg_bill` over the
delta's per-locale entry counts.  A failed locale stops the op before it
touches or bills anything, and the stream keeps its epoch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import DistSparseMatrix
from repro.exec import DistBackend
from repro.generators import erdos_renyi
from repro.ops.assign import assign_agg_bill
from repro.runtime import CostLedger, FaultInjector, LocaleGrid, Machine
from repro.runtime.clock import Breakdown
from repro.runtime.epoch import epoch_of
from repro.runtime.faults import FaultPlan, LocaleFailure, RetryPolicy
from repro.runtime.telemetry.registry import MetricsRegistry
from repro.streaming import GraphStream, UpdateBatch, apply_batch_csr, apply_cost

pytestmark = pytest.mark.streaming

GRIDS = [1, 4, 6]

#: every repair charges time, so the retries are visible in the row
POLICY = RetryPolicy(
    max_attempts=8, detect_timeout=1e-4, backoff_base=5e-5, backoff_factor=2.0
)


def machine(p, faults=None) -> Machine:
    return Machine(
        grid=LocaleGrid.for_count(p),
        threads_per_locale=2,
        ledger=CostLedger(),
        faults=faults,
    )


def batch(n, seed, k=24) -> UpdateBatch:
    rng = np.random.default_rng(seed)
    return UpdateBatch.from_edges(
        n,
        n,
        inserts=(rng.integers(0, n, k), rng.integers(0, n, k), rng.uniform(0.5, 2.0, k)),
        deletes=(rng.integers(0, n, k // 3), rng.integers(0, n, k // 3)),
    )


def apply_once(p, a, bt, faults=None):
    """One batch through a fresh backend: ``(backend, handle, rows)``."""
    b = DistBackend(machine(p, faults))
    h = b.matrix(a)
    b.apply_updates(h, bt)
    return b, h, list(b.machine.ledger.entries)


def merge_costs(p, a, bt) -> list[float]:
    """Each locale's ``apply_cost`` of merging its share of ``bt`` into
    its block of ``a``, in locale order."""
    m = machine(p)
    before = DistSparseMatrix.from_global(a, m.grid)
    ups = DistSparseMatrix.from_global(bt.upserts, m.grid)
    dels = DistSparseMatrix.from_global(bt.deletes, m.grid)
    return [
        apply_cost(
            m,
            blk.nnz,
            UpdateBatch(blk.nrows, blk.ncols, upserts=ups.blocks[k], deletes=dels.blocks[k]),
        ).total
        for k, blk in enumerate(before.blocks)
    ]


def delta_counts(bt, grid) -> np.ndarray:
    return sum(
        DistSparseMatrix.from_global(d, grid).nnz_per_locale()
        for d in (bt.upserts, bt.deletes)
    )


def delivery(row) -> dict:
    return {c: v for c, v in row.items() if c != "apply"}


@pytest.mark.parametrize("p", GRIDS)
class TestOneRowPerBatch:
    def test_one_apply_updates_row(self, p):
        _, _, rows = apply_once(p, erdos_renyi(64, 4, seed=1), batch(64, 2))
        assert [lbl for lbl, _ in rows] == ["apply_updates"]

    def test_apply_is_the_slowest_local_merge(self, p):
        a, bt = erdos_renyi(64, 4, seed=1), batch(64, 2)
        _, _, rows = apply_once(p, a, bt)
        assert rows[0][1]["apply"] == max(merge_costs(p, a, bt))

    def test_delivery_is_the_assign_agg_bill_over_the_delta(self, p):
        a, bt = erdos_renyi(64, 4, seed=1), batch(64, 2)
        b, _, rows = apply_once(p, a, bt)
        counts = delta_counts(bt, b.machine.grid)
        assert counts.sum() == bt.size
        assert delivery(rows[0][1]) == dict(assign_agg_bill(machine(p), counts))

    def test_delivery_does_not_grow_with_the_graph(self, p):
        """The batch's whole bill, every row summed: only the merge reads
        the graph's nnz."""
        bt = batch(256, 2)
        small, big = erdos_renyi(256, 4, seed=1), erdos_renyi(256, 8, seed=1)
        assert big.nnz > 1.8 * small.nnz
        bill_small = sum((bd for _, bd in apply_once(p, small, bt)[2]), Breakdown())
        bill_big = sum((bd for _, bd in apply_once(p, big, bt)[2]), Breakdown())
        assert bill_big["apply"] > bill_small["apply"]
        assert delivery(bill_big) == delivery(bill_small)

    def test_blocks_hold_the_merged_graph(self, p):
        a, bt = erdos_renyi(64, 4, seed=1), batch(64, 2)
        b, h, _ = apply_once(p, a, bt)
        want = apply_batch_csr(a, bt)
        got = b.to_csr(h)
        np.testing.assert_array_equal(got.rowptr, want.rowptr)
        np.testing.assert_array_equal(got.colidx, want.colidx)
        np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("p", [4, 6])
class TestCoveredFaults:
    PLAN = FaultPlan(seed=3, transient_rate=0.5, max_burst=2, stragglers={1: 2.0})
    GRAPH = erdos_renyi(96, 4, seed=1)
    BATCHES = [batch(96, 10 + i, k=48) for i in range(3)]

    def run(self, p, faults):
        b = DistBackend(machine(p, faults))
        s = GraphStream(b, self.GRAPH, registry=MetricsRegistry())
        s.ingest(self.BATCHES)
        return b.to_csr(s.handle), list(b.machine.ledger.entries)

    def test_results_equal_fault_free_and_retries_share_the_row(self, p):
        clean, clean_rows = self.run(p, None)
        got, rows = self.run(p, FaultInjector(self.PLAN, POLICY))
        for name in ("rowptr", "colidx", "values"):
            np.testing.assert_array_equal(getattr(got, name), getattr(clean, name))
        assert [lbl for lbl, _ in rows] == [lbl for lbl, _ in clean_rows] == [
            f"stream[epoch={k}]:apply_updates" for k in (1, 2, 3)
        ]
        assert all("Retries" in bd for _, bd in rows)
        assert sum(bd["Retries"] for _, bd in rows) > 0.0
        # the merge itself is not retried, but the straggler's is stretched
        slow = [self.PLAN.stragglers.get(k, 1.0) for k in range(p)]
        a, want = self.GRAPH, []
        for bt in self.BATCHES:
            want.append(max(s * c for s, c in zip(slow, merge_costs(p, a, bt))))
            a = apply_batch_csr(a, bt)
        assert [bd["apply"] for _, bd in rows] == want

    def test_replay_reproduces_the_ledger(self, p):
        _, first = self.run(p, FaultInjector(self.PLAN, POLICY))
        _, again = self.run(p, FaultInjector(self.PLAN, POLICY))
        assert first == again


@pytest.mark.parametrize("p", [4, 6])
class TestStraggler:
    """A slow locale stretches its own merge, its share of the delivery's
    domain searches and every delivery leg it ends; without one, a faulty
    run bills the fault-free merge and delivery bit for bit."""

    def test_straggler_stretches_merge_and_delivery(self, p):
        a, bt = erdos_renyi(64, 4, seed=1), batch(64, 2)
        plan = FaultPlan(stragglers={1: 2.0})
        b, _, clean = apply_once(p, a, bt)
        _, _, rows = apply_once(p, a, bt, FaultInjector(plan, POLICY))
        slow = [plan.stragglers.get(k, 1.0) for k in range(p)]
        assert rows[0][1]["apply"] == max(s * c for s, c in zip(slow, merge_costs(p, a, bt)))
        assert delta_counts(bt, b.machine.grid)[1] > 0
        assert sum(delivery(rows[0][1]).values()) > sum(delivery(clean[0][1]).values())
        assert rows[0][1]["Retries"] == 0.0

    def test_straggler_stretches_its_owner_searches(self, p):
        """The delivery's ``assign`` grows by more than the legs the
        straggler ends: its share of the domain searches runs slower too."""
        from tests.ops.test_assign import leg_stretch

        a, bt = erdos_renyi(64, 4, seed=1), batch(64, 2)
        k = min(1, p - 1)
        b, _, clean = apply_once(p, a, bt)
        _, _, rows = apply_once(p, a, bt, FaultInjector(FaultPlan(stragglers={k: 2.0}), POLICY))
        counts = delta_counts(bt, b.machine.grid)
        assert counts[k] > 0
        legs = leg_stretch(b.machine, counts, k, 2.0)
        assert rows[0][1]["assign"] - clean[0][1]["assign"] > legs + 1e-9

    def test_transients_alone_bill_the_fault_free_merge_and_delivery(self, p):
        a, bt = erdos_renyi(64, 4, seed=1), batch(64, 2)
        plan = FaultPlan(seed=3, transient_rate=0.9, max_burst=2)
        _, _, clean = apply_once(p, a, bt)
        _, _, rows = apply_once(p, a, bt, FaultInjector(plan, POLICY))
        assert rows[0][1]["apply"] == clean[0][1]["apply"]
        assert rows[0][1]["assign"] == clean[0][1]["assign"]
        assert rows[0][1]["Retries"] > 0.0


class TestFailedApply:
    def test_failed_apply_changes_nothing(self):
        """A locale failure stops the batch before any block is touched or
        billed; the stream keeps its epoch, so the next batch gets the next
        epoch and ``pending`` still covers every view from before."""
        b = DistBackend(machine(4))
        s = GraphStream(b, erdos_renyi(64, 4, seed=1), registry=MetricsRegistry())
        first, refused, later = batch(64, 1), batch(64, 2), batch(64, 3)
        s.apply(first)
        h = s.handle

        def state():
            return (
                [(blk.rowptr.copy(), blk.colidx.copy(), blk.values.copy()) for blk in h.blocks],
                [epoch_of(blk) for blk in h.blocks] + [epoch_of(h)],
                s.epoch,
                [e for e, _ in s._history],
                list(b.machine.ledger.entries),
            )

        before = state()
        b.machine.faults = FaultInjector(FaultPlan(failed_locales=frozenset({2})))
        with pytest.raises(LocaleFailure):
            s.apply(refused)
        after = state()
        for (r0, c0, v0), (r1, c1, v1) in zip(before[0], after[0]):
            np.testing.assert_array_equal(r0, r1)
            np.testing.assert_array_equal(c0, c1)
            np.testing.assert_array_equal(v0, v1)
        assert after[1:] == before[1:]

        b.machine.faults = None
        assert s.apply(later) == 2
        assert [e for e, _ in s._history] == [1, 2]
        assert s.pending(1) == [later]
        assert [lbl for lbl, _ in b.machine.ledger.entries] == [
            "stream[epoch=1]:apply_updates",
            "stream[epoch=2]:apply_updates",
        ]
