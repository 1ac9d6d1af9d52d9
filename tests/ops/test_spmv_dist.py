"""Distributed dense SpMV in both orientations, on one bill.

``spmv_dist`` (``y = A ⊗ x``) and ``vxm_dense_dist`` (``y = x ⊗ A`` on
A's own blocks, which ``DistBackend.vxm_dense`` runs) share one cost
formula.  These tests pin the operand order of ``x ⊗ A`` against the
shared-memory kernel, the bill identity with the route through ``Aᵀ``
that ``vxm_dense`` used to take, and the fault plan on both orientations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.semiring import MAX_SECOND, MIN_FIRST, MIN_PLUS, PLUS_TIMES
from repro.algorithms import pagerank, sssp
from repro.distributed import DistDenseVector, DistSparseMatrix
from repro.exec import DistBackend, ShmBackend
from repro.generators import erdos_renyi
from repro.ops import spmv_dist, vxm_dense_dist
from repro.ops.transpose import transpose_dist
from repro.runtime import CostLedger, FaultInjector, LocaleGrid, Machine
from repro.runtime.faults import RETRY_STEP, FaultPlan, LocaleFailure
from repro.runtime.tasks import coforall_spawn, parallel_time
from repro.runtime.telemetry import registry as tm
from repro.sparse import CSRMatrix


def machine(p, faults=None) -> Machine:
    return Machine(
        grid=LocaleGrid.for_count(p),
        threads_per_locale=4,
        ledger=CostLedger(),
        faults=faults,
    )


def operands(nrows, ncols, seed):
    """``A`` in [0.5, 2) with every 5th row and 7th column empty, and an
    ``x`` in [10, 20) with every 4th entry ``inf`` — so ``first`` and
    ``second`` pick values that cannot be mistaken for each other."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(nrows * ncols, size=3 * max(nrows, ncols), replace=False)
    rows, cols = cells // ncols, cells % ncols
    keep = (rows % 5 != 2) & (cols % 7 != 3)
    a = CSRMatrix.from_triples(
        nrows, ncols, rows[keep], cols[keep], rng.uniform(0.5, 2.0, int(keep.sum()))
    )
    x = rng.uniform(10.0, 20.0, nrows)
    x[::4] = np.inf
    return a, x


def bits(row):
    label, b = row
    return label, {k: float(v).hex() for k, v in b.items()}


@pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
@pytest.mark.parametrize("shape", [(37, 37), (37, 53), (53, 29)])
class TestVxmDenseMatchesShm:
    """``DistBackend.vxm_dense`` multiplies ``x[i] ⊗ A[i,j]`` in operand
    order, like ``ShmBackend``: a non-commutative multiply must not see
    its operands swapped."""

    @pytest.mark.parametrize("semiring", [MIN_PLUS, MIN_FIRST, MAX_SECOND], ids=lambda s: s.name)
    def test_bit_identical(self, p, shape, semiring):
        a, x = operands(*shape, seed=p)
        b = DistBackend(machine(p))
        dist = b.vxm_dense(x, b.matrix(a), semiring=semiring)
        shm = ShmBackend().vxm_dense(x, a, semiring=semiring)
        assert dist.tobytes() == shm.tobytes()

    def test_plus_times_agrees(self, p, shape):
        a, x = operands(*shape, seed=p)
        b = DistBackend(machine(p))
        dist = b.vxm_dense(x, b.matrix(a), semiring=PLUS_TIMES)
        np.testing.assert_allclose(dist, ShmBackend().vxm_dense(x, a), rtol=1e-12)


@pytest.mark.parametrize("p", [4, 9, 16])
@pytest.mark.parametrize("shape", [(144, 144), (145, 145), (145, 151)])
def test_bill_equals_the_row_through_the_transpose(p, shape):
    """On a square grid ``x ⊗ A`` bills exactly the ``spmv_dist`` row that
    ``Aᵀ ⊗ x`` bills, whether or not the grid divides the dimensions."""
    a, x = operands(*shape, seed=p)
    grid = LocaleGrid.for_count(p)
    via_t, direct = machine(p), machine(p)
    at, _ = transpose_dist(DistSparseMatrix.from_global(a, grid), via_t)
    spmv_dist(at, DistDenseVector.from_global(x, grid), via_t)
    vxm_dense_dist(DistDenseVector.from_global(x, grid), DistSparseMatrix.from_global(a, grid), direct)
    assert [label for label, _ in via_t.ledger.entries] == ["transpose_dist", "spmv_dist"]
    assert [bits(r) for r in direct.ledger.entries] == [bits(via_t.ledger.entries[1])]


@pytest.mark.parametrize("shape", [(4, 1), (1, 4)], ids=["4x1", "1x4"])
class TestNonSquareTeams:
    """On a non-square grid each collective is billed over its own team:
    the gather over the owners of the ``x`` slice (``grid.rows`` of them
    for ``A ⊗ x``, ``grid.cols`` for ``x ⊗ A``), the reduce over the
    locales whose partials combine (the processor row for ``A ⊗ x``, the
    processor column for ``x ⊗ A``).  A team of one bills nothing beyond
    the spawn."""

    @staticmethod
    def row(shape, orientation, a=None):
        a = erdos_renyi(400, 8, seed=1) if a is None else a
        x = np.random.default_rng(1).random(400)
        grid = LocaleGrid(*shape)
        m = Machine(grid=grid, threads_per_locale=4, ledger=CostLedger())
        da, dx = DistSparseMatrix.from_global(a, grid), DistDenseVector.from_global(x, grid)
        if orientation == "mxv":
            spmv_dist(da, dx, m)
        else:
            vxm_dense_dist(dx, da, m)
        [(label, row)] = m.ledger.entries
        assert label == "spmv_dist"
        return row, coforall_spawn(m.config, m.num_locales, m.locales_per_node)

    @pytest.mark.parametrize("orientation", ["mxv", "vxm"])
    def test_each_collective_spans_its_team(self, shape, orientation):
        rows, cols = shape
        gather_team, reduce_team = (rows, cols) if orientation == "mxv" else (cols, rows)
        row, spawn = self.row(shape, orientation)
        assert (row["gather"] > spawn) == (gather_team > 1)
        assert row["gather"] >= spawn
        assert (row["reduce"] > 0.0) == (reduce_team > 1)

    def test_x_times_a_bills_the_transposed_row(self, shape):
        """``x ⊗ A`` on an r×c grid bills what ``Aᵀ ⊗ x`` bills on c×r."""
        a = erdos_renyi(400, 8, seed=1)
        direct, _ = self.row(shape, "vxm", a)
        via_t, _ = self.row(shape[::-1], "mxv", a.transposed())
        assert bits(("", direct)) == bits(("", via_t))


class TestNoTranspose:
    def test_vxm_dense_never_transposes(self, monkeypatch):
        b = DistBackend(machine(4))
        monkeypatch.setattr(b, "transpose", lambda a: pytest.fail("vxm_dense transposed"))
        a = erdos_renyi(60, 4, seed=2)
        b.vxm_dense(np.ones(60), b.matrix(a))

    def test_pagerank_and_sssp_ledgers_have_no_transpose(self):
        a = erdos_renyi(120, 4, seed=3)
        b = DistBackend(machine(4))
        pagerank(a, backend=b)
        sssp(a, 0, backend=b)
        labels = [label for label, _ in b.machine.ledger.entries]
        assert any(label.endswith("spmv_dist") for label in labels)
        assert not any("transpose" in label for label in labels)


class TestRowIdsExpandOnce:
    """``vxm_dense`` gathers ``x`` at each block's cached row ids: a second
    multiply over an unchanged block expands no rows."""

    @staticmethod
    def repeats(monkeypatch):
        calls = []
        real = np.repeat

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "repeat", spy)
        return calls

    @pytest.mark.parametrize("make", [lambda: ShmBackend(), lambda: DistBackend(machine(4))], ids=["shm", "dist"])
    def test_second_multiply_expands_nothing(self, monkeypatch, make):
        a, x = operands(64, 64, seed=4)
        b = make()
        h = b.matrix(a)
        first = b.vxm_dense(x, h, semiring=MIN_PLUS)
        calls = self.repeats(monkeypatch)
        again = b.vxm_dense(x, h, semiring=MIN_PLUS)
        assert again.tobytes() == first.tobytes()
        assert calls == []


def orientations():
    """Both dense SpMVs of the backend on ER(64, 4, seed 1)."""
    a, x = erdos_renyi(64, 4, seed=1), np.random.default_rng(1).random(64)
    return [
        pytest.param(lambda b: b.mxv_dense(b.matrix(a), x), id="mxv"),
        pytest.param(lambda b: b.vxm_dense(x, b.matrix(a)), id="vxm"),
    ]


@pytest.mark.parametrize("op", orientations())
class TestFaultPlan:
    """Dense SpMV obeys the fault plan like every other distributed kernel:
    a failed locale stops it before it bills, a straggler stretches its
    multiply and the collective legs it ends, transient faults retry the
    legs into ``Retries``, and an injector with nothing to inject bills
    the fault-free row."""

    def run(self, op, faults=None):
        b = DistBackend(machine(4, faults))
        y = op(b)
        [(label, row)] = b.machine.ledger.entries
        assert label == "spmv_dist"
        return y, row

    def test_failed_locale_raises_before_billing(self, op):
        b = DistBackend(machine(4, FaultInjector(FaultPlan(failed_locales=frozenset({2})))))
        with pytest.raises(LocaleFailure):
            op(b)
        assert b.machine.ledger.entries == []

    def test_straggler_makes_the_row_dearer(self, op):
        """The straggler stretches its multiply and every collective leg
        it ends; it injects no transient fault."""
        y0, clean = self.run(op)
        y, slow = self.run(op, FaultInjector(FaultPlan(stragglers={1: 2.0})))
        assert y.tobytes() == y0.tobytes()
        assert slow.total > clean.total
        assert slow["multiply"] > clean["multiply"]
        assert slow["gather"] > clean["gather"]
        assert slow["reduce"] > clean["reduce"]
        assert slow[RETRY_STEP] == 0.0

    def test_transient_faults_retry_the_collectives(self, op):
        """Transient faults on the gather and reduce legs are repaired: the
        result is unchanged, the retries land in ``Retries``, and every
        other component bills the fault-free row bit for bit."""
        y0, clean = self.run(op)
        injector = FaultInjector(FaultPlan(seed=3, transient_rate=0.5))
        y, row = self.run(op, injector)
        assert y.tobytes() == y0.tobytes()
        assert row[RETRY_STEP] > 0.0
        assert bits(("", {k: v for k, v in row.items() if k != RETRY_STEP})) == bits(("", clean))
        sites = {e.site.split("[")[0] for e in injector.events}
        assert sites == {"spmv_dist.gather", "spmv_dist.reduce"}

    def test_empty_plan_bills_the_fault_free_row(self, op):
        _, clean = self.run(op)
        _, row = self.run(op, FaultInjector(FaultPlan()))
        assert bits(("", row)) == bits(("", clean))

    def test_compute_counter_counts_each_multiply(self, op):
        m = machine(4)
        registry = tm.MetricsRegistry()
        previous = tm.set_default_registry(registry)
        try:
            op(DistBackend(m))
        finally:
            tm.set_default_registry(previous)
        a = DistSparseMatrix.from_global(erdos_renyi(64, 4, seed=1), m.grid)
        cfg = m.config
        expected = sum(
            parallel_time(cfg, blk.nnz * cfg.stream_cost * m.compute_penalty, m.threads_per_locale)
            for blk in a.blocks
        )
        assert registry.counter("tasks.compute.seconds").total() == pytest.approx(expected, rel=1e-12)
