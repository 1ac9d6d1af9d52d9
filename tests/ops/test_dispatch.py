"""Unit tests for the cost-model dispatch engine (repro.ops.dispatch)."""

import gc

import numpy as np
import pytest

from repro.algebra.semiring import MIN_FIRST, PLUS_TIMES
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.ops.dispatch import (
    PULL,
    PUSH_KERNELS,
    PUSH_MERGE,
    PUSH_RADIX,
    PUSH_SORTBASED,
    Dispatcher,
)
from repro.ops.spmspv import spmspv_shm, spmspv_shm_cost
from repro.runtime import CostLedger, LocaleGrid, Machine, Trace, shared_machine
from repro.runtime.epoch import bump_epoch
from repro.sparse.csr import CSRMatrix
from repro.sparse.vector import SparseVector


def _workload(n=200, d=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), d)
    cols = rng.integers(0, n, n * d)
    a = CSRMatrix.from_triples(n, n, rows, cols, np.ones(n * d))
    k = max(n // 10, 1)
    idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    return a, SparseVector(n, idx, np.ones(k))


def _machine():
    return Machine(
        grid=LocaleGrid.for_count(1), threads_per_locale=4, ledger=CostLedger()
    )


class TestDecisions:
    def test_every_vxm_records_one_decision(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        disp.vxm(a, x)
        disp.vxm(a, x, mode="pull")
        assert len(disp.decisions) == 2
        assert disp.decisions[0].forced is False
        assert disp.decisions[1].forced is True
        assert disp.decisions[1].chosen == PULL

    def test_estimates_cover_all_candidates(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        est = disp.estimate_vxm(a, x)
        assert set(est) == set(PUSH_KERNELS) | {PULL}
        assert all(v > 0 for v in est.values())

    def test_masked_output_estimate_counts_the_mask_once(self):
        """The collision model takes the unmasked products and the allowed
        count: 120 000 products over 50 000 columns with 75 allowed hit
        ⌊75·(1 − e^−2.4)⌋ = 68 outputs, not 1."""
        rng = np.random.default_rng(0)
        nrows, ncols, per_row = 1000, 50_000, 120
        cols = np.concatenate(
            [np.sort(rng.choice(ncols, per_row, replace=False)) for _ in range(nrows)]
        )
        rowptr = np.arange(0, nrows * per_row + 1, per_row)
        a = CSRMatrix(nrows, ncols, rowptr, cols, np.ones(cols.size))
        x = SparseVector(nrows, np.arange(nrows), np.ones(nrows))
        mask = np.zeros(ncols, dtype=bool)
        mask[rng.choice(ncols, 75, replace=False)] = True
        m = _machine()
        est = Dispatcher(m).estimate_vxm(a, x, mask=mask)
        rows = np.full(nrows, per_row)
        for name, sort in ((PUSH_MERGE, "merge"), (PUSH_RADIX, "radix")):
            want = spmspv_shm_cost(m, row_nnzs=rows, out_nnz=68, ncols=ncols, sort=sort)
            assert est[name] == want.total, name
        y, _ = spmspv_shm(a, x, m, mask=mask)
        assert 55 <= y.nnz <= 75

    def test_auto_picks_the_argmin(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        disp.vxm(a, x)
        d = disp.decisions[0]
        assert d.estimates[d.chosen] == min(d.estimates.values())

    def test_decisions_appear_as_trace_spans(self):
        a, x = _workload()
        machine = _machine()
        disp = Dispatcher(machine)
        disp.vxm(a, x)
        disp.vxm(a, x, mode="pull")
        labels = {(s.label, s.component) for s in Trace(machine.ledger).spans}
        chosen0 = disp.decisions[0].chosen
        assert ("dispatch[vxm]", chosen0) in labels
        assert ("dispatch[vxm]", PULL) in labels

    def test_stats_counts_directions(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        disp.vxm(a, x, mode="push")
        disp.vxm(a, x, mode="pull")
        disp.vxm(a, x, mode="pull")
        s = disp.stats()
        assert s["push"] == 1
        assert s["pull"] == 2


class TestModes:
    def test_explicit_kernel_names(self):
        a, x = _workload()
        m = _machine()
        want, _ = spmspv_shm(a, x, shared_machine(1))
        for mode in (PUSH_MERGE, PUSH_RADIX, PUSH_SORTBASED, PULL):
            got, _ = Dispatcher(m).vxm(a, x, mode=mode)
            assert np.array_equal(got.indices, want.indices), mode
            assert np.array_equal(got.values, want.values), mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            Dispatcher(_machine(), mode="sideways")
        a, x = _workload()
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            Dispatcher(_machine()).vxm(a, x, mode="sideways")

    def test_sortbased_with_mask_rejected(self):
        a, x = _workload()
        mask = np.ones(a.ncols, dtype=bool)
        with pytest.raises(ValueError, match="mask"):
            Dispatcher(_machine()).vxm(a, x, mode=PUSH_SORTBASED, mask=mask)

    def test_masked_auto_never_picks_sortbased(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        disp.vxm(a, x, mask=np.ones(a.ncols, dtype=bool))
        assert disp.decisions[0].chosen != PUSH_SORTBASED


class TestThreshold:
    def test_threshold_flips_direction_at_density(self):
        a, x = _workload()
        density = x.nnz / a.nrows
        lo = Dispatcher(_machine(), pull_threshold=density / 2)
        hi = Dispatcher(_machine(), pull_threshold=density * 2)
        lo.vxm(a, x)
        hi.vxm(a, x)
        assert lo.decisions[0].direction == "pull"
        assert hi.decisions[0].direction == "push"
        assert lo.decisions[0].forced and hi.decisions[0].forced


class TestTransposeCache:
    def test_transpose_built_once_and_charged(self):
        a, x = _workload()
        machine = _machine()
        disp = Dispatcher(machine)
        at1 = disp.transpose_of(a)
        at2 = disp.transpose_of(a)
        assert at1 is at2
        builds = [
            e for e in machine.ledger.entries if e[0] == "dispatch[transpose]"
        ]
        assert len(builds) == 1

    def test_seed_transpose_charges_nothing(self):
        a, _ = _workload()
        machine = _machine()
        disp = Dispatcher(machine)
        at = a.transposed()
        disp.seed_transpose(a, at)
        assert disp.transpose_of(a) is at
        assert disp.transpose_of(at) is a  # registered both ways
        assert not any(
            e[0] == "dispatch[transpose]" for e in machine.ledger.entries
        )

    def test_cached_transpose_removes_build_from_estimate(self):
        a, x = _workload()
        cold = Dispatcher(_machine()).estimate_vxm(a, x)[PULL]
        disp = Dispatcher(_machine())
        disp.transpose_of(a)
        warm = disp.estimate_vxm(a, x)[PULL]
        assert warm < cold

    def test_entries_die_with_their_sources(self):
        disp = Dispatcher(_machine())
        for seed in range(5):
            a, _ = _workload(seed=seed)
            disp.transpose_of(a)
        del a
        gc.collect()
        assert len(disp._transposes) == 0

    def test_mutation_rebuilds_and_rebills(self):
        a, _ = _workload()
        machine = _machine()
        disp = Dispatcher(machine)
        at = disp.transpose_of(a)
        bump_epoch(a)
        # neither direction survives a mutation of ``a``
        assert disp._transposes.get(at) is None
        assert disp.transpose_of(a) is not at
        builds = [
            e for e in machine.ledger.entries if e[0] == "dispatch[transpose]"
        ]
        assert len(builds) == 2

    def test_amortized_flag_removes_build_from_estimate(self):
        a, x = _workload()
        cold = Dispatcher(_machine()).estimate_vxm(a, x)[PULL]
        amort = Dispatcher(
            _machine(), assume_transpose_amortized=True
        ).estimate_vxm(a, x)[PULL]
        assert amort < cold


class TestDistDispatch:
    def test_auto_axes_resolve_and_record(self):
        a, x = _workload(n=120)
        grid = LocaleGrid.for_count(4)
        machine = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
        disp = Dispatcher(machine)
        y, _ = disp.vxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
        )
        want, _ = spmspv_shm(a, x, shared_machine(1))
        got = y.gather()
        assert np.array_equal(got.indices, want.indices)
        (d,) = disp.decisions
        assert d.op == "vxm_dist"
        g, s, so = d.chosen.split("+")
        assert g.split(":")[1] in ("fine", "bulk")
        assert s.split(":")[1] in ("fine", "bulk")
        assert so.split(":")[1] in ("merge", "radix")

    @pytest.mark.parametrize(
        "axes",
        [{"gather_mode": "bulkk"}, {"scatter_mode": "dense"}, {"sort": "heap"}],
    )
    def test_unknown_axis_rejected_before_pricing(self, axes):
        """A bad axis raises before a decision or a ledger entry exists."""
        a, x = _workload(n=120, seed=5)
        grid = LocaleGrid(2, 2)
        m = Machine(grid=grid, threads_per_locale=4, ledger=CostLedger())
        d = Dispatcher(m)
        with pytest.raises(ValueError, match=f"unknown {next(iter(axes))}"):
            d.vxm_dist(
                DistSparseMatrix.from_global(a, grid),
                DistSparseVector.from_global(x, grid),
                **axes,
            )
        assert d.decisions == []
        assert m.ledger.entries == []

    def test_nonsquare_output_partition(self):
        # regression: the output space is the COLUMN space; non-square
        # inputs used to scatter into x's row-space partition
        a = CSRMatrix.from_triples(
            3, 5, [0, 0, 0], [0, 1, 2], [1.0, 1.0, 1.0]
        )
        x = SparseVector(3, np.array([0], dtype=np.int64), np.array([1.0]))
        grid = LocaleGrid.for_count(2)
        machine = Machine(grid=grid, threads_per_locale=1, ledger=CostLedger())
        y, _ = Dispatcher(machine).vxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
        )
        want, _ = spmspv_shm(a, x, shared_machine(1))
        got = y.gather()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)


class TestBFSIntegration:
    def test_bfs_dispatch_matches_plain_bfs(self):
        from repro.algorithms import bfs_levels, bfs_levels_dispatch

        a, _ = _workload(n=300, d=6)
        ref = bfs_levels(a, 0)
        stats = {}
        got = bfs_levels_dispatch(a, 0, stats=stats)
        assert np.array_equal(ref, got)
        assert stats.get("push", 0) + stats.get("pull", 0) > 0

    def test_bfs_threshold_forces_pull_on_dense_frontiers(self):
        from repro.algorithms import bfs_levels, bfs_levels_dispatch

        a, _ = _workload(n=300, d=6)
        ref = bfs_levels(a, 0)
        stats = {}
        got = bfs_levels_dispatch(a, 0, pull_threshold=0.01, stats=stats)
        assert np.array_equal(ref, got)
        assert stats.get("pull", 0) >= 1
