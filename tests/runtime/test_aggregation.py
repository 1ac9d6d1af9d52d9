"""Unit and property tests for the message-aggregation exchange layer.

Pins the tentpole contracts of :mod:`repro.runtime.aggregation`:

* :func:`group_by_owner` is bit-compatible with the per-owner boolean-mask
  loop it replaces (stable order within groups, ascending owners);
* coalescing buffers charge ``alpha`` per *flush*, not per element, and
  never pay the fine-grained congestion blow-up;
* two-hop routing bounds each locale's message count by
  ``(pr - 1) + (pc - 1)`` flush streams regardless of how many of the
  ``p - 1`` peers it addresses;
* the overlap model returns the exposed communication of a
  ``max(compute, comm) + startup`` software pipeline;
* batched fault retries are deterministic, charge time, and raise typed
  errors on exhaustion — never touching payloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import EDISON, FaultInjector, FaultPlan, LocaleGrid, RetryPolicy
from repro.runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    ceil_div,
    exchange,
    exchange_cost,
    flush_cost,
    flush_startup,
    gather_agg,
    gather_agg_ft,
    group_by_owner,
    num_flushes,
    overlap_exposed,
    split_exposed,
)
from repro.runtime.comm import fine_grained, gather_parts_fine
from repro.runtime.faults import RetryExhausted
from repro.runtime.telemetry import registry as tm
from tests.strategies import PROFILE


class TestHelpers:
    def test_ceil_div(self):
        assert ceil_div(0, 5) == 0
        assert ceil_div(1, 5) == 1
        assert ceil_div(5, 5) == 1
        assert ceil_div(6, 5) == 2
        with pytest.raises(ValueError):
            ceil_div(3, 0)

    def test_num_flushes(self):
        assert num_flushes(0, 4096) == 0
        assert num_flushes(1, 4096) == 1
        assert num_flushes(4096, 4096) == 1
        assert num_flushes(4097, 4096) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AggregationConfig(flush_elems=0)
        with pytest.raises(ValueError):
            AggregationConfig(routing="ring")
        assert AGG_DEFAULT.with_(flush_elems=64).flush_elems == 64


class TestGroupByOwner:
    @settings(PROFILE, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_matches_mask_loop(self, n, p, seed):
        """The vectorised group-by must reproduce the per-owner boolean
        scan exactly: same owners, same order within each group."""
        rng = np.random.default_rng(seed)
        owners = rng.integers(0, p, n)
        idx = rng.integers(0, 1000, n)
        vals = rng.random(n)
        uniq, offsets, (idx_s, vals_s) = group_by_owner(owners, idx, vals)
        assert np.array_equal(uniq, np.unique(owners))
        for k, o in enumerate(uniq):
            sel = owners == o
            assert np.array_equal(idx[sel], idx_s[offsets[k] : offsets[k + 1]])
            assert np.array_equal(vals[sel], vals_s[offsets[k] : offsets[k + 1]])

    def test_empty(self):
        uniq, offsets, (a,) = group_by_owner(
            np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert uniq.size == 0 and offsets.tolist() == [0] and a.size == 0


class TestFlushBuffers:
    def test_alpha_per_flush_not_per_element(self):
        agg = AggregationConfig(flush_elems=100)
        one = flush_cost(EDISON, 100, agg=agg)
        two = flush_cost(EDISON, 200, agg=agg)
        # doubling the elements adds exactly one more alpha plus volume —
        # the latency bill grows with flushes, not elements
        assert two == pytest.approx(
            one + EDISON.alpha + 100 * EDISON.stream_cost + 100 * 16 / EDISON.remote_bandwidth
        )

    def test_beats_fine_grained_at_scale(self):
        n = 100_000
        fine = fine_grained(EDISON, n, threads=4, concurrent_peers=4)
        agg = flush_cost(EDISON, n)
        assert agg < fine / 10

    def test_startup_is_first_flush(self):
        agg = AggregationConfig(flush_elems=64)
        s = flush_startup(EDISON, 1000, agg=agg)
        assert s == pytest.approx(EDISON.alpha + 64 * 16 / EDISON.remote_bandwidth)
        # fewer elements than one flush: startup covers just those
        assert flush_startup(EDISON, 10, agg=agg) < s
        assert flush_startup(EDISON, 0, agg=agg) == 0.0

    def test_gather_agg_single_setup(self):
        parts = [500, 700, 900]
        fine = gather_parts_fine(EDISON, parts, threads=4, concurrent_peers=4)
        agg = gather_agg(EDISON, parts)
        # the fine path pays part_setup per part; aggregated gather hoists
        # a single setup for the whole team
        assert agg < fine
        assert agg > EDISON.part_setup  # but it does pay that one setup
        assert gather_agg(EDISON, []) == 0.0
        assert gather_agg(EDISON, [0, 0]) == 0.0


def _two_hop_reference(cfg, grid, counts):
    """Two-hop send seconds and messages, one stream slice at a time."""
    p, pc = grid.size, grid.cols
    send, msgs = np.zeros(p), np.zeros(p, np.int64)
    mid = np.zeros((p, p), np.int64)

    def ship(k, n, dst):
        if n > 0 and k != dst:
            send[k] += flush_cost(cfg, n)
            msgs[k] += num_flushes(n, AGG_DEFAULT.flush_elems)

    for s in range(p):
        for j2 in range(pc):
            dests = np.arange(j2, p, pc)
            ship(s, int(counts[s, dests].sum()), s - s % pc + j2)
            mid[s - s % pc + j2, dests] += counts[s, dests]
    for m in range(p):
        for d in range(m % pc, p, pc):
            ship(m, int(mid[m, d]), d)
    return send, msgs


class TestExchange:
    def test_two_hop_message_bound(self):
        """Each locale sends at most (pc-1)+(pr-1) flush streams however
        dense the traffic matrix."""
        grid = LocaleGrid(3, 4)
        p = grid.size
        counts = np.full((p, p), 10, dtype=np.int64)
        agg = AggregationConfig(flush_elems=1 << 20)  # one flush per stream
        ex = exchange(EDISON, grid, counts, agg=agg)
        bound = (grid.cols - 1) + (grid.rows - 1)
        assert (ex.messages <= bound).all()
        # direct routing sends one stream per remote destination instead
        exd = exchange(EDISON, grid, counts, agg=agg.with_(routing="direct"))
        assert (exd.messages == p - 1).all()
        assert ex.total_messages < exd.total_messages

    def test_empty_traffic_is_free(self):
        grid = LocaleGrid(2, 2)
        ex = exchange(EDISON, grid, np.zeros((4, 4), dtype=np.int64))
        assert ex.send_seconds.sum() == 0.0 and ex.total_messages == 0

    def test_diagonal_traffic_is_free(self):
        grid = LocaleGrid(2, 2)
        counts = np.diag([5, 5, 5, 5]).astype(np.int64)
        ex = exchange(EDISON, grid, counts)
        assert ex.send_seconds.sum() == 0.0

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="counts"):
            exchange(EDISON, LocaleGrid(2, 2), np.zeros((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 8)])
    def test_two_hop_volumes_match_per_stream_reference(self, shape):
        """The leg volumes are reshape-sums of the traffic matrix: bit for
        bit the per-stream slicing loop, on 50 random traffic matrices."""
        grid = LocaleGrid(*shape)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            counts = rng.integers(0, 9000, (16, 16)) * (rng.random((16, 16)) < 0.6)
            ex = exchange_cost(EDISON, grid, counts)
            send, msgs = _two_hop_reference(EDISON, grid, counts)
            assert ex.send_seconds.tolist() == send.tolist()
            assert ex.messages.tolist() == msgs.tolist()
            assert not ex.retry_seconds.any()

    def test_pure_cost_is_the_unmetered_fault_free_exchange(self):
        grid = LocaleGrid(4, 4)
        counts = np.random.default_rng(7).integers(0, 5000, (16, 16))
        registry = tm.MetricsRegistry()
        previous = tm.set_default_registry(registry)
        try:
            pure = exchange_cost(EDISON, grid, counts).send_seconds.tolist()
            assert registry.snapshot() == tm.MetricsRegistry().snapshot()
            metered = exchange(EDISON, grid, counts).send_seconds.tolist()
        finally:
            tm.set_default_registry(previous)
        assert pure == metered
        assert registry.counter("agg.exchange.messages").total() > 0

    def test_faulted_exchange_deterministic(self):
        grid = LocaleGrid(2, 3)
        p = grid.size
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 5000, (p, p)).astype(np.int64)
        plan = FaultPlan(seed=3, transient_rate=0.5, max_burst=3, drop_rate=0.2, dup_rate=0.2)
        policy = RetryPolicy(max_attempts=8, detect_timeout=1e-4, backoff_base=5e-5)

        def run():
            inj = FaultInjector(plan, policy)
            ex = exchange(EDISON, grid, counts, faults=inj, site="t")
            return ex.send_seconds.copy(), ex.retry_seconds.copy(), inj.event_counts()

        s1, r1, e1 = run()
        s2, r2, e2 = run()
        assert np.array_equal(s1, s2) and np.array_equal(r1, r2) and e1 == e2
        assert r1.sum() > 0.0


class TestOverlap:
    @settings(PROFILE, deadline=None)
    @given(
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 1.0),
    )
    def test_exposed_bounds(self, comm, compute, startup):
        e = overlap_exposed(comm, compute, startup)
        assert 0.0 <= e <= comm + 1e-12
        # the pipeline's makespan never beats pure comm or pure compute
        assert compute + e >= min(comm, compute + startup) - 1e-12

    def test_compute_hides_comm(self):
        # comm entirely hidden: only the pipeline-fill startup is exposed
        assert overlap_exposed(1.0, 5.0, 0.25) == pytest.approx(0.25)
        # comm dominates: exposed = comm - compute + startup
        assert overlap_exposed(5.0, 1.0, 0.25) == pytest.approx(4.25)
        assert overlap_exposed(0.0, 1.0, 0.25) == 0.0

    def test_split_exposed_preserves_total(self):
        parts = {"a": 2.0, "b": 6.0}
        out = split_exposed(parts, 5.0, 0.5)
        assert sum(out.values()) == pytest.approx(overlap_exposed(8.0, 5.0, 0.5))
        # component proportions survive the scaling
        assert out["b"] / out["a"] == pytest.approx(3.0)


class TestBatchedFaults:
    def test_quiet_plan_charges_nothing(self):
        inj = FaultInjector(FaultPlan.fault_free())
        base, retry = inj.batched_transfer("s", 10, 1e-4, src=0, dst=1)
        assert base == pytest.approx(10 * 1e-4) and retry == 0.0

    def test_covered_faults_charge_retries_only(self):
        plan = FaultPlan(seed=5, transient_rate=0.6, max_burst=3, drop_rate=0.3, dup_rate=0.3)
        inj = FaultInjector(plan, RetryPolicy(max_attempts=8, backoff_base=1e-4))
        base, retry = inj.batched_transfer("s", 50, 1e-4, src=0, dst=1)
        assert base == pytest.approx(50 * 1e-4)  # goodput unchanged
        assert retry > 0.0
        kinds = set(inj.event_counts())
        assert kinds <= {"transient", "drop", "duplicate"} and kinds

    def test_exhaustion_raises(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, max_burst=5)
        inj = FaultInjector(plan, RetryPolicy(max_attempts=2))
        with pytest.raises(RetryExhausted):
            inj.batched_transfer("s", 3, 1e-4, src=0, dst=1)

    def test_gather_agg_ft_matches_unfaulted_base(self):
        parts, srcs = [900, 1200], [1, 2]
        plan = FaultPlan(seed=9, transient_rate=0.5, max_burst=2, drop_rate=0.3)
        inj = FaultInjector(plan, RetryPolicy(max_attempts=4))
        base, retry = gather_agg_ft(
            EDISON, parts, srcs, faults=inj, site="g", dst=0
        )
        assert base == pytest.approx(gather_agg(EDISON, parts))
        assert retry >= 0.0
        # no injector: identical base, zero retry
        b2, r2 = gather_agg_ft(EDISON, parts, srcs)
        assert b2 == pytest.approx(base) and r2 == 0.0
