"""Ablation — the simulator fast path's wall-clock before/after.

The fast-path switch (:mod:`repro.runtime.fastpath`) gates every
wall-clock optimisation of the simulator itself: vectorized kernels,
dispatcher plan caching, exchange buffer pooling.  This ablation runs the
three distributed workloads (level-synchronous BFS, masked-SpGEMM
triangle counting, PageRank) with the switch off ("before": the retained
pure-reference paths) and on ("after"), interleaved in one process with
warmup and min-of-k per mode (see ``repro.bench.ablations._wall_row`` for
why that is the honest estimator), and pins three claims:

1. **identity** — results and simulated-seconds totals are bit-identical
   in both modes: the fast path buys wall time only;
2. **speedup** — BFS, the SpMSpV-bound iteration-heavy workload the
   optimisation campaign targeted, stays ≥ ``WALL_BFS_SPEEDUP_FLOOR``
   (4×) faster live; the checked-in baseline records ~5×.  The floor is
   deliberately below the recorded ratio: wall time on a shared host
   drifts tens of percent between runs even min-of-k interleaved;
3. **gating** — the persisted ``BENCH_wall.json`` opts into the
   regression gate's loose (1.5×) wall tolerance via ``gate_wall``, so a
   fast path that silently stops being fast fails ``make bench-gate``.

The sweep lives in :mod:`repro.bench.ablations` (``run_wall``) so the
perf-regression gate re-runs the identical measurement.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import (
    WALL_BFS_SPEEDUP_FLOOR,
    WALL_WORKLOADS,
    run_wall,
)
from repro.bench.schema import dump_bench, simulated_metrics, wall_metrics

from _common import RESULTS_DIR


@pytest.fixture(scope="module")
def payload():
    return run_wall()


def test_covers_all_wall_workloads(payload):
    assert set(payload["results"]) == {f"{w}/dist" for w in WALL_WORKLOADS}


def test_fastpath_changes_wall_time_only(payload):
    """The headline invariant: bit-identical results and simulated totals
    with the switch off and on — the fast path is unobservable except by
    the clock on the wall."""
    for key, row in payload["results"].items():
        assert row["simulated_equal"], key
        assert row["results_equal"], key


def test_bfs_wall_speedup(payload):
    row = payload["results"]["bfs/dist"]
    assert row["speedup"] >= WALL_BFS_SPEEDUP_FLOOR, row


def test_every_workload_not_slower(payload):
    """No workload may *lose* wall time to the fast path (beyond noise)."""
    for key, row in payload["results"].items():
        assert row["speedup"] >= 0.9, (key, row)


def test_payload_gates_both_metric_kinds(payload):
    """The payload must expose simulated leaves (tight gate) and wall
    leaves (loose gate, requested via gate_wall) — the schema contract
    the regression gate consumes."""
    assert payload["gate_wall"] is True
    sim = simulated_metrics(payload)
    wall = wall_metrics(payload)
    assert {f"{w}/dist/simulated_s" for w in WALL_WORKLOADS} <= set(sim)
    for w in WALL_WORKLOADS:
        assert f"{w}/dist/wall_before_s" in wall
        assert f"{w}/dist/wall_after_s" in wall


def test_write_bench_json(payload):
    out = dump_bench(payload, RESULTS_DIR / "BENCH_wall.json")
    assert out.exists()
    print(f"\nwrote {out}")
