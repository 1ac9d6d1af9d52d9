"""Ablation — streaming ingest: incremental repair vs full recomputation.

The streaming engine's headline claim: repairing an algorithm result
after a small delta batch is much cheaper than recomputing it from
scratch, and the advantage shrinks as batches grow (a big enough batch
is a new graph).  The sweep lives in :mod:`repro.bench.ablations`
(``run_streaming``) so the perf-regression gate re-runs the identical
measurement against the checked-in baseline; this file adds the
qualitative assertions, the figure, and persists the trajectory to
``benchmarks/results/BENCH_streaming.json`` through the versioned
schema.
"""

import numpy as np
import pytest

from repro.bench.ablations import (
    STREAM_BATCH_SIZES,
    run_streaming,
    streaming_workloads,
)
from repro.bench.harness import Series
from repro.bench.schema import dump_bench
from repro.streaming import UpdateBatch, apply_batch_csr

from _common import RESULTS_DIR, emit


@pytest.fixture(scope="module")
def payload():
    """One full sweep, shared by every assertion and the JSON writer —
    the exact payload the regression gate re-runs."""
    return run_streaming()


def test_incremental_exact_everywhere(payload):
    """Every repaired BFS matched the from-scratch recomputation
    bit-for-bit — the speedup is never bought with staleness."""
    for where, row in payload["results"]["ingest"].items():
        assert row["exact"], where


def test_incremental_beats_full_on_small_batches(payload):
    """The acceptance claim: on the smallest batch size, incremental
    repair is strictly cheaper than full recomputation on both
    workloads."""
    b = min(STREAM_BATCH_SIZES)
    for name in ("er", "rmat"):
        row = payload["results"]["ingest"][f"{name}/b{b}"]
        assert row["incremental_s"] < row["full_s"], row
        assert row["speedup"] is None or row["speedup"] > 1.0


def test_advantage_shrinks_with_batch_size(payload):
    """Bigger batches dirty more of the graph: the incremental cost is
    monotonically nondecreasing in batch size on each workload."""
    for name in ("er", "rmat"):
        incs = [
            payload["results"]["ingest"][f"{name}/b{b}"]["incremental_s"]
            for b in STREAM_BATCH_SIZES
        ]
        assert incs == sorted(incs), (name, incs)


def test_apply_cost_scales_with_batch(payload):
    """Ingest itself is billed: applying more edges costs more simulated
    time, and every row paid something."""
    for name in ("er", "rmat"):
        applies = [
            payload["results"]["ingest"][f"{name}/b{b}"]["apply_s"]
            for b in STREAM_BATCH_SIZES
        ]
        assert all(a > 0.0 for a in applies)
        assert applies == sorted(applies)


def test_dist_ingest_follows_the_delta(payload):
    """Distributed ingest moves the delta, not the matrix: the same
    batches on four locales bill at most twice the shared-memory ingest
    on every row (writing the whole matrix back would bill over 20×)."""
    for where, row in payload["results"]["ingest"].items():
        assert row["dist_apply_s"] <= 2.0 * row["apply_s"], (where, row)


def test_streaming_figure(payload):
    """One figure: incremental vs full simulated seconds over batch size,
    per workload."""
    ingest = payload["results"]["ingest"]
    series = []
    for name in ("er", "rmat"):
        for metric in ("incremental_s", "full_s"):
            series.append(
                Series(
                    f"{name}:{metric[:-2]}",
                    list(STREAM_BATCH_SIZES),
                    [ingest[f"{name}/b{b}"][metric] for b in STREAM_BATCH_SIZES],
                )
            )
    emit(
        "abl_streaming",
        "Ablation: incremental repair vs full recompute over batch size",
        "batch edges",
        series,
    )


def test_write_bench_json(payload, benchmark):
    """Persist the perf trajectory (runs after the payload-consuming
    tests) and track the real delta-merge kernel under pytest-benchmark."""
    out = dump_bench(payload, RESULTS_DIR / "BENCH_streaming.json")
    assert out.exists()
    print(f"\nwrote {out}")
    a = streaming_workloads()["er"]
    rng = np.random.default_rng(7)
    batch = UpdateBatch.from_edges(
        a.nrows,
        a.ncols,
        inserts=(
            rng.integers(0, a.nrows, 256),
            rng.integers(0, a.ncols, 256),
            rng.uniform(0.5, 2.0, 256),
        ),
        deletes=(rng.integers(0, a.nrows, 64), rng.integers(0, a.ncols, 64)),
    )
    benchmark(lambda: apply_batch_csr(a, batch))
