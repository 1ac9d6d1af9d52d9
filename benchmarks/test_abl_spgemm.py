"""Ablation — distributed SpGEMM schedules (2-D vs 3-D×c SUMMA vs gathered).

The communication-avoiding extension's headline numbers: the replicated
3-D×c schedules against the classic 2-D sparse SUMMA and the gathered
fallback, across two Erdős–Rényi densities and one skewed R-MAT input;
plus the mask-fusion column (fused per-stage pruning vs a post-hoc
filter) on the triangle-counting product L·Lᵀ⟨L⟩.

The sweep lives in :mod:`repro.bench.ablations` (``run_spgemm``) so the
perf-regression gate can re-run the identical measurement against the
checked-in baseline; this file adds the qualitative assertions, the
figure emission, the local ESC-vs-Gustavson numeric cross-check, and
persists the trajectory to ``benchmarks/results/BENCH_spgemm.json``
through the versioned schema.
"""

import numpy as np
import pytest

from repro.bench.ablations import (
    SPGEMM_AUTO_BOUND,
    SPGEMM_NODE_SWEEP,
    run_spgemm,
    spgemm_variants,
)
from repro.bench.harness import Series
from repro.bench.schema import dump_bench
from repro.generators import erdos_renyi
from repro.ops import flops, mxm, mxm_gustavson

from _common import RESULTS_DIR, emit


@pytest.fixture(scope="module")
def payload():
    """One full sweep, shared by every assertion and the JSON writer —
    the exact payload the regression gate re-runs."""
    return run_spgemm()


def test_local_algorithms_agree():
    """ESC and Gustavson produce the same product (the schedule sweep
    rides on whichever the local dispatch picks)."""
    sa, sb = erdos_renyi(800, 8, seed=33), erdos_renyi(800, 8, seed=34)
    assert np.allclose(mxm(sa, sb).to_dense(), mxm_gustavson(sa, sb).to_dense())
    assert flops(sa, sb) >= mxm(sa, sb).nnz  # compression >= 1 by definition


def test_schedule_sweep_figures(payload):
    """Emit one figure per workload: simulated time per schedule over the
    square-grid sweep."""
    sched = payload["results"]["schedules"]
    for name in payload["configs"]:
        rows = {p: sched.get(f"{name}/p{p}") for p in SPGEMM_NODE_SWEEP}
        if any(r is None for r in rows.values()):
            continue  # triangle: mask sweep only
        # only schedules legal on every swept grid share the x-axis
        # (c=16 needs q=4, so it appears at p=16 only — see the JSON)
        labels = sorted(set.intersection(*(set(r) for r in rows.values())))
        series = [
            Series(
                label,
                list(SPGEMM_NODE_SWEEP),
                [rows[p][label]["simulated_s"] for p in SPGEMM_NODE_SWEEP],
            )
            for label in labels
        ]
        emit(
            f"abl_spgemm_{name}",
            f"Ablation ({name}): distributed SpGEMM schedules",
            "nodes",
            series,
        )


def test_3d_beats_2d_somewhere(payload):
    """The communication-avoiding claim: some 3-D×c schedule beats every
    2-D schedule in at least one (workload, grid) regime."""
    wins = payload["threed_wins"]
    assert wins, "no regime where a 3-D schedule beat 2-D"
    # and the win is where replication should pay: the largest grid
    assert any(f"/p{max(SPGEMM_NODE_SWEEP)}" in w for w in wins)


def test_auto_within_bound_of_best_fixed(payload):
    """Auto dispatch lands within the bound of the best fixed schedule in
    its candidate pool on every row of the sweep."""
    for where, ratio in payload["auto_vs_best_ratio"].items():
        assert ratio <= SPGEMM_AUTO_BOUND, (
            f"auto {ratio:.3f}x worse than best fixed at {where}"
        )


def test_nonsquare_grid_takes_gathered(payload):
    """On the non-square grid the gathered fallback is the only legal
    schedule and auto selects it."""
    rows_, cols_ = payload["configs"]["nonsquare_grid"]
    row = payload["results"]["schedules"][f"er_sparse/grid{rows_}x{cols_}"]
    assert row["auto"]["chosen"] == "gathered"


def test_mask_fusion_strictly_cheaper(payload):
    """Fused per-stage pruning beats the post-hoc filter on the masked
    triangle-style product for every schedule, on both the uniform and
    the skewed input."""
    for name, row in payload["results"]["masked"].items():
        for label, cell in row.items():
            assert cell["fused_simulated_s"] < cell["post_simulated_s"], (
                f"fusion not cheaper at {name}/{label}"
            )


def test_variant_labels_cover_grid(payload):
    """The sweep priced every candidate the dispatcher can legally run on
    the largest grid (q=4: both c=4 and c=16)."""
    q = int(max(SPGEMM_NODE_SWEEP) ** 0.5)
    row = payload["results"]["schedules"][f"er_dense/p{max(SPGEMM_NODE_SWEEP)}"]
    for label in spgemm_variants(q):
        assert label in row, f"unpriced candidate {label}"


def test_write_bench_json(payload, benchmark):
    """Persist the perf trajectory (runs after the payload-consuming
    tests) and track one real local kernel under pytest-benchmark."""
    out = dump_bench(payload, RESULTS_DIR / "BENCH_spgemm.json")
    assert out.exists()
    print(f"\nwrote {out}")
    sa, sb = erdos_renyi(800, 8, seed=33), erdos_renyi(800, 8, seed=34)
    benchmark(lambda: mxm(sa, sb))
