"""Harness tests for the end-to-end benchmark, on tiny inputs.

Run with ``python -m pytest benchmarks/e2e/test_e2e.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import compare
import run  # puts the repository's src/ on sys.path
import repro
from tracer import Tracer
from workloads import WORKLOADS, Episode

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY = {
    "bfs": {"n": 2_000, "degree": 4, "p": 4, "threads": 24, "sim_ops": 3, "checked_ops": 2},
    "pagerank": {"n": 1_000, "degree": 8, "p": 4, "threads": 24, "sim_ops": 2,
                 "tol": 1e-8, "max_l1": 1e-6},
    "triangle": {"scale": 7, "edge_factor": 8, "p": 4, "threads": 24, "sim_ops": 2},
    "serve": {"scale": 7, "edge_factor": 8, "p": 4, "threads": 2, "sim_ops": 2,
              "tenants": 2, "queries": 40, "rate": 300.0, "ladder": (150.0, 300.0),
              "bfs_share": 0.8, "zipf": 1.2, "update_every": 10, "update_inserts": 6,
              "update_deletes": 2, "warmup_queries": 5, "latency_limit_s": 0.05,
              "backlog_limit_s": 0.1},
}


def tiny(name: str, seed: int = 1):
    wl = WORKLOADS[name](seed, TINY[name])
    wl.setup()
    return wl


def metrics(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(name, trace):
    _, result, lines, _ = run.run_workload(name, 1, 0.01, trace, TINY[name])
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v > 0 for v in metrics(result).values())
    else:
        (line,) = [line for line in lines if line.startswith("unreconciled_frac")]
        assert float(line.split()[1]) <= 0.01


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_simulated_metrics(name):
    first = metrics(run.run_workload(name, 3, 0.01, 0, TINY[name])[1])
    again = metrics(run.run_workload(name, 3, 0.01, 0, TINY[name])[1])
    assert {k: first[k] for k in compare.EXACT} == {k: again[k] for k in compare.EXACT}


@pytest.mark.parametrize("name", ["bfs", "pagerank", "triangle"])
def test_different_seed_gives_different_inputs(name):
    a, b = WORKLOADS[name](1, TINY[name]).graph(), WORKLOADS[name](2, TINY[name]).graph()
    assert not (np.array_equal(a.rowptr, b.rowptr) and np.array_equal(a.colidx, b.colidx))


def test_different_seed_gives_different_traffic():
    a, b = tiny("serve", 1), tiny("serve", 2)
    ea, eb = a.episode((0, 0), 300.0, 40), b.episode((0, 0), 300.0, 40)
    assert not np.array_equal(ea.due, eb.due)
    assert not np.array_equal(ea.sources, eb.sources)


CORRUPT = {
    "bfs": lambda levels: np.where(np.arange(levels.size) == np.argmax(levels), levels + 1, levels),
    "pagerank": lambda rank: rank + np.where(np.arange(rank.size) == 0, 1e-3, 0.0),
    "triangle": lambda count: count + 1,
}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_oracle_catches_corrupted_output(name):
    wl = tiny(name)
    out = wl.prepare(0)()
    assert wl.finish(0, out).wrong == 0
    out = wl.prepare(1)()
    assert wl.finish(1, CORRUPT[name](out)).wrong == 1


def test_oracle_catches_corrupted_service_answer():
    wl = tiny("serve")
    wl.prepare(0)()
    svc_reqs = wl._current[3]
    victim = next(r for r in svc_reqs if r.status == "done" and r.query.algo == "bfs")
    victim.result = victim.result.copy()
    victim.result[victim.result >= 0] += 1
    assert wl.finish(0, None).wrong == 1


def test_late_arrival_latency_includes_lateness():
    wl = tiny("serve")
    # the second query is due while the first one's run still occupies the
    # service, so it is admitted late; its latency counts from the due time
    n = wl.n
    ep = Episode(
        rate=300.0, due=np.array([1e-6, 1e-4]), sources=np.array([0, n - 1]),
        algos=np.array(["bfs", "sssp"]), tenants=np.array([0, 1]), updates=[],
    )
    wl.start(ep)()
    reqs = wl._current[3]
    record = wl.finish(0, None)
    late = reqs[1]
    assert late.arrival > ep.due[1]  # the service rewrote the arrival time
    assert record.latencies[1] == late.finish - ep.due[1]
    assert record.latencies[1] > late.finish - late.arrival
    assert record.extra["arrival_lag"][1] == late.arrival - ep.due[1]
    assert record.wrong == 0


def test_serve_epochs_follow_the_ledger():
    wl = tiny("serve")
    wl.prepare(0)()
    ep, backend, svc, reqs = wl._current
    assert len(ep.updates) >= 2
    record = wl.finish(0, None)
    assert record.wrong == 0 and record.answers == len(reqs)
    assert record.extra["apply_s"] > 0.0


def test_tracer_rebinds_import_sites_and_restores():
    from repro.service import queries, service

    originals = (queries.run_batch, service.run_batch, repro.bfs_levels,
                 repro.runtime.clock.CostLedger.__dict__["record"])
    assert service.run_batch is queries.run_batch
    tracer = Tracer().install()
    try:
        assert service.run_batch is queries.run_batch is not originals[0]
        assert repro.bfs_levels is repro.algorithms.bfs.bfs_levels is not originals[2]
        assert repro.runtime.clock.CostLedger.__dict__["record"] is not originals[3]
    finally:
        tracer.uninstall()
    assert (queries.run_batch, service.run_batch, repro.bfs_levels,
            repro.runtime.clock.CostLedger.__dict__["record"]) == originals


def test_tracer_self_times_add_up_to_the_root():
    wl = tiny("bfs")
    tracer = Tracer().install()
    try:
        with tracer.root():
            wl.prepare(0)()
    finally:
        tracer.uninstall()
    assert tracer.calls["algorithms"] == 1 and tracer.calls["ops.spmspv"] > 0
    assert tracer.unreconciled() < 1e-9
    ids = {span[5] for span in tracer.spans}
    assert all(span[6] in ids for span in tracer.spans if span[6])


def test_compare_judges_exact_metrics_per_seed_pair():
    # sim_s differs 5% between the seeds, more than a uniform 4% regression
    a = {1: 1.00, 2: 1.05, 3: 0.98, 4: 1.02, 5: 1.01}
    worse = {s: v * 1.04 for s, v in a.items()}
    assert compare.verdict(compare.changes(a, a), "lower", 0.05, exact=True) == "within bound"
    assert compare.verdict(compare.changes(a, worse), "lower", 0.05, exact=True) == "worse"
    one_seed = {**a, 3: a[3] * (1 + 1e-6)}
    assert compare.verdict(compare.changes(a, one_seed), "lower", 0.05, exact=True) == "worse"
    better = {s: v * 0.99 for s, v in a.items()}
    assert compare.verdict(compare.changes(a, better), "lower", 0.05, exact=True) == "improved"


def test_compare_pairs_wall_metrics_by_seed():
    # the seeds differ by far more than the bound; the pairs by 1% noise
    a = {s: 0.05 * s for s in range(1, 11)}
    noise = [1.01, 0.99, 1.0, 1.01, 0.99, 1.0, 1.01, 0.99, 1.0, 1.005]
    same = {s: a[s] * noise[s - 1] for s in a}
    assert compare.verdict(compare.changes(a, same), "lower", 0.1, exact=False) == "within bound"
    slower = {s: v * 1.2 for s, v in same.items()}
    assert compare.verdict(compare.changes(a, slower), "lower", 0.1, exact=False) == "worse"
    faster = {s: v * 0.8 for s, v in same.items()}
    assert compare.verdict(compare.changes(a, faster), "lower", 0.1, exact=False) == "improved"
    jumpy = {s: a[s] * (1.5 if s % 2 else 0.6) for s in a}
    assert compare.verdict(compare.changes(a, jumpy), "lower", 0.1, exact=False) == "unresolved"
