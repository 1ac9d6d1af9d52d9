"""The distributed SpMSpV bill: one formula, two consumers.

``ops/spmspv.py`` charges every (gather, scatter, sort) combination of
Listing 8 through one bill over per-locale sparsity statistics, and
``Dispatcher.estimate_vxm_dist`` prices its axes by evaluating that same
bill on predicted statistics.  These tests pin the contract:

* **recorded ledgers** — every forced combination's ledger entry (label,
  component names in order, exact float bits), fault-event counts and
  ``comm.*``/``agg.*``/``faults.*``/``tasks.*`` metric series equal the
  ones recorded in ``data/spmspv_dist_ledgers.json``, taken from the
  kernel before the bill was shared, with and without a covered fault
  plan;
* **one formula** — fed the kernel's *measured* statistics, each axis
  estimate equals the forced kernel's matching component bit for bit;
* **pricing is pure** — it draws no fault and records no metric;
* **decisions** — on every BFS level the dispatcher's choice bills within
  0.5% of the cheapest of the 18 forced combinations.

Regenerate the recording (only ever from a commit whose kernel is the
reference) with ``PYTHONPATH=src python tests/ops/test_spmspv_dist_bill.py``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.algebra.functional import MAX, OFFDIAG
from repro.algebra.semiring import MIN_FIRST, PLUS_TIMES
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.generators import erdos_renyi, random_sparse_vector, rmat
from repro.ops import ewiseadd_mm
from repro.ops.dispatch import Dispatcher
from repro.ops.spmspv import (
    GATHER_STEP,
    MULTIPLY_STEP,
    SCATTER_STEP,
    _fold,
    spmspv_dist,
)
from repro.runtime import CostLedger, FaultInjector, LocaleGrid, Machine
from repro.runtime.aggregation import AGG_DEFAULT
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.runtime.telemetry import registry as tm
from repro.sparse import SparseVector

DATA = Path(__file__).with_name("data") / "spmspv_dist_ledgers.json"

GATHERS = ("fine", "bulk", "agg")
#: scatter transports: the three modes, and the aggregated exchange
#: without comm/compute overlap
SCATTERS = {
    "fine": ("fine", AGG_DEFAULT),
    "bulk": ("bulk", AGG_DEFAULT),
    "agg": ("agg", AGG_DEFAULT),
    "agg-nooverlap": ("agg", AGG_DEFAULT.with_(overlap=False)),
}
SORTS = ("merge", "radix")
MASKS = ("none", "mask", "complement")
FAULTS = ("none", "covered")


def _inputs(p: int):
    grid = LocaleGrid.for_count(p)
    a = rmat(8, 8, seed=1)
    x = random_sparse_vector(a.nrows, nnz=40, seed=2)
    mask = np.random.default_rng(3).random(a.ncols) < 0.5
    return grid, DistSparseMatrix.from_global(a, grid), DistSparseVector.from_global(x, grid), mask


def _machine(grid, faults: str) -> Machine:
    injector = None
    if faults == "covered":
        plan = FaultPlan(
            seed=11, transient_rate=0.3, max_burst=2, drop_rate=0.1, dup_rate=0.1,
            stragglers={1: 1.75},
        )
        injector = FaultInjector(plan, RetryPolicy(max_attempts=4))
    return Machine(grid=grid, threads_per_locale=4, ledger=CostLedger(), faults=injector)


def _configs() -> list[tuple]:
    return [
        (p, gather, scatter, sort, mask, faults)
        for p in (4, 16)
        for gather in GATHERS
        for scatter in SCATTERS
        for sort in SORTS
        for mask in MASKS
        for faults in FAULTS
    ]


def _key(cfg) -> str:
    return "/".join(str(part) for part in cfg)


def _series(registry, prefixes=("comm.", "agg.", "faults.", "tasks.")) -> dict:
    """Every counter series under ``prefixes``, values as exact float bits."""
    return {
        name: [[row["labels"], float(row["value"]).hex()] for row in metric.snapshot()]
        for name, metric in sorted(registry.metrics().items())
        if name.startswith(prefixes)
    }


def _kernel(a, x, m, gather, scatter, sort, mask_kind, mask):
    scatter_mode, agg = SCATTERS[scatter]
    return spmspv_dist(
        a, x, m, gather_mode=gather, scatter_mode=scatter_mode, sort=sort, agg=agg,
        mask=None if mask_kind == "none" else mask, complement=mask_kind == "complement",
    )


def _run(cfg) -> dict:
    p, gather, scatter, sort, mask_kind, faults = cfg
    grid, a, x, mask = _inputs(p)
    m = _machine(grid, faults)
    previous = tm.set_default_registry(tm.MetricsRegistry())
    try:
        _kernel(a, x, m, gather, scatter, sort, mask_kind, mask)
        series = _series(tm.default_registry())
    finally:
        tm.set_default_registry(previous)
    (label, bd), = m.ledger.entries
    return {
        "label": label,
        "components": [[name, float(v).hex()] for name, v in bd.items()],
        "events": {} if m.faults is None else m.faults.event_counts(),
        "series": series,
    }


def record() -> dict:
    """Every configuration's ledger entry, fault-event counts and series."""
    return {_key(cfg): _run(cfg) for cfg in _configs()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DATA.read_text())


def test_recording_covers_every_configuration(recorded):
    assert sorted(recorded) == sorted(_key(cfg) for cfg in _configs())
    # the covered plan really injected every covered fault kind
    kinds = set().union(*(entry["events"] for entry in recorded.values()))
    assert {"transient", "drop", "duplicate"} <= kinds


@pytest.mark.parametrize("cfg", _configs(), ids=_key)
def test_forced_combination_ledger_matches_recording(cfg, recorded):
    assert _run(cfg) == recorded[_key(cfg)]


# ---------------------------------------------------------------------------
# one formula: pricing on measured statistics reproduces every component
# ---------------------------------------------------------------------------

ESTIMATE_KEYS = [
    "gather:fine", "gather:bulk", "gather:agg",
    "scatter:fine", "scatter:bulk", "scatter:agg",
    "sort:merge", "sort:radix",
]


@pytest.mark.parametrize("p", [4, 16, 8])  # 8 locales: the non-square 2×4 grid
@pytest.mark.parametrize("mask_kind", MASKS)
@pytest.mark.parametrize("scatter", ["agg", "agg-nooverlap"])
def test_pricing_on_measured_stats_reproduces_every_forced_component(
    p, mask_kind, scatter, monkeypatch
):
    grid, a, x, mask = _inputs(p)
    agg = SCATTERS[scatter][1]
    mask = None if mask_kind == "none" else mask
    complement = mask_kind == "complement"
    m = _machine(grid, "none")
    _, stats = _fold(a, x, m, PLUS_TIMES, "merge", mask, complement, None)
    # the measured traffic matrix is pooled scratch: keep it past the
    # forced kernels' op entries
    stats = replace(stats, traffic=stats.traffic.copy())
    d = Dispatcher(m)
    monkeypatch.setattr(d, "_vxm_dist_stats", lambda *args, **kw: stats)

    est = d.estimate_vxm_dist(a, x, mask=mask, complement=complement, agg=agg)

    def forced(gather, scatter_mode, sort):
        _, bd = spmspv_dist(
            a, x, _machine(grid, "none"), gather_mode=gather, scatter_mode=scatter_mode,
            sort=sort, agg=agg, mask=mask, complement=complement,
        )
        return bd

    assert list(est) == ESTIMATE_KEYS
    for sort in SORTS:
        assert est[f"sort:{sort}"] == forced("fine", "fine", sort)[MULTIPLY_STEP], sort
    cheaper = min(SORTS, key=lambda sort: est[f"sort:{sort}"])
    for mode in GATHERS:
        assert est[f"gather:{mode}"] == forced(mode, "fine", cheaper)[GATHER_STEP], mode
        assert est[f"scatter:{mode}"] == forced("fine", mode, cheaper)[SCATTER_STEP], mode


# ---------------------------------------------------------------------------
# pricing is pure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mask_kind", MASKS)
def test_pricing_draws_no_fault_and_records_no_metric(mask_kind):
    grid, a, x, mask = _inputs(16)
    mask = None if mask_kind == "none" else mask
    complement = mask_kind == "complement"
    faulty = _machine(grid, "covered")
    faulty.faults.check_grid(grid, "warm-up")  # a live superstep to preserve
    superstep = faulty.faults.superstep
    events = list(faulty.faults.events)
    registry = tm.MetricsRegistry()
    previous = tm.set_default_registry(registry)
    try:
        est = Dispatcher(faulty).estimate_vxm_dist(a, x, mask=mask, complement=complement)
    finally:
        tm.set_default_registry(previous)
    assert registry.snapshot() == tm.MetricsRegistry().snapshot()
    assert faulty.faults.events == events
    assert faulty.faults.superstep == superstep
    assert not faulty.ledger.entries
    clean = Dispatcher(_machine(grid, "none"))
    assert est == clean.estimate_vxm_dist(a, x, mask=mask, complement=complement)


# ---------------------------------------------------------------------------
# decisions: every BFS level picks a combination the kernel bills cheapest
# ---------------------------------------------------------------------------


def _graph(name: str):
    if name == "er":
        return erdos_renyi(20_000, 8, seed=1)
    a = rmat(14, 8, seed=5)
    return ewiseadd_mm(a, a.transposed(), MAX).select(OFFDIAG)


@pytest.mark.parametrize("name, p", [("er", 4), ("er", 16), ("rmat", 16)])
def test_every_bfs_level_picks_within_half_a_percent_of_the_cheapest(name, p):
    a = _graph(name)
    grid = LocaleGrid.for_count(p)
    ad = DistSparseMatrix.from_global(a, grid)
    n = a.nrows
    combos = [(g, s, so) for g in GATHERS for s in GATHERS for so in SORTS]
    for source in (0, 7, 1234):
        levels = np.full(n, -1, dtype=np.int64)
        levels[source] = 0
        x = DistSparseVector.from_global(SparseVector(n, [source], [float(source)]), grid)
        level = 0
        while x.nnz:
            level += 1
            mask = levels < 0
            forced = []
            for g, s, so in combos:
                machine = Machine(grid=grid, threads_per_locale=24, ledger=CostLedger())
                _, bd = spmspv_dist(
                    ad, x, machine, semiring=MIN_FIRST, gather_mode=g, scatter_mode=s,
                    sort=so, mask=mask,
                )
                forced.append(bd.total)
            machine = Machine(grid=grid, threads_per_locale=24, ledger=CostLedger())
            d = Dispatcher(machine)
            y, bd = d.vxm_dist(ad, x, semiring=MIN_FIRST, mask=mask)
            assert bd.total <= 1.005 * min(forced), (source, level, d.decisions[-1].chosen)
            for k, blk in enumerate(y.blocks):
                levels[int(y.dist.bounds[k]) + blk.indices] = level
            x = y


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(record().items())]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
