"""The distributed SpGEMM bill: one formula, two consumers.

``ops/mxm_dist.py`` charges every SUMMA schedule (2-D, or 3-D×c; bulk or
aggregated transport) through one bill over per-(stage, locale) sparsity
statistics, and ``Dispatcher.estimate_mxm_dist`` prices its candidates by
evaluating that same bill on predicted statistics.  These tests pin the
contract:

* **recorded ledgers** — every forced schedule's ledger entry (label,
  component names in order, exact float bits), fault-event counts and
  ``comm.*``/``faults.*`` metric series equal the ones recorded in
  ``data/mxm_dist_ledgers.json``, taken from the kernels before the bill
  was shared, with and without a covered fault plan;
* **one formula** — fed the kernel's *measured* statistics, the
  dispatcher's pricing reproduces every forced candidate's ledger total
  bit for bit, ``gathered`` included;
* **pricing is pure** — it draws no fault and records no metric;
* **compute telemetry** — ``tasks.compute.seconds`` grows by the
  multiply+merge seconds the locales actually ran.

Regenerate the recording (only ever from a commit whose kernels are the
reference) with ``PYTHONPATH=src python tests/ops/test_mxm_dist_bill.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algebra.semiring import PLUS_TIMES
from repro.distributed import DistSparseMatrix
from repro.generators import erdos_renyi, rmat
from repro.ops.dispatch import Dispatcher
from repro.ops.matrix_dist import mxm_gathered
from repro.ops.mxm import flops, mxm
from repro.ops.mxm_dist import _fold, mxm_dist, replication_factors
from repro.runtime import CostLedger, FaultInjector, LocaleGrid, Machine
from repro.runtime.aggregation import AGG_DEFAULT
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.runtime.tasks import parallel_time
from repro.runtime.telemetry import registry as tm
from repro.sparse.csr import CSRMatrix

DATA = Path(__file__).with_name("data") / "mxm_dist_ledgers.json"

#: transports: bulk, and the aggregated exchange with and without overlap
TRANSPORTS = {
    "bulk": ("bulk", AGG_DEFAULT),
    "agg": ("agg", AGG_DEFAULT),
    "agg-nooverlap": ("agg", AGG_DEFAULT.with_(overlap=False)),
}
MASKS = ("none", "fused", "post")
FAULTS = ("none", "covered")


def _inputs(p: int):
    grid = LocaleGrid.for_count(p)
    a = rmat(6, 8, seed=1)
    b = rmat(6, 8, seed=2)
    mask = erdos_renyi(64, 12, seed=3)
    return grid, *(DistSparseMatrix.from_global(m, grid) for m in (a, b, mask))


def _machine(grid, faults: str) -> Machine:
    injector = None
    if faults == "covered":
        plan = FaultPlan(seed=11, transient_rate=0.3, max_burst=2, stragglers={1: 1.75})
        injector = FaultInjector(plan, RetryPolicy(max_attempts=4))
    return Machine(grid=grid, threads_per_locale=4, ledger=CostLedger(), faults=injector)


def _configs() -> list[tuple[int, str, str, str, str]]:
    out = []
    for p in (4, 16):
        q = LocaleGrid.for_count(p).rows
        schedules = ["2d"] + [f"3d[c={c}]" for c in replication_factors(q)]
        for schedule in schedules:
            for transport in TRANSPORTS:
                for mask in MASKS:
                    for faults in FAULTS:
                        out.append((p, schedule, transport, mask, faults))
    return out


def _key(cfg) -> str:
    return "/".join(str(part) for part in cfg)


def _series(registry, prefixes=("comm.", "faults.")) -> dict:
    """Every counter series under ``prefixes``, values as exact float bits."""
    return {
        name: [[row["labels"], float(row["value"]).hex()] for row in metric.snapshot()]
        for name, metric in sorted(registry.metrics().items())
        if name.startswith(prefixes)
    }


def _run(cfg) -> dict:
    p, schedule, transport, mask_kind, faults = cfg
    grid, a, b, mask = _inputs(p)
    m = _machine(grid, faults)
    comm_mode, agg = TRANSPORTS[transport]
    variant, layers = ("2d", 1) if schedule == "2d" else ("3d", int(schedule[5:-1]))
    previous = tm.set_default_registry(tm.MetricsRegistry())
    try:
        mxm_dist(
            a, b, m,
            comm_mode=comm_mode, agg=agg, variant=variant, layers=layers,
            mask=None if mask_kind == "none" else mask,
            mask_mode="fused" if mask_kind == "none" else mask_kind,
        )
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
    """Every configuration's ledger entry and fault-event counts."""
    return {_key(cfg): _run(cfg) for cfg in _configs()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DATA.read_text())


def test_recording_covers_every_configuration(recorded):
    assert sorted(recorded) == sorted(_key(cfg) for cfg in _configs())
    # the covered plan really injected faults into the recorded runs
    assert any(entry["events"] for entry in recorded.values())


@pytest.mark.parametrize("cfg", _configs(), ids=_key)
def test_forced_schedule_ledger_matches_recording(cfg, recorded):
    assert _run(cfg) == recorded[_key(cfg)]


# ---------------------------------------------------------------------------
# one formula: pricing on measured statistics reproduces every ledger
# ---------------------------------------------------------------------------


def _forced_total(name, p, mask_kind, agg) -> float:
    """Ledger total of the kernel that candidate ``name`` runs."""
    grid, a, b, mask = _inputs(p)
    m = Machine(grid=grid, threads_per_locale=4, ledger=CostLedger())
    mask = None if mask_kind == "none" else mask
    if name == "gathered":
        mxm_gathered(a, b, m, mask=mask)
    else:
        schedule, mode = name[:-1].rsplit("[", 1)
        layers = 1 if schedule == "2d" else int(schedule[5:-1])
        mxm_dist(
            a, b, m, comm_mode=mode, agg=agg, mask=mask,
            mask_mode="fused" if mask_kind == "none" else mask_kind,
            variant=schedule[:2], layers=layers,
        )
    (_, bd), = m.ledger.entries
    return bd.total


@pytest.mark.parametrize("p", [4, 16, 8])  # 8 locales: the non-square 2×4 grid
@pytest.mark.parametrize("mask_kind", MASKS)
@pytest.mark.parametrize("transport", ["agg", "agg-nooverlap"])
def test_pricing_on_measured_stats_reproduces_every_forced_ledger(
    p, mask_kind, transport, monkeypatch
):
    grid, a, b, mask = _inputs(p)
    agg = TRANSPORTS[transport][1]
    mask = None if mask_kind == "none" else mask
    mask_mode = "fused" if mask_kind == "none" else mask_kind
    ga, gb = a.gather(), b.gather()
    product = mxm(ga, gb, mask=None if mask is None else mask.gather())
    gathered = (ga.nnz, gb.nnz, ga.nnz * (gb.nnz / gb.nrows), product.nnz)
    summa = None
    if grid.rows == grid.cols:
        _, summa = _fold(a, b, PLUS_TIMES, mask, False, mask_mode)
    d = Dispatcher(Machine(grid=grid, threads_per_locale=4, ledger=CostLedger()))
    monkeypatch.setattr(d, "_mxm_dist_stats", lambda *args, **kw: (gathered, summa))

    est = d.estimate_mxm_dist(a, b, mask=mask, fused=mask_kind == "fused", agg=agg)

    q = grid.rows
    expected = ["gathered"]
    if grid.rows == grid.cols:
        for name in ["2d"] + [f"3d[c={c}]" for c in replication_factors(q)]:
            expected += [f"{name}[bulk]", f"{name}[agg]"]
    assert list(est) == expected
    for name, value in est.items():
        assert value == _forced_total(name, p, mask_kind, agg), name


def test_predicted_flops_and_block_nnz_are_exact():
    grid, a, b, mask = _inputs(16)
    _, measured = _fold(a, b, PLUS_TIMES, mask, False, "fused")
    d = Dispatcher(Machine(grid=grid, ledger=CostLedger()))
    _, predicted = d._mxm_dist_stats(a, b, mask=mask, fused=True)
    assert predicted.a_nnz == measured.a_nnz
    assert predicted.b_nnz == measured.b_nnz
    assert predicted.flops == measured.flops


def _explicit_complement(mask: DistSparseMatrix) -> DistSparseMatrix:
    g = mask.gather()
    open_cells = np.ones(g.shape, dtype=bool)
    open_cells[g.row_indices(), g.colidx] = False
    rows, cols = np.nonzero(open_cells)
    return DistSparseMatrix.from_global(
        CSRMatrix.from_triples(*g.shape, rows, cols, np.ones(rows.size)), mask.grid
    )


@pytest.mark.parametrize("p", (2, 4, 16))
@pytest.mark.parametrize("fused", (True, False))
def test_complemented_mask_priced_as_its_explicit_complement(p, fused):
    """A complemented mask admits the cells it leaves open, so every
    candidate costs what the same region given as an explicit mask does."""
    grid, a, b, mask = _inputs(p)
    d = Dispatcher(Machine(grid=grid, threads_per_locale=4, ledger=CostLedger()))
    est = d.estimate_mxm_dist(a, b, mask=mask, complement=True, fused=fused)
    assert est == d.estimate_mxm_dist(a, b, mask=_explicit_complement(mask), fused=fused)


def test_plan_key_tells_a_complemented_mask_apart():
    grid, a, b, mask = _inputs(16)
    d = Dispatcher(Machine(grid=grid, threads_per_locale=4, ledger=CostLedger()))
    d.mxm_dist(a, b, mask=mask)
    d.mxm_dist(a, b, mask=mask, complement=True)
    plain, complemented = d.decisions
    assert complemented.estimates == d.estimate_mxm_dist(a, b, mask=mask, complement=True)
    assert complemented.estimates != plain.estimates


# ---------------------------------------------------------------------------
# pricing is pure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mask_kind", MASKS)
def test_pricing_draws_no_fault_and_records_no_metric(mask_kind):
    grid, a, b, mask = _inputs(16)
    mask = None if mask_kind == "none" else mask
    faulty = _machine(grid, "covered")
    faulty.faults.check_grid(grid, "warm-up")  # a live superstep to preserve
    superstep = faulty.faults.superstep
    events = list(faulty.faults.events)
    registry = tm.MetricsRegistry()
    previous = tm.set_default_registry(registry)
    try:
        est = Dispatcher(faulty).estimate_mxm_dist(a, b, mask=mask, fused=mask_kind == "fused")
    finally:
        tm.set_default_registry(previous)
    assert registry.snapshot() == tm.MetricsRegistry().snapshot()
    assert faulty.faults.events == events
    assert faulty.faults.superstep == superstep
    assert not faulty.ledger.entries
    clean = Dispatcher(_machine(grid, "none"))
    assert est == clean.estimate_mxm_dist(a, b, mask=mask, fused=mask_kind == "fused")


# ---------------------------------------------------------------------------
# compute telemetry
# ---------------------------------------------------------------------------


def test_compute_counter_grows_by_the_compute_the_locales_ran():
    """``tasks.compute.seconds`` gains each working locale's multiply +
    merge seconds: every (stage, locale) in 2-D; on a 2×2 grid with
    ``c=4`` only layer 0 of the one coarse cell works, on everything."""
    grid, a, b, _ = _inputs(4)
    m = Machine(grid=grid, threads_per_locale=4, ledger=CostLedger())
    cfg = m.config

    def seconds(entries):
        return parallel_time(cfg, entries * cfg.element_cost, m.threads_per_locale)

    pairs = [
        (a.block(loc.row, s), b.block(s, loc.col)) for s in range(grid.rows) for loc in grid
    ]
    work = [(flops(x, y), mxm(x, y).nnz) for x, y in pairs]
    expected_2d = sum(seconds(f) + seconds(n) for f, n in work)
    expected_3d = seconds(sum(f for f, _ in work)) + seconds(sum(n for _, n in work))
    registry = tm.MetricsRegistry()
    previous = tm.set_default_registry(registry)
    try:
        counter = registry.counter("tasks.compute.seconds")
        mxm_dist(a, b, m)
        after_2d = counter.total()
        mxm_dist(a, b, m, variant="3d", layers=4)
        after_3d = counter.total()
    finally:
        tm.set_default_registry(previous)
    assert after_2d == pytest.approx(expected_2d, rel=1e-12)
    assert after_3d - after_2d == pytest.approx(expected_3d, rel=1e-12)


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(record().items())]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
