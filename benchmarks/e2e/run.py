"""End-to-end benchmark: BFS, PageRank, triangle counting and a query service.

One workload, untraced (the end-to-end metrics)::

    python3 benchmarks/e2e/run.py --workload bfs --seed 1 --seconds 20 --trace 0

One workload, traced (the per-layer metrics)::

    python3 benchmarks/e2e/run.py --workload bfs --seed 1 --seconds 20 --trace 1

Every workload, one at a time, untraced then traced, with the records
written to ``DIR``::

    python3 benchmarks/e2e/run.py --seed 1 --out DIR

A single-workload run prints every metric as ``workload metric value
unit`` and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits non-zero if any
answer disagreed with its oracle.  See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.runtime import default_pool, fastpath  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, OpRecord  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
    sys.exit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

#: processes per untraced run, one after another, each with one set-up and
#: an equal share of the window.  On a shared host, wall speed differs
#: between processes by up to ~15% but holds steady within one, so the
#: median over three processes steadies the wall metrics.
PARTS = 3
#: end-to-end metrics each process measures for itself
PER_PROCESS = ("setup_s", "peak_rss_mb", "wall_p50_s", "wall_p90_s", "ops_per_wall_s")
#: share of ``--seconds`` a traced run spends untraced, as the overhead base
PLAIN_SHARE = 0.25
#: ledger label groups reported as ``sim.<label>_s``; the rest is ``sim.other_s``
SIM_LABELS = (
    "spmspv_dist", "spmv_dist", "mxm_dist", "transpose_dist", "select_dist",
    "scale_rows_dist", "reduce_rows_dist", "dispatch", "apply_updates", "assign_agg",
)


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float, min_ops: int, start: int = 0, step: int = 1,
            tracer: Tracer | None = None) -> list[tuple[int, OpRecord, float]]:
    """Run ops ``start, start + step, ...`` until ``seconds`` of op wall
    time have passed and every op below ``min_ops`` in this share has run;
    returns ``(op index, record, wall seconds)`` per op."""
    done, spent, i = [], 0.0, start
    while spent < seconds or i < min_ops:
        call = wl.prepare(i)
        with tracer.root() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            out = call()
            wall = time.perf_counter() - t0
        done.append((i, wl.finish(i, out), wall))
        spent += wall
        i += step
    return done


def encode(rec: OpRecord) -> dict:
    """The fields of a record the untraced metrics need, as JSON."""
    return {"answers": rec.answers, "attempted": rec.attempted, "sim_s": rec.sim_s,
            "latencies": rec.latencies.tolist(), "wrong": rec.wrong, "rejected": rec.rejected,
            "extra": {"backlog_s": rec.extra["backlog_s"]} if rec.extra else {}}


def decode(d: dict) -> OpRecord:
    return OpRecord(**{**d, "latencies": np.asarray(d["latencies"], dtype=np.float64)})


def run_part(wl, seconds: float, part: int) -> dict:
    """One process's share of an untraced run: set up, then ops ``part,
    part + PARTS, ...`` for ``seconds / PARTS`` (the rate ladder too, in
    part 0 of ``serve``).  Returns the process's own set-up, memory and
    wall metrics, and its records."""
    t0 = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - t0
    ops = measure(wl, seconds / PARTS, wl.sim_ops, part, PARTS)
    rss = peak_rss_mb()
    per_answer = [wall / max(rec.answers, 1) for _, rec, wall in ops]
    ladder = wl.ladder() if wl.name == "serve" and part == 0 else {}
    return {
        "setup_s": setup_s, "peak_rss_mb": rss,
        "wall_p50_s": quantile(per_answer, 0.5), "wall_p90_s": quantile(per_answer, 0.9),
        "ops_per_wall_s": sum(rec.answers for _, rec, _ in ops) / sum(w for *_, w in ops),
        "ops": [(i, encode(rec)) for i, rec, _ in ops],
        "ladder": [(rate, encode(rec)) for rate, rec in ladder.items()],
    }


def simulated(wl, records) -> dict[str, float]:
    """The simulated metrics, from the first ``sim_ops`` ops."""
    head = records[: wl.sim_ops]
    latencies = np.concatenate([r.latencies for r in head])
    return {
        "sim_s": sum(r.sim_s for r in head) / sum(r.answers for r in head),
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
    }


def ladder_lines(wl, records, ladder: dict[float, OpRecord]) -> list[str]:
    """Latency at each ladder rate and the highest rate meeting the limit
    (p90 within ``latency_limit_s``, no rejection, no growing backlog)."""
    s = wl.sizes
    rungs = {s["rate"]: records[: wl.sim_ops], **{r: [rec] for r, rec in ladder.items()}}
    lines, best = [], 0.0
    for rate in sorted(rungs):
        recs = rungs[rate]
        lat = np.concatenate([r.latencies for r in recs])
        p90 = quantile(lat, 0.9)
        rejected = sum(r.rejected for r in recs)
        backlog = max(r.extra["backlog_s"] for r in recs)
        lines += [
            f"ladder.{rate:g}.latency_p50_s {quantile(lat, 0.5)!r} s",
            f"ladder.{rate:g}.latency_p90_s {p90!r} s",
            f"ladder.{rate:g}.latency_p99_s {quantile(lat, 0.99)!r} s",
            f"ladder.{rate:g}.samples {lat.size} count",
            f"ladder.{rate:g}.rejected {rejected} count",
            f"ladder.{rate:g}.backlog_s {backlog!r} s",
        ]
        if p90 <= s["latency_limit_s"] and rejected == 0 and backlog <= s["backlog_limit_s"]:
            best = rate
    lines.append(f"max_rate_qps {best:g} 1/s")
    return lines


def run_plain(wl, seconds: float, spawn=None):
    """The untraced run: ``PARTS`` shares.  Set-up, memory and wall metrics
    are the median over the shares' processes; the simulated metrics come
    from the pooled records.  ``spawn(k)`` runs share ``k`` in a fresh
    process; without it the shares run in this one."""
    parts = [spawn(k) if spawn else run_part(wl, seconds, k) for k in range(PARTS)]
    metrics = {name: median(p[name] for p in parts) for name in PER_PROCESS}
    ops = sorted((op for p in parts for op in p["ops"]), key=lambda op: op[0])
    records = [decode(rec) for _, rec in ops]
    metrics.update(simulated(wl, records))
    ladder = {rate: decode(rec) for p in parts for rate, rec in p["ladder"]}
    lines = ladder_lines(wl, records, ladder) if wl.name == "serve" else []
    return metrics, lines, records + list(ladder.values()), None


def layer_metrics(tracer: Tracer, records, walls, plain_walls, plan, pool) -> dict[str, float]:
    """Per-layer metrics of the traced ops, all per answer."""
    ops = sum(r.answers for r in records)
    out = tracer.metrics(ops)
    hits, misses = plan
    out["ops.dispatch.plan_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    out["runtime.aggregation.pool_reuse_frac"] = pool[0] / sum(pool) if sum(pool) else 0.0
    svc = [r for r in records if r.extra]
    done = sum(r.answers for r in svc)
    executed = sum(r.extra["executed"] for r in svc)
    out["service.cache_hit_frac"] = sum(r.extra["cache_served"] for r in svc) / done if done else 0.0
    out["service.batch_size_mean"] = executed / sum(r.extra["batches"] for r in svc) if executed else 0.0
    for key in ("queue_wait", "arrival_lag"):
        values = [v for r in svc for v in r.extra[key]]
        out[f"service.{key}_p90_s"] = quantile(values, 0.9) if values else 0.0
    out["streaming.apply_sim_s"] = sum(r.extra["apply_s"] for r in svc) / ops
    sim = {}
    for r in records:
        for label, seconds in r.sim_by_label.items():
            key = label if label in SIM_LABELS else "other"
            sim[key] = sim.get(key, 0.0) + seconds
    for label in SIM_LABELS + ("other",):
        out[f"sim.{label}_s"] = sim.get(label, 0.0) / ops
    out["trace.overhead_frac"] = sum(walls) / sum(plain_walls) - 1.0
    return out


def run_traced(wl, seconds: float):
    """An untraced stretch, then the same ops again under the tracer."""
    wl.setup()
    plain = measure(wl, seconds * PLAIN_SHARE, 1)
    plan0, pool0 = wl.plan_stats(), default_pool.stats()
    tracer = Tracer().install()
    try:
        traced = measure(wl, 0.0, len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    plan1, pool1 = wl.plan_stats(), default_pool.stats()
    for (_, a, _), (_, b, _) in zip(plain, traced):
        if a.sim_s != b.sim_s or not np.array_equal(a.latencies, b.latencies):
            sys.exit("tracing changed a simulated or virtual result")
    if tracer.unreconciled() > 0.01:
        sys.exit(f"layer self times miss the root spans by {tracer.unreconciled():.2%}")
    plan = (plan1[0] - plan0[0], plan1[1] - plan0[1])
    pool = (pool1.hits - pool0.hits, pool1.misses - pool0.misses)
    records = [rec for _, rec, _ in traced]
    metrics = layer_metrics(tracer, records, [w for *_, w in traced], [w for *_, w in plain],
                            plan, pool)
    lines = [f"traced_ops {len(traced)} count", f"unreconciled_frac {tracer.unreconciled()!r} ratio"]
    return metrics, lines, [rec for _, rec, _ in plain] + records, tracer


def header(wl, seconds: float) -> dict:
    """What must match for two runs to be comparable (see compare.py)."""
    return {
        "fastpath": fastpath.enabled(), "REPRO_SPMD": os.environ.get("REPRO_SPMD"),
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "seed": wl.seed, "seconds": seconds, "sizes": wl.sizes,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, sizes: dict | None = None,
                 spawn=None):
    """One workload run; returns the workload, the result object, extra
    report lines and the tracer (``None`` untraced)."""
    wl = WORKLOADS[name](seed, sizes)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics, lines, records, tracer = run_traced(wl, seconds)
    else:
        metrics, lines, records, tracer = run_plain(wl, seconds, spawn)
    if set(metrics) != set(units):
        sys.exit(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    wrong = sum(r.wrong for r in records)
    result = {
        "correct": wrong == 0,
        "attempted": sum(r.attempted for r in records),
        "failed": wrong + sum(r.rejected for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return wl, result, lines + [f"wrong {wrong} count"], tracer


def spawn_part(args, part: int) -> dict:
    """Run one share of an untraced run in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--part", str(part)]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        sys.exit(f"{args.workload} part {part} exited with {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def run_one(args) -> int:
    if args.part is not None:
        print(json.dumps(run_part(WORKLOADS[args.workload](args.seed), args.seconds, args.part)))
        return 0
    wl, result, lines, tracer = run_workload(
        args.workload, args.seed, args.seconds, args.trace, spawn=lambda k: spawn_part(args, k)
    )
    for name, m in result["metrics"].items():
        print(f"{wl.name} {name} {m['value']!r} {m['unit']}")
    for line in lines:
        print(f"{wl.name} {line}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}" + ("-traced" if args.trace else "")
        record = {"header": header(wl, args.seconds), "workload": wl.name, "trace": args.trace,
                  "result": result, "lines": lines}
        (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            tracer.write_chrome(args.out / f"{wl.name}-seed{args.seed}.trace.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own child process, untraced then traced."""
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(trace)]
            if args.out is not None:
                cmd += ["--out", str(args.out)]
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(child.stdout.splitlines(keepends=True)[:-1]))
            sys.stdout.flush()
            if child.returncode != 0:
                print(f"{name} exited with {child.returncode} (trace {trace})", file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--part", type=int, choices=range(PARTS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.part is not None and args.workload is None:
        parser.error("--part needs --workload")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
