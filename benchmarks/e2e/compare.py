"""Compare two sets of end-to-end benchmark runs, or summarise one.

::

    python3 benchmarks/e2e/compare.py A B        # verdict per (workload, metric)
    python3 benchmarks/e2e/compare.py A          # medians, quartiles, spreads of A
    python3 benchmarks/e2e/compare.py --layers A # per-layer table of A's traced runs

``A`` and ``B`` are directories of run records written by ``run.py
--out``, one per seed, with the same seeds on both sides (run the parent
and the change alternately).  Each (workload, end-to-end metric) is
judged on its seed pairs: the change ``B[s] / A[s] - 1`` of every seed
``s``.  Pairing takes the input variation between seeds out, so what
spread is left is run-to-run noise.

The simulated and virtual metrics (:data:`EXACT`) repeat exactly for a
seed, so any change in them is real.  They are judged pair by pair to a
relative tolerance of :data:`EXACT_TOL`:

* ``worse``: some seed got worse;
* ``improved``: no seed got worse and some seed got better;
* ``within bound``: every seed is unchanged.

The other metrics are measured on the wall clock and use the bound from
``BENCHMARK.json``:

* ``improved``: B wins at least 9 of 10 pairs (ties count for neither)
  and the median change exceeds the pairs' quartile distance;
* ``worse``: the median change is worse than the bound;
* ``unresolved``: the pairs' quartile distance is wider than the bound,
  and not every pair reads better;
* ``within bound``: otherwise.

The bounds in ``BENCHMARK.json`` are wider than :data:`EXACT_TOL` for
the exact metrics because a benchmark run reports one seed, and a bound
there has to cover the spread between seeds.

Runs whose environment headers (fast path, ``REPRO_SPMD``, nproc, Python
and numpy versions, run seconds, sizes, seeds) differ are not compared.
The exit code is 1 if any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
#: metrics on the simulated and virtual clocks, fixed by the seed
EXACT = ("sim_s", "latency_p50_s", "latency_p90_s")
#: relative change below which an exact metric counts as unchanged
EXACT_TOL = 1e-9


def load(directory: Path, trace: int) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: record}}`` of the directory's runs."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record["trace"] == trace:
            out.setdefault(record["workload"], {})[record["header"]["seed"]] = record
    if not out:
        sys.exit(f"{directory}: no run records")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def values(runs: dict[int, dict], metric: str) -> dict[int, float]:
    return {seed: r["result"]["metrics"][metric]["value"] for seed, r in runs.items()}


def changes(a: dict[int, float], b: dict[int, float]) -> list[float]:
    """``B[s] / A[s] - 1`` for every seed ``s``."""
    return [b[s] / a[s] - 1.0 for s in sorted(a)]


def verdict(change: list[float], better: str, bound: float, exact: bool) -> str:
    """The verdict on per-seed changes; a gain is a change in the better direction."""
    gain = [x if better == "higher" else -x for x in change]
    if exact:
        if min(gain) < -EXACT_TOL:
            return "worse"
        return "improved" if max(gain) > EXACT_TOL else "within bound"
    q1, med, q3 = quartiles(gain)
    if sum(g > 0 for g in gain) >= 0.9 * len(gain) and med > q3 - q1:
        return "improved"
    if med < -bound:
        return "worse"
    if q3 - q1 > bound and min(gain) <= 0:
        return "unresolved"
    return "within bound"


def check_headers(a: dict, b: dict) -> None:
    """Refuse to compare runs made under different conditions."""
    for workload in sorted(set(a) | set(b)):
        if set(a.get(workload, {})) != set(b.get(workload, {})):
            sys.exit(f"{workload}: the two sets ran different seeds")
        heads = [
            {k: v for k, v in r["header"].items() if k != "seed"}
            for side in (a, b) for r in side[workload].values()
        ]
        for head in heads[1:]:
            if head != heads[0]:
                diff = sorted(k for k in set(head) | set(heads[0]) if head.get(k) != heads[0].get(k))
                sys.exit(f"{workload}: environment headers differ in {diff}; not comparing")


def fmt(x: float) -> str:
    return f"{x:.4g}"


def compare(a_dir: Path, b_dir: Path) -> int:
    a, b = load(a_dir, 0), load(b_dir, 0)
    check_headers(a, b)
    print("workload metric | A median [q1 q3] | B median [q1 q3] | "
          "paired change median [q1 q3] | verdict")
    bad = 0
    for workload in a:
        for m in SPEC["end_to_end"]:
            va, vb = values(a[workload], m["name"]), values(b[workload], m["name"])
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            change = changes(va, vb)
            qc = quartiles(change)
            v = verdict(change, m["better"], m["bound"], m["name"] in EXACT)
            bad += v in ("worse", "unresolved")
            print(f"{workload} {m['name']} | {fmt(qa[1])} [{fmt(qa[0])} {fmt(qa[2])}] | "
                  f"{fmt(qb[1])} [{fmt(qb[0])} {fmt(qb[2])}] | "
                  f"{qc[1]:+.2%} [{qc[0]:+.2%} {qc[2]:+.2%}] | {v}")
    return 1 if bad else 0


def summarise(a_dir: Path) -> int:
    a = load(a_dir, 0)
    print("workload metric | median [q1 q3] | spread | bound | runs")
    for workload, runs in a.items():
        for m in SPEC["end_to_end"]:
            vs = list(values(runs, m["name"]).values())
            q1, q2, q3 = quartiles(vs)
            print(f"{workload} {m['name']} | {fmt(q2)} [{fmt(q1)} {fmt(q3)}] | "
                  f"{spread(vs):.2%} | {m['bound']:.0%} | {len(vs)}")
    return 0


def layers(a_dir: Path) -> int:
    """Markdown table of per-layer medians across the traced runs."""
    a = load(a_dir, 1)
    names = list(a)
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in SPEC["per_layer"]:
        cells = [fmt(statistics.median(values(a[w], m["name"]).values())) for w in names]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    parser.add_argument("--layers", action="store_true", help="per-layer table of A's traced runs")
    args = parser.parse_args(argv)
    if args.layers:
        return layers(args.a)
    return compare(args.a, args.b) if args.b else summarise(args.a)


if __name__ == "__main__":
    sys.exit(main())
