"""Golden-baseline perf-regression gate over the ``BENCH_*.json`` files.

The checked-in baselines under ``benchmarks/results/`` record every
ablation's simulated-time trajectory.  Because those numbers are
deterministic (seeded workloads, pure cost model), a re-run that differs
*upward* beyond tolerance is a genuine performance regression introduced
by code — not noise.  This module is the enforcement:

1. discover baselines (``BENCH_<name>.json``) in the results directory;
2. re-run the matching ablation harness from
   :data:`repro.bench.ablations.RERUNNERS`;
3. diff every gateable metric (:func:`repro.bench.schema.simulated_metrics`
   — simulated-seconds leaves, gated at ``tolerance``, default 10%; plus,
   for baselines stamped ``"gate_wall": true``,
   :func:`repro.bench.schema.wall_metrics` — wall-clock leaves, gated at
   the loose ``wall_tolerance``, default 1.5×, because wall time is
   host-dependent even when measured interleaved/min-of-k);
4. fail if any metric regressed beyond its tolerance, vanished, or the
   workload configs no longer match the baseline's.

Improvements never fail the gate — they are reported so the baseline can
be refreshed (re-run ``make bench`` and commit the new JSON).

Nothing is skipped: a registered re-runner without a committed baseline
fails, and so does a baseline without a re-runner.

``--check`` runs the *structural* half only: every baseline must load,
validate, expose gateable metrics, and have a registered re-runner — a
sub-second smoke test (wired into the test suite) that catches schema
drift and unwired benches without paying for a full re-measurement.

Wired into ``make bench-gate`` and ``python -m repro gate``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from .schema import (
    BenchSchemaError,
    bench_name_from_path,
    load_bench,
    simulated_metrics,
    wall_metrics,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "WALL_TOLERANCE",
    "MetricCheck",
    "GateResult",
    "default_results_dir",
    "available_benches",
    "compare_payloads",
    "check_baselines",
    "run_gate",
    "main",
]

#: default allowed relative regression before a metric fails the gate.
DEFAULT_TOLERANCE = 0.10

#: allowed relative regression for wall-clock metrics (1.5×): loose enough
#: for host drift, tight enough that a fast path silently falling back to
#: its reference implementation (typically 4-5× slower) still fails.
WALL_TOLERANCE = 0.50

#: regressions below this absolute simulated-seconds delta are ignored
#: (guards the ratio test against meaningless jitter on ~0-valued metrics).
ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricCheck:
    """One gated metric's baseline-vs-current comparison."""

    metric: str
    baseline: float
    current: float
    tolerance: float

    @property
    def delta(self) -> float:
        """Absolute change (positive = slower)."""
        return self.current - self.baseline

    @property
    def ratio(self) -> float:
        """current / baseline (1.0 when the baseline is zero and unchanged)."""
        if self.baseline == 0.0:
            return 1.0 if self.current == 0.0 else float("inf")
        return self.current / self.baseline

    @property
    def regressed(self) -> bool:
        """Whether the metric got slower beyond the allowed tolerance."""
        return self.delta > max(self.tolerance * abs(self.baseline), ABS_FLOOR)

    @property
    def improved(self) -> bool:
        """Whether the metric got faster beyond the tolerance (refresh hint)."""
        return -self.delta > max(self.tolerance * abs(self.baseline), ABS_FLOOR)


@dataclass
class GateResult:
    """Outcome of gating one bench (or one comparison)."""

    bench: str
    checks: list[MetricCheck] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricCheck]:
        """Checks that failed the tolerance."""
        return [c for c in self.checks if c.regressed]

    @property
    def improvements(self) -> list[MetricCheck]:
        """Checks that beat the baseline beyond the tolerance."""
        return [c for c in self.checks if c.improved]

    @property
    def passed(self) -> bool:
        """True when nothing regressed and nothing structural went wrong."""
        return not self.regressions and not self.problems

    def render(self) -> str:
        """Human-readable per-bench report."""
        lines = [
            f"[{'PASS' if self.passed else 'FAIL'}] bench {self.bench}: "
            f"{len(self.checks)} metrics, {len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved"
        ]
        for problem in self.problems:
            lines.append(f"  ! {problem}")
        for c in self.regressions:
            lines.append(
                f"  ✗ {c.metric}: {c.baseline:.6g}s -> {c.current:.6g}s "
                f"({c.ratio:.3f}x, tolerance {1 + c.tolerance:.2f}x)"
            )
        for c in self.improvements:
            lines.append(
                f"  ✓ {c.metric}: {c.baseline:.6g}s -> {c.current:.6g}s "
                f"({c.ratio:.3f}x) — consider refreshing the baseline"
            )
        return "\n".join(lines)


def default_results_dir() -> Path:
    """``benchmarks/results/`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def available_benches(results_dir: str | Path | None = None) -> dict[str, Path]:
    """Discover golden baselines: bench name → BENCH file path."""
    results_dir = Path(results_dir) if results_dir else default_results_dir()
    return {
        bench_name_from_path(p): p for p in sorted(results_dir.glob("BENCH_*.json"))
    }


def compare_payloads(
    bench: str,
    baseline: dict,
    current: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    wall_tolerance: float = WALL_TOLERANCE,
) -> GateResult:
    """Diff two schema-valid payloads' gateable metrics.

    Simulated-seconds leaves are always gated at ``tolerance``.  When the
    baseline is stamped ``"gate_wall": true``, wall-clock leaves are gated
    too, at the loose ``wall_tolerance``.

    Structural drift — changed workload configs, a metric present in the
    baseline but missing from the re-run — is a ``problem`` (gate fails):
    silently comparing different workloads would make the gate vacuous.
    Metrics *added* since the baseline are ignored; they are gated once
    the baseline is refreshed.
    """
    result = GateResult(bench=bench)
    base_cfg = baseline.get("configs")
    cur_cfg = current.get("configs")
    if base_cfg != cur_cfg:
        result.problems.append(
            f"configs changed since baseline (baseline {base_cfg!r} vs "
            f"current {cur_cfg!r}) — refresh the baseline"
        )
        return result
    base_metrics = simulated_metrics(baseline)
    cur_metrics = simulated_metrics(current)
    if not base_metrics:
        result.problems.append("baseline has no gateable simulated-time metrics")
    for metric, base_value in sorted(base_metrics.items()):
        if metric not in cur_metrics:
            result.problems.append(f"metric {metric} missing from re-run")
            continue
        result.checks.append(
            MetricCheck(metric, base_value, cur_metrics[metric], tolerance)
        )
    if baseline.get("gate_wall"):
        base_wall = wall_metrics(baseline)
        cur_wall = wall_metrics(current)
        if not base_wall:
            result.problems.append(
                "baseline requests wall gating but has no wall-clock metrics"
            )
        for metric, base_value in sorted(base_wall.items()):
            if metric not in cur_wall:
                result.problems.append(f"wall metric {metric} missing from re-run")
                continue
            result.checks.append(
                MetricCheck(metric, base_value, cur_wall[metric], wall_tolerance)
            )
    return result


def _discover(
    results_dir: str | Path | None, benches: list[str] | None
) -> tuple[dict[str, Path], list[GateResult]]:
    """The baselines to gate, plus a failed result per expected bench that
    has no baseline file.

    Expected are the selected ``benches``, or else every key of
    :data:`repro.bench.ablations.RERUNNERS` — so a harness whose baseline
    was never committed fails the gate instead of going ungated.
    """
    from .ablations import RERUNNERS

    found = available_benches(results_dir)
    expected = RERUNNERS if benches is None else benches
    missing = []
    for name in sorted(set(expected) - set(found)):
        r = GateResult(bench=name)
        r.problems.append(f"no baseline file BENCH_{name}.json")
        missing.append(r)
    if benches is not None:
        found = {name: found[name] for name in benches if name in found}
    return found, missing


def check_baselines(
    results_dir: str | Path | None = None,
    *,
    benches: list[str] | None = None,
) -> list[GateResult]:
    """Structural smoke check of the gate's wiring — no re-running.

    Every discovered (or selected) baseline must load, validate against
    the envelope schema, expose at least one gateable simulated metric
    (plus wall metrics when it requests wall gating), and have a
    re-runner registered in :data:`repro.bench.ablations.RERUNNERS`;
    every registered re-runner must have a baseline file.  Sub-second;
    run from the test suite as ``python -m repro gate --check`` so an
    unwired, uncommitted or schema-drifted baseline fails CI without
    paying for a full re-measurement.
    """
    from .ablations import RERUNNERS

    found, results = _discover(results_dir, benches)
    for name, path in sorted(found.items()):
        r = GateResult(bench=name)
        try:
            payload = load_bench(path)
        except (BenchSchemaError, OSError, ValueError) as exc:
            r.problems.append(f"baseline failed to load: {exc}")
            results.append(r)
            continue
        if not simulated_metrics(payload):
            r.problems.append("no gateable simulated-time metrics")
        if payload.get("gate_wall") and not wall_metrics(payload):
            r.problems.append("requests wall gating but has no wall-clock metrics")
        if name not in RERUNNERS:
            r.problems.append("no re-runner registered in RERUNNERS")
        results.append(r)
    return results


def run_gate(
    results_dir: str | Path | None = None,
    *,
    benches: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    wall_tolerance: float = WALL_TOLERANCE,
) -> list[GateResult]:
    """Gate every (or the selected) discovered baseline; returns per-bench
    results.  Nothing is skipped: a baseline with no registered re-runner,
    and a registered re-runner (or a selected bench) with no baseline
    file, each fail with a problem."""
    from .ablations import RERUNNERS

    found, results = _discover(results_dir, benches)
    for name, path in sorted(found.items()):
        rerun = RERUNNERS.get(name)
        if rerun is None:
            r = GateResult(bench=name)
            r.problems.append("no re-runner registered in RERUNNERS")
            results.append(r)
            continue
        results.append(
            compare_payloads(
                name,
                load_bench(path),
                rerun(),
                tolerance=tolerance,
                wall_tolerance=wall_tolerance,
            )
        )
    return results


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro gate`` delegates here)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro gate",
        description="perf-regression gate over the BENCH_*.json golden baselines",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="baseline directory (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        dest="benches",
        help="gate only this bench (repeatable; default: all discovered)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed relative regression (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=WALL_TOLERANCE,
        help=(
            "allowed relative regression for wall-clock metrics of benches "
            f"stamped gate_wall (default {WALL_TOLERANCE}, i.e. 1.5x)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="structural smoke check only (schema + wiring), no re-running",
    )
    args = parser.parse_args(argv)
    if not available_benches(args.results_dir):
        print("no gateable baselines found")
        return 1
    if args.check:
        results = check_baselines(args.results_dir, benches=args.benches)
        label = "bench-check"
    else:
        results = run_gate(
            args.results_dir,
            benches=args.benches,
            tolerance=args.tolerance,
            wall_tolerance=args.wall_tolerance,
        )
        label = "bench-gate"
    for r in results:
        print(r.render())
    failed = [r for r in results if not r.passed]
    print(
        f"\n{label}: {len(results) - len(failed)}/{len(results)} benches passed"
        + (f" — FAILED: {', '.join(r.bench for r in failed)}" if failed else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
