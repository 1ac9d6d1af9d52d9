"""Tests for the perf-regression gate (:mod:`repro.bench.regression`).

The gate's whole job is a diff, so the tests are synthetic-payload
driven: craft baseline/current pairs and assert pass/fail semantics —
including the acceptance criterion that a >10% perturbation *fails* and
an improvement *passes*.  ``run_gate``/``main`` are exercised against a
stubbed re-runner so no real ablation sweep runs in tier-1.
"""

from __future__ import annotations

import json

import pytest

import repro.bench.ablations as ablations
from repro.bench.regression import (
    DEFAULT_TOLERANCE,
    GateResult,
    MetricCheck,
    available_benches,
    check_baselines,
    compare_payloads,
    main,
    run_gate,
)
from repro.bench.schema import SCHEMA_VERSION

pytestmark = pytest.mark.telemetry


def payload(sim=1.0, extra=None, configs=None):
    results = {"cfg": [{"nodes": 4, "simulated_s": sim, "wall_s": 123.0}]}
    if extra:
        results.update(extra)
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "stub",
        "configs": configs if configs is not None else {"n": 100},
        "results": results,
    }


class TestMetricCheck:
    def test_regressed_beyond_tolerance(self):
        c = MetricCheck("m", baseline=1.0, current=1.2, tolerance=0.1)
        assert c.regressed and not c.improved
        assert c.ratio == pytest.approx(1.2)

    def test_within_tolerance_passes(self):
        c = MetricCheck("m", baseline=1.0, current=1.09, tolerance=0.1)
        assert not c.regressed

    def test_improvement_flagged_not_failed(self):
        c = MetricCheck("m", baseline=1.0, current=0.5, tolerance=0.1)
        assert c.improved and not c.regressed

    def test_zero_baseline(self):
        same = MetricCheck("m", 0.0, 0.0, 0.1)
        assert not same.regressed and same.ratio == 1.0
        worse = MetricCheck("m", 0.0, 1e-6, 0.1)
        assert worse.regressed and worse.ratio == float("inf")

    def test_absolute_floor_swallows_jitter(self):
        c = MetricCheck("m", baseline=0.0, current=1e-15, tolerance=0.1)
        assert not c.regressed


class TestComparePayloads:
    def test_identical_passes(self):
        r = compare_payloads("stub", payload(), payload())
        assert r.passed and len(r.checks) == 1 and not r.problems

    def test_ten_percent_regression_fails(self):
        r = compare_payloads("stub", payload(sim=1.0), payload(sim=1.11))
        assert not r.passed
        assert [c.metric for c in r.regressions] == ["cfg[0]/simulated_s"]

    def test_improvement_passes_with_refresh_hint(self):
        r = compare_payloads("stub", payload(sim=1.0), payload(sim=0.5))
        assert r.passed and len(r.improvements) == 1
        assert "refresh" in r.render()

    def test_tolerance_configurable(self):
        base, cur = payload(sim=1.0), payload(sim=1.3)
        assert not compare_payloads("stub", base, cur, tolerance=0.1).passed
        assert compare_payloads("stub", base, cur, tolerance=0.5).passed

    def test_wall_clock_not_gated_without_stamp(self):
        """Baselines that don't opt in via ``gate_wall`` keep the original
        contract: wall columns are informational only."""
        cur = payload()
        cur["results"]["cfg"][0]["wall_s"] = 1e9
        assert compare_payloads("stub", payload(), cur).passed

    def test_missing_metric_is_a_problem(self):
        cur = payload()
        del cur["results"]["cfg"][0]["simulated_s"]
        r = compare_payloads("stub", payload(), cur)
        assert not r.passed
        assert any("missing from re-run" in p for p in r.problems)

    def test_added_metric_ignored_until_baseline_refresh(self):
        cur = payload(extra={"new_s": 5.0})
        assert compare_payloads("stub", payload(), cur).passed

    def test_config_drift_is_a_problem(self):
        cur = payload(configs={"n": 200})
        r = compare_payloads("stub", payload(), cur)
        assert not r.passed
        assert any("configs changed" in p for p in r.problems)
        assert not r.checks  # comparison aborted, not silently continued

    def test_empty_baseline_is_a_problem(self):
        base = payload()
        base["results"] = {}
        cur = payload()
        cur["results"] = {}
        assert not compare_payloads("stub", base, cur).passed

    def test_render_mentions_failures(self):
        r = compare_payloads("stub", payload(sim=1.0), payload(sim=2.0))
        text = r.render()
        assert "FAIL" in text and "cfg[0]/simulated_s" in text


def wall_payload(sim=1.0, wall_after=0.2):
    p = payload(sim=sim)
    p["gate_wall"] = True
    p["results"]["cfg"][0]["wall_after_s"] = wall_after
    return p


class TestWallGating:
    def test_stamped_baseline_gates_wall(self):
        r = compare_payloads("stub", wall_payload(), wall_payload())
        assert r.passed
        assert {c.metric for c in r.checks} == {
            "cfg[0]/simulated_s",
            "cfg[0]/wall_s",
            "cfg[0]/wall_after_s",
        }

    def test_wall_regression_beyond_loose_tolerance_fails(self):
        # 2× > the 1.5× wall tolerance: a fast path silently falling back
        # to its reference implementation must trip the gate
        r = compare_payloads("stub", wall_payload(), wall_payload(wall_after=0.4))
        assert not r.passed
        assert [c.metric for c in r.regressions] == ["cfg[0]/wall_after_s"]

    def test_wall_drift_within_tolerance_passes(self):
        r = compare_payloads("stub", wall_payload(), wall_payload(wall_after=0.28))
        assert r.passed

    def test_simulated_tolerance_stays_tight(self):
        """The loose wall tolerance must not leak onto simulated metrics."""
        r = compare_payloads("stub", wall_payload(), wall_payload(sim=1.2))
        assert not r.passed
        assert [c.metric for c in r.regressions] == ["cfg[0]/simulated_s"]

    def test_missing_wall_metric_is_a_problem(self):
        cur = wall_payload()
        del cur["results"]["cfg"][0]["wall_after_s"]
        r = compare_payloads("stub", wall_payload(), cur)
        assert not r.passed
        assert any("missing from re-run" in p for p in r.problems)

    def test_wall_tolerance_configurable(self):
        base, cur = wall_payload(), wall_payload(wall_after=0.4)
        assert compare_payloads("stub", base, cur, wall_tolerance=1.5).passed


@pytest.fixture()
def no_rerunners(monkeypatch):
    """An empty re-runner registry, so tmp results dirs need not hold the
    real benches' baselines."""
    monkeypatch.setattr(ablations, "RERUNNERS", {})


@pytest.mark.usefixtures("no_rerunners")
class TestRunGate:
    @pytest.fixture()
    def stub_results(self, tmp_path, monkeypatch):
        """A results dir with one stub baseline and a fake re-runner."""
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(payload()))
        self.rerun_value = payload()
        monkeypatch.setitem(
            ablations.RERUNNERS, "stub", lambda: self.rerun_value
        )
        return tmp_path

    def test_discovery(self, stub_results):
        assert list(available_benches(stub_results)) == ["stub"]

    def test_gate_passes_on_identical_rerun(self, stub_results):
        results = run_gate(stub_results)
        assert len(results) == 1 and results[0].passed

    def test_gate_fails_on_perturbed_rerun(self, stub_results):
        self.rerun_value = payload(sim=1.2)
        results = run_gate(stub_results)
        assert not results[0].passed

    def test_unknown_requested_bench_fails(self, stub_results):
        results = run_gate(stub_results, benches=["nope"])
        assert len(results) == 1 and not results[0].passed

    def test_baseline_without_rerunner_fails(self, stub_results):
        (stub_results / "BENCH_orphan.json").write_text(json.dumps(payload()))
        results = run_gate(stub_results)
        assert [r.bench for r in results] == ["orphan", "stub"]
        assert not results[0].passed and results[1].passed
        assert any("no re-runner" in p for p in results[0].problems)

    def test_rerunner_without_baseline_fails(self, stub_results, monkeypatch):
        """A harness whose baseline was never committed is not skipped."""
        monkeypatch.setitem(ablations.RERUNNERS, "lost", lambda: payload())
        results = run_gate(stub_results)
        assert [r.bench for r in results] == ["lost", "stub"]
        assert not results[0].passed and results[1].passed
        assert any("BENCH_lost.json" in p for p in results[0].problems)
        assert main(["--results-dir", str(stub_results)]) == 1

    def test_main_exit_codes(self, stub_results, capsys):
        assert main(["--results-dir", str(stub_results)]) == 0
        self.rerun_value = payload(sim=5.0)
        assert main(["--results-dir", str(stub_results)]) == 1
        out = capsys.readouterr().out
        assert "FAILED: stub" in out

    def test_main_tolerance_flag(self, stub_results):
        self.rerun_value = payload(sim=1.2)
        assert main(["--results-dir", str(stub_results)]) == 1
        assert (
            main(["--results-dir", str(stub_results), "--tolerance", "0.5"]) == 0
        )

    def test_main_no_baselines(self, tmp_path, capsys):
        assert main(["--results-dir", str(tmp_path)]) == 1
        assert "no gateable baselines" in capsys.readouterr().out


@pytest.mark.usefixtures("no_rerunners")
class TestCheckBaselines:
    """The ``gate --check`` structural smoke: no re-running, sub-second."""

    def test_clean_stub_passes(self, tmp_path, monkeypatch):
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(payload()))
        monkeypatch.setitem(ablations.RERUNNERS, "stub", lambda: payload())
        results = check_baselines(tmp_path)
        assert [r.bench for r in results] == ["stub"]
        assert all(r.passed for r in results)

    def test_corrupt_baseline_fails(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (r,) = check_baselines(tmp_path)
        assert not r.passed
        assert any("failed to load" in p for p in r.problems)

    def test_unwired_baseline_fails(self, tmp_path):
        (tmp_path / "BENCH_orphan.json").write_text(json.dumps(payload()))
        (r,) = check_baselines(tmp_path)
        assert not r.passed
        assert any("no re-runner" in p for p in r.problems)

    def test_gate_wall_without_wall_metrics_fails(self, tmp_path, monkeypatch):
        p = payload()
        p["gate_wall"] = True
        del p["results"]["cfg"][0]["wall_s"]
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(p))
        monkeypatch.setitem(ablations.RERUNNERS, "stub", lambda: p)
        (r,) = check_baselines(tmp_path)
        assert not r.passed
        assert any("wall gating" in p for p in r.problems)

    def test_unknown_requested_bench_fails(self, tmp_path):
        (r,) = check_baselines(tmp_path, benches=["nope"])
        assert not r.passed

    def test_rerunner_without_baseline_fails(self, tmp_path, monkeypatch):
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(payload()))
        monkeypatch.setitem(ablations.RERUNNERS, "stub", lambda: payload())
        monkeypatch.setitem(ablations.RERUNNERS, "lost", lambda: payload())
        lost, stub = check_baselines(tmp_path)
        assert (lost.bench, stub.bench) == ("lost", "stub")
        assert not lost.passed and stub.passed
        assert any("BENCH_lost.json" in p for p in lost.problems)

    def test_main_check_flag(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(payload()))
        monkeypatch.setitem(ablations.RERUNNERS, "stub", lambda: payload())
        assert main(["--results-dir", str(tmp_path), "--check"]) == 0
        assert "bench-check" in capsys.readouterr().out
        (tmp_path / "BENCH_orphan.json").write_text(json.dumps(payload()))
        assert main(["--results-dir", str(tmp_path), "--check"]) == 1


class TestRealBaselinesStructurallySound:
    """The checked-in baselines themselves pass the structural smoke —
    this is the in-suite equivalent of ``python -m repro gate --check``."""

    def test_registry_covers_checked_in_baselines(self):
        from repro.bench.regression import default_results_dir

        for name in available_benches(default_results_dir()):
            assert name in ablations.RERUNNERS, (
                f"baseline BENCH_{name}.json has no registered re-runner"
            )

    def test_checked_in_baselines_pass_check(self):
        results = check_baselines()
        assert results, "no checked-in baselines discovered"
        for r in results:
            assert r.passed, f"{r.bench}: {r.problems}"
        assert {r.bench for r in results} == set(ablations.RERUNNERS)

    def test_make_clean_keeps_checked_in_baselines(self):
        from repro.bench.regression import default_results_dir

        root = default_results_dir().parents[1]
        makefile = (root / "Makefile").read_text()
        recipe = makefile.split("\nclean:", 1)[1].split("\n\n", 1)[0]
        removed = [
            arg.rstrip("/")
            for line in recipe.splitlines()
            if line.strip().startswith("rm ")
            for arg in line.split()[1:]
            if not arg.startswith("-")
        ]
        baselines = default_results_dir().relative_to(root).as_posix()
        assert not any(
            baselines == path or baselines.startswith(path + "/") for path in removed
        ), f"`make clean` removes {baselines}"
