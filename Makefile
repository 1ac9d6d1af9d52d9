# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-fast test-props test-chaos test-algos test-telemetry test-streaming test-service bench bench-agg bench-frontend bench-wall bench-spgemm bench-streaming bench-service bench-e2e bench-gate bench-full figures report examples clean

# coverage flags only when pytest-cov is importable (it is optional; the
# floor pins the fault/retry machinery in src/repro/runtime/)
COV := $(shell $(PYTHON) -c "import pytest_cov" 2>/dev/null && \
	echo --cov=repro.runtime --cov-report=term-missing --cov-fail-under=85)

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:           ## pre-commit default: unit + quick property tier, no chaos/slow
	REPRO_TEST_PROFILE=quick $(PYTHON) -m pytest tests/ -m "not chaos and not slow"

test-props:          ## full property suite (slow tier included, 100 examples)
	REPRO_RUN_SLOW=1 REPRO_TEST_PROFILE=standard $(PYTHON) -m pytest tests/test_properties.py tests/ops/test_dispatch.py

test-chaos:          ## chaos suite + runtime tests (REPRO_TEST_PROFILE=quick|standard|slow)
	REPRO_TEST_PROFILE=$${REPRO_TEST_PROFILE:-standard} \
	    $(PYTHON) -m pytest tests/chaos/ tests/runtime/ -m "chaos or not slow" $(COV)

test-algos:          ## algorithm suites on both backends + frontend unit tests + layering lint
	REPRO_TEST_PROFILE=$${REPRO_TEST_PROFILE:-standard} \
	    $(PYTHON) -m pytest tests/algorithms/ tests/exec/ tests/test_layering.py

test-telemetry:      ## observability suites: registry, timeline, profiling hooks, gate
	REPRO_TEST_PROFILE=$${REPRO_TEST_PROFILE:-quick} \
	    $(PYTHON) -m pytest -m telemetry tests/

test-streaming:      ## streaming tier: delta batches, incremental algorithms, ingest telemetry
	REPRO_TEST_PROFILE=$${REPRO_TEST_PROFILE:-quick} \
	    $(PYTHON) -m pytest -m streaming tests/

test-service:        ## query-service tier: scheduler, batching differential, cache, quotas, SLOs
	REPRO_TEST_PROFILE=$${REPRO_TEST_PROFILE:-quick} \
	    $(PYTHON) -m pytest -m service tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-agg:           ## aggregation-exchange ablation; writes results/BENCH_agg.json
	$(PYTHON) -m pytest benchmarks/test_abl_aggregation.py

bench-frontend:      ## frontend-vs-direct-kernel overhead; writes results/BENCH_frontend.json
	$(PYTHON) -m pytest benchmarks/test_abl_frontend.py

bench-wall:          ## fast-path wall-clock before/after; writes results/BENCH_wall.json
	$(PYTHON) -m pytest benchmarks/test_abl_wall.py

bench-spgemm:        ## distributed SpGEMM schedule ablation; writes results/BENCH_spgemm.json
	$(PYTHON) -m pytest benchmarks/test_abl_spgemm.py

bench-streaming:     ## incremental-vs-full streaming ablation; writes results/BENCH_streaming.json
	$(PYTHON) -m pytest benchmarks/test_abl_streaming.py

bench-service:       ## batched-vs-sequential service ablation; writes results/BENCH_service.json
	$(PYTHON) -m pytest benchmarks/test_abl_service.py

SEED ?= 1
OUT ?= e2e-runs

bench-e2e:           ## end-to-end benchmark, every workload at SEED, records in OUT (summary: compare.py)
	$(PYTHON) benchmarks/e2e/run.py --seed $(SEED) --out $(OUT)
	$(PYTHON) benchmarks/e2e/compare.py $(OUT)

bench-gate:          ## perf-regression gate vs results/BENCH_*.json golden baselines
	$(PYTHON) -m repro gate

bench-full:          ## paper-exact input sizes (~16 GB, slow)
	REPRO_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:             ## print every paper figure as text series
	$(PYTHON) -m repro.bench.figures

report:              ## regenerate EXPERIMENTS.md (paper vs measured)
	$(PYTHON) -m repro.bench.report

examples:
	for f in examples/quickstart.py examples/graph_analytics.py \
	         examples/distributed_bfs.py examples/machine_model.py \
	         examples/api_tour.py examples/cost_tracing.py; do \
	    echo "== $$f =="; $(PYTHON) $$f || exit 1; done

clean:               ## remove caches and untracked bench outputs; committed baselines stay
	rm -rf .pytest_cache .hypothesis .benchmarks
	git clean -fdxq -- benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
