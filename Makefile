.PHONY: install test lint bench bench-smoke bench-golden bench-prefetch \
	bench-kernels bench-service chaos service-smoke \
	service-chaos examples suite clean \
	reproduce-smoke reproduce-paper artifact-golden

PYTHON ?= python

install:
	$(PYTHON) -m pip install -e ".[test]"

test:
	$(PYTHON) -m pytest tests/

# Contract analyzer always runs; ruff/mypy only when installed.
lint:
	$(PYTHON) -m repro.cli lint src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed -- skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy -p repro.io -p repro.core; \
	else \
		echo "mypy not installed -- skipping (pip install -e '.[lint]')"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Mirrors the CI bench-regression job: counted I/O and SCC partitions
# of the small-scale Table 1 / Fig. 12 variants vs the checked-in
# goldens, plus the prefetch-transparency re-runs.
bench-smoke:
	$(PYTHON) -m benchmarks.regression --check \
		--out bench-regression-results.json \
		--trace-dir bench-regression-traces

# Regenerate the goldens after an *intentional* I/O-count change.
bench-golden:
	$(PYTHON) -m benchmarks.regression --write-golden

# Wall-clock benefit of cache + prefetch -> BENCH_prefetch.json.
bench-prefetch:
	$(PYTHON) -m benchmarks.bench_prefetch

# Edge-scan CPU throughput of the vector kernels -> BENCH_kernels.json
# (simulated disk forced off; gates 1P-SCC at >= 2x over scalar).
bench-kernels:
	$(PYTHON) -m benchmarks.bench_kernels

# Serving-plane latency/shedding/rebuild-availability of the query
# daemon -> BENCH_service.json (gates zero wrong answers, >= 95 %
# availability during a rebuild, typed shedding under overload).
bench-service:
	$(PYTHON) -m benchmarks.bench_service

# Chaos gate: the fault-injection / crash-consistency / checkpoint-resume
# test files, plus an end-to-end crash -> resume through the CLI (exit
# code 4 marks a simulated crash; the resumed run must succeed).
chaos:
	$(PYTHON) -m pytest -q tests/test_io_faults.py tests/test_io_atomic.py \
		tests/test_checkpoint_resume.py
	rm -rf chaos-workdir && mkdir -p chaos-workdir
	$(PYTHON) -m repro.cli generate --kind small --scale 2e-3 \
		--out chaos-workdir/g.rgr
	$(PYTHON) -m repro.cli compute chaos-workdir/g.rgr \
		--algorithm 1P-SCC --block-size 4096 \
		--fault-plan "seed=1;crash@scan:1" \
		--checkpoint-dir chaos-workdir/ckpt; \
		test $$? -eq 4 || { echo "expected exit 4 (simulated crash)"; exit 1; }
	$(PYTHON) -m repro.cli compute chaos-workdir/g.rgr \
		--algorithm 1P-SCC --block-size 4096 \
		--checkpoint-dir chaos-workdir/ckpt --resume
	rm -rf chaos-workdir

# The query daemon end to end over the wire: address line, every op,
# typed errors, ingest -> background rebuild, protocol shutdown.
service-smoke:
	$(PYTHON) scripts/service_smoke.py

# The daemon's crash drill: SIGKILL mid-build and mid-rebuild, restart,
# resume; fingerprints must match an uninterrupted reference run.
service-chaos:
	$(PYTHON) scripts/service_chaos_drill.py

# One-command reproduction artifact (see docs/reproduction_guide.md).
# Smoke tier is the CI gate: the sweep's MANIFEST.json must match the
# committed golden byte-for-byte.
reproduce-smoke:
	$(PYTHON) -m repro.cli reproduce --scale smoke \
		--out bench_results/artifact-smoke \
		--verify benchmarks/golden/artifact_manifest.json

# The EXPERIMENTS.md configuration: full case lists, INF reported.
reproduce-paper:
	$(PYTHON) -m repro.cli reproduce --scale paper \
		--out bench_results/artifact-paper --heartbeat 30

# Regenerate the committed smoke-tier golden manifest after an
# *intentional* I/O-model change (review the diff before committing).
artifact-golden:
	$(PYTHON) -m repro.cli reproduce --scale smoke --fresh \
		--out bench_results/artifact-smoke
	cp bench_results/artifact-smoke/artifact/MANIFEST.json \
		benchmarks/golden/artifact_manifest.json
	@echo "updated benchmarks/golden/artifact_manifest.json"

# full paper evaluation with CSV + report output
suite:
	$(PYTHON) -m repro.cli bench --outdir suite_results

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# bench_results/ holds measured records -- clean must never delete them.
clean:
	rm -rf build src/repro.egg-info .pytest_cache .benchmarks \
		suite_results bench-regression-results.json bench-regression-traces \
		chaos-workdir service-smoke-workdir service-chaos-workdir
	find . -name '__pycache__' -type d -exec rm -rf {} +
