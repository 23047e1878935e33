# Convenience targets for the TAP reproduction.

PYTHON ?= python

.PHONY: install lint test audit bench bench-quick figures extensions examples all clean telemetry-gate report gate

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# Static checks: ruff when available, else a stdlib syntax sweep so
# offline containers still get a gate.  The RNG check enforces the
# determinism contract: no ambient randomness in library code.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests examples; \
	else \
		echo "ruff not installed; falling back to compileall syntax check"; \
		$(PYTHON) -m compileall -q src tests examples; \
	fi
	$(PYTHON) tools/check_rng.py src/repro

test:
	$(PYTHON) -m pytest tests/

# Tier-1 suite with repro.obs invariant auditing threaded through every
# membership event of every TapSystem fixture (TAP_AUDIT=1 is read by
# tests/conftest.py).
audit:
	TAP_AUDIT=1 $(PYTHON) -m pytest tests/

# Pinned micro/macro benchmark suite with regression gate: compares
# against the baseline stored in BENCH_core.json (exit 1 on regression
# past the threshold, exit 2 if no baseline exists yet — seed one with
# `python tools/bench_compare.py --write-baseline`).
bench:
	$(PYTHON) tools/bench_compare.py

bench-quick:
	$(PYTHON) tools/bench_compare.py --quick

# Relative telemetry-cost gates, interleaved same-run timing (exit 1 on
# breach): the instrumented 100k churn round vs its bare twin (<=5%),
# and Figure 6 under the null tracer (<2%), a live span tracer (<10%)
# and a metrics registry (<5%); the tracer bars widen by the measured
# bare-vs-bare noise floor.
telemetry-gate:
	$(PYTHON) tools/bench_compare.py --overhead-only

# Aggregate every manifest / metrics snapshot / chaos report / span
# trace under results/ into one consolidated report, then enforce the
# declarative SLOs in slo.toml (exit 2 on violation).
report:
	$(PYTHON) -m repro.cli report results/ --md results/report.md

gate:
	$(PYTHON) -m repro.cli gate results/ --slo slo.toml

figures:
	$(PYTHON) -m repro.cli all --outdir results/

extensions:
	$(PYTHON) -m repro.cli extensions --outdir results/

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

all: lint test audit bench figures extensions

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
