# Test targets.  Tier-1 (`make test`) runs the whole suite exactly as CI
# does; the split targets exist so the slow layers can be exercised (or
# skipped) independently without changing what the default run covers.

PYTHON ?= python
PYTEST := env PYTHONPATH=src $(PYTHON) -m pytest
TIMEOUT ?= timeout

.PHONY: check test test-fast test-faults test-soak bench bench-smoke \
	lint lint-strict ruff pylint

# The default gate: the whole suite plus the benchmark smoke run.  The
# per-layer acceptance checks (trace tree, guard rollback, MVCC soak,
# lint/advisor agreement, B/F contrast, health SLOs, orchestrator
# drills, sanitizer fixture) are tier-1 tests.
check: test bench-smoke

# The tier-1 gate: everything, fail fast.
test:
	$(PYTEST) -x -q

# Everything except the slow layers — the inner-loop developer run.
test-fast:
	$(PYTEST) -x -q -m "not soak and not faults"

# Crash-injection / durability tests only, fenced by a hard timeout so a
# recovery bug that hangs (e.g. replaying a corrupt journal forever)
# kills the run instead of wedging CI.
test-faults:
	$(TIMEOUT) 300 $(PYTEST) -x -q -m faults

# Long randomized integration soaks, same fencing.
test-soak:
	$(TIMEOUT) 900 $(PYTEST) -x -q -m soak

# The end-to-end benchmark (benchmarks/e2e/README.md) with every
# workload ~50x smaller: all four streams, the tax table, the memory
# leg and the per-layer trace run, each checked against its oracle.
bench-smoke:
	python3 benchmarks/e2e/suite.py --smoke

# The full benchmark, compared with the committed seed-1 baseline
# (exit 3 when a gated metric is worse beyond its BENCHMARK.json bound).
bench:
	python3 benchmarks/e2e/suite.py \
		--compare benchmarks/e2e/baseline/seed1.json

# Lint an arbitrary program: make lint FILE=path/to/views.dl
lint:
	env PYTHONPATH=src $(PYTHON) -m repro lint $(FILE)

# The hard-failing lint gate (CI): unlike `make ruff`/`make pylint`,
# which skip when the tool is missing, every stage here must run and
# pass — a missing tool fails the target.  CI installs ruff/pylint;
# the final stage (the RV3xx/RV220 self-lint) needs no third-party
# tools and can be run alone anywhere via `repro lint --self`.
lint-strict:
	$(PYTHON) -m ruff check src tests benchmarks examples
	env PYTHONPATH=src $(PYTHON) -m pylint --rcfile=pyproject.toml repro
	env PYTHONPATH=src $(PYTHON) -m repro lint --self --fail-on error

# Static passes over the codebase itself.  Both tools are optional in
# the base image; the targets skip (successfully) when the tool is not
# installed so `make ruff pylint` stays usable everywhere.  Ruff is
# configured in pyproject.toml ([tool.ruff]).
ruff:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi

pylint:
	@if $(PYTHON) -m pylint --version >/dev/null 2>&1; then \
		env PYTHONPATH=src $(PYTHON) -m pylint --rcfile=pyproject.toml \
			repro; \
	else \
		echo "pylint not installed; skipping (pip install pylint)"; \
	fi
