# Test targets.  Tier-1 (`make test`) runs the whole suite exactly as CI
# does; the split targets exist so the slow layers can be exercised (or
# skipped) independently without changing what the default run covers.

PYTHON ?= python
PYTEST := env PYTHONPATH=src $(PYTHON) -m pytest
TIMEOUT ?= timeout

.PHONY: check test test-fast test-faults test-soak bench bench-smoke obs-smoke \
	guard-smoke mvcc-smoke lint-smoke bf-smoke health-smoke \
	orchestrator-smoke sanitize-smoke lint lint-strict ruff pylint

# The default gate: the whole suite plus the benchmark, observability,
# guardrail and static-analysis smoke runs.
check: test bench-smoke obs-smoke guard-smoke mvcc-smoke lint-smoke \
	bf-smoke health-smoke orchestrator-smoke sanitize-smoke

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

# Observability acceptance at toy scale: traced counting+DRed passes
# emit a well-formed span-tree JSONL, the metrics registry renders
# valid Prometheus exposition (>= 10 families), and `explain`
# reproduces the stored derivation count (Theorem 4.1).
obs-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.obs.smoke

# Guardrail acceptance at toy scale: a budget breach rolls back to the
# bit-identical pre-pass state, a forced fallback produces
# recompute-identical views, and a poison changeset round-trips
# through the quarantine dead-letter file.
guard-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.guard.smoke

# MVCC acceptance at toy scale: 4 reader threads race 200 maintenance
# passes under injected crash points and guard-budget breaches; every
# pinned snapshot read must equal the recompute oracle at its epoch
# (zero torn reads) and the version chains must stay within the
# retention cap.  (The long randomized version is `make test-soak`.)
mvcc-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.storage.mvcc_smoke

# Static-analysis acceptance: every Datalog program embedded in
# examples/*.py lints clean of error diagnostics through the real
# `repro lint --format json` CLI (schema-validated), the strategy
# advisor's counting/DRed pick matches ViewMaintainer's own
# auto-selection on each, and a known-bad fixture produces exactly the
# expected RV codes.  See docs/analysis.md for the code catalogue.
lint-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.analysis.smoke

# B/F acceptance at toy scale: the advisor recommends bf (RV203) on the
# dense alternative-derivation fixture and auto-selection agrees, bf and
# DRed leave identical views on a delete/reinsert stream through it, bf
# is measurably faster there, and the candidates-vs-overestimate
# counters confirm the targeting.  (The full benchmark with the >= 5x
# gate is `python benchmarks/bench_bf.py` -> BENCH_bf.json.)
bf-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.core.bf_smoke

# Health-layer acceptance at toy scale: SLOs on a live workload, an
# injected admission fault quarantines passes until the freshness
# burn-rate alert fires (view + window in the payload), recovery clears
# it, the profiler report is schema-valid with ring-resolvable span
# exemplars, and `repro top --once` renders every dashboard section.
health-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.obs.health_smoke

# Orchestrator acceptance at toy scale: a fault drill on a 3-level DAG
# under a virtual clock — injected failures quarantine exactly their
# isolation cone while siblings keep refreshing, quarantined views
# serve their last committed MVCC epoch with staleness stamps, the
# recovery probe heals the cone and drains the backlog, target_lag /
# DOWNSTREAM batching holds, and every view matches the recompute
# oracle.  (The scheduler-overhead benchmark with the <5% gate is
# `python benchmarks/bench_orchestrator.py` -> BENCH_orchestrator.json.)
orchestrator-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.orchestrator.smoke

# Concurrency-sanitizer acceptance, both directions: the static RV3xx
# pass catches every seeded publication-discipline defect in the
# known-bad fixture (span-accurate) and reports zero error-severity
# RV3xx findings over the real src/repro tree; the runtime sanitizer
# (Database(sanitize=True)) runs a threaded MVCC soak green and traps
# a fault-injected torn publication from concurrent reader threads.
# This is the gate for O4's worker pool.  See docs/analysis.md.
sanitize-smoke:
	env PYTHONPATH=src $(PYTHON) -m repro.analysis.sanitize_smoke

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
