"""Smoke tests for the fast reproduction experiments.

The heavy experiments run via ``python -m repro.bench``; the cheap ones
(< 1s) run here too so regressions in the harness or in the claims they
check surface in the ordinary test suite.
"""

from repro.bench.experiments import (
    e5_set_optimization,
    e11_recursive_counting,
    e12_aggregate_functions,
)


class TestE5Smoke:
    def test_set_mode_stops_at_stratum_one(self):
        result = e5_set_optimization()
        rows = {row["semantics"]: row for row in result.rows}
        assert rows["set"]["strata reached"] == 1
        assert rows["duplicate"]["strata reached"] == 6
        assert rows["set"]["suppressed tuples"] > 0
        assert rows["duplicate"]["suppressed tuples"] == 0

    def test_duplicate_mode_computes_more_deltas(self):
        result = e5_set_optimization()
        rows = {row["semantics"]: row for row in result.rows}
        assert (
            rows["duplicate"]["Δ tuples computed"]
            > rows["set"]["Δ tuples computed"]
        )


class TestE11Smoke:
    def test_outcomes(self):
        result = e11_recursive_counting()
        outcomes = [row["outcome"] for row in result.rows]
        assert outcomes[0] == "converged"
        assert "DivergenceError" in outcomes[1]

    def test_dag_counts_exceed_one(self):
        result = e11_recursive_counting()
        assert result.rows[0]["max count"] > 1  # real multi-path counting


class TestE12Smoke:
    def test_min_recomputes_others_do_not(self):
        result = e12_aggregate_functions()
        by_function = {row["function"]: row for row in result.rows}
        assert by_function["MIN"]["recomputes"] > 0
        for function in ("SUM", "COUNT", "AVG", "VAR"):
            assert by_function[function]["recomputes"] == 0

    def test_inserts_always_incremental(self):
        result = e12_aggregate_functions()
        for row in result.rows:
            assert row["incremental"] > 0
