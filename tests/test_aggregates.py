"""Tests for the aggregate-function state machines ([DAJ91] taxonomy)."""

import pytest

from repro.errors import EvaluationError
from repro.eval.aggregates import AGGREGATE_REGISTRY, get_aggregate_function


def _fold(function, pairs):
    state = function.initial()
    for value, count in pairs:
        state = function.insert(state, value, count)
    return state


class TestSum:
    function = AGGREGATE_REGISTRY["SUM"]

    def test_insert_delete_roundtrip(self):
        state = _fold(self.function, [(5, 1), (7, 2)])
        assert self.function.result(state) == 19
        state = self.function.delete(state, 7, 1)
        assert self.function.result(state) == 12

    def test_empty_detection(self):
        state = _fold(self.function, [(5, 1)])
        state = self.function.delete(state, 5, 1)
        assert self.function.is_empty(state)

    def test_zero_sum_nonempty_group(self):
        """A group summing to 0 still exists (multiplicity ≠ value)."""
        state = _fold(self.function, [(0, 3)])
        assert not self.function.is_empty(state)
        assert self.function.result(state) == 0


class TestCount:
    function = AGGREGATE_REGISTRY["COUNT"]

    def test_counts_multiplicities(self):
        state = _fold(self.function, [("x", 2), ("y", 1)])
        assert self.function.result(state) == 3

    def test_delete(self):
        state = _fold(self.function, [("x", 2)])
        state = self.function.delete(state, "x", 1)
        assert self.function.result(state) == 1


class TestMinMax:
    def test_min_insert_tracks_extremum(self):
        function = AGGREGATE_REGISTRY["MIN"]
        state = _fold(function, [(5, 1), (3, 1), (9, 1)])
        assert function.result(state) == 3

    def test_min_delete_nonextremum_incremental(self):
        function = AGGREGATE_REGISTRY["MIN"]
        state = _fold(function, [(5, 1), (3, 1)])
        new_state = function.delete(state, 5, 1)
        assert new_state is not None
        assert function.result(new_state) == 3

    def test_min_delete_extremum_signals_recompute(self):
        """Deleting the current MIN is not incrementally computable."""
        function = AGGREGATE_REGISTRY["MIN"]
        state = _fold(function, [(5, 1), (3, 1)])
        assert function.delete(state, 3, 1) is None

    def test_min_delete_last_row_empties(self):
        function = AGGREGATE_REGISTRY["MIN"]
        state = _fold(function, [(3, 1)])
        new_state = function.delete(state, 3, 1)
        assert function.is_empty(new_state)

    def test_max_mirror(self):
        function = AGGREGATE_REGISTRY["MAX"]
        state = _fold(function, [(5, 1), (9, 1)])
        assert function.result(state) == 9
        assert function.delete(state, 9, 1) is None
        kept = function.delete(state, 5, 1)
        assert function.result(kept) == 9

    def test_min_works_on_strings(self):
        function = AGGREGATE_REGISTRY["MIN"]
        state = _fold(function, [("pear", 1), ("apple", 1)])
        assert function.result(state) == "apple"


class TestAvg:
    function = AGGREGATE_REGISTRY["AVG"]

    def test_average(self):
        state = _fold(self.function, [(10, 1), (20, 1)])
        assert self.function.result(state) == 15

    def test_delete_incremental(self):
        state = _fold(self.function, [(10, 1), (20, 1)])
        state = self.function.delete(state, 20, 1)
        assert self.function.result(state) == 10

    def test_multiplicity_weighting(self):
        state = _fold(self.function, [(10, 3), (50, 1)])
        assert self.function.result(state) == 20


class TestVarStdDev:
    def test_variance(self):
        function = AGGREGATE_REGISTRY["VAR"]
        state = _fold(function, [(2, 1), (4, 1), (4, 1), (4, 1), (5, 1),
                                 (5, 1), (7, 1), (9, 1)])
        assert function.result(state) == pytest.approx(4.0)

    def test_stddev(self):
        function = AGGREGATE_REGISTRY["STDDEV"]
        state = _fold(function, [(2, 1), (4, 1), (4, 1), (4, 1), (5, 1),
                                 (5, 1), (7, 1), (9, 1)])
        assert function.result(state) == pytest.approx(2.0)

    def test_variance_never_negative(self):
        function = AGGREGATE_REGISTRY["VAR"]
        state = _fold(function, [(0.1, 1), (0.1, 1), (0.1, 1)])
        assert function.result(state) >= 0.0

    def test_delete_matches_recompute(self):
        function = AGGREGATE_REGISTRY["VAR"]
        state = _fold(function, [(1, 1), (2, 1), (3, 1)])
        state = function.delete(state, 2, 1)
        expected = _fold(function, [(1, 1), (3, 1)])
        assert function.result(state) == pytest.approx(
            function.result(expected)
        )


class TestRegistry:
    def test_all_functions_registered(self):
        assert set(AGGREGATE_REGISTRY) == {
            "SUM", "COUNT", "MIN", "MAX", "AVG", "VAR", "STDDEV",
        }

    def test_unknown_function_raises(self):
        with pytest.raises(EvaluationError):
            get_aggregate_function("MEDIAN")

    def test_compute_from_values(self):
        function = AGGREGATE_REGISTRY["SUM"]
        state = function.compute([(1, 2), (5, 1)])
        assert function.result(state) == 7
