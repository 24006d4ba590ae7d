"""Tests for irrelevant-update detection ([BCL89] pre-filter)."""

import pytest

from repro.core.irrelevance import RelevanceFilter
from repro.core.maintenance import ViewMaintainer
from repro.datalog.parser import parse_program
from repro.storage.changeset import Changeset

from conftest import database_with

CHEAP_SRC = "cheap(X, Y, C) :- link(X, Y, C), C < 5."


class TestRelevanceFilter:
    def test_comparison_rejects_row(self):
        relevance = RelevanceFilter(parse_program(CHEAP_SRC))
        assert relevance.is_relevant("link", ("a", "b", 3))
        assert not relevance.is_relevant("link", ("a", "b", 50))

    def test_unreferenced_relation_is_irrelevant(self):
        relevance = RelevanceFilter(parse_program(CHEAP_SRC))
        assert not relevance.is_relevant("noise", ("x",))

    def test_constant_pattern_rejects_row(self):
        relevance = RelevanceFilter(
            parse_program("from_a(Y) :- link(a, Y).")
        )
        assert relevance.is_relevant("link", ("a", "q"))
        assert not relevance.is_relevant("link", ("b", "q"))

    def test_multiple_occurrences_any_accepting_wins(self):
        source = """
        low(X) :- reading(X, V), V < 10.
        high(X) :- reading(X, V), V > 90.
        """
        relevance = RelevanceFilter(parse_program(source))
        assert relevance.is_relevant("reading", ("s1", 5))
        assert relevance.is_relevant("reading", ("s1", 95))
        assert not relevance.is_relevant("reading", ("s1", 50))

    def test_cross_subgoal_comparisons_conservative(self):
        # C < D involves another subgoal's variable: undeterminable from
        # the link occurrence alone → the row must stay relevant.
        source = "v(X) :- link(X, C), bound(D), C < D."
        relevance = RelevanceFilter(parse_program(source))
        assert relevance.is_relevant("link", ("a", 1_000_000))

    def test_negated_occurrence_counts(self):
        source = "v(X, Y) :- t(X, Y), not link(X, Y)."
        relevance = RelevanceFilter(parse_program(source))
        assert relevance.is_relevant("link", ("a", "b"))

    def test_aggregate_inner_pattern(self):
        source = "m(S, M) :- GROUPBY(link(S, fixed, C), [S], M = SUM(C))."
        relevance = RelevanceFilter(parse_program(source))
        assert relevance.is_relevant("link", ("a", "fixed", 3))
        assert not relevance.is_relevant("link", ("a", "other", 3))

    def test_incomparable_types_stay_relevant(self):
        relevance = RelevanceFilter(parse_program(CHEAP_SRC))
        assert relevance.is_relevant("link", ("a", "b", "not-a-number"))

    def test_argument_over_unbound_variable_is_a_wildcard(self):
        relevance = RelevanceFilter(
            parse_program("h(X) :- p(X + 1), q(X), X > 3.")
        )
        assert relevance.is_relevant("p", (7,))
        assert relevance.is_relevant("p", ("not-a-number",))

    def test_bound_expression_argument_is_tested(self):
        relevance = RelevanceFilter(parse_program("h(X) :- p(X + 1, X)."))
        assert relevance.is_relevant("p", (6, 5))
        assert not relevance.is_relevant("p", (7, 5))

    def test_repeated_variable_must_agree(self):
        relevance = RelevanceFilter(parse_program("loop(X) :- link(X, X)."))
        assert relevance.is_relevant("link", ("a", "a"))
        assert not relevance.is_relevant("link", ("a", "b"))

    def test_comparison_raising_keeps_row(self):
        relevance = RelevanceFilter(
            parse_program("v(X) :- p(X, Y), X / Y < 1, X > 0.")
        )
        assert relevance.is_relevant("p", (1, 0))
        assert not relevance.is_relevant("p", (-1, 0))
        assert not relevance.is_relevant("p", (4, 2))


class TestMaintenanceIntegration:
    def test_irrelevant_rows_skipped_but_stored(self):
        db = database_with([("a", "b", 1)])
        maintainer = ViewMaintainer.from_source(CHEAP_SRC, db).initialize()
        report = maintainer.apply(
            Changeset()
            .insert("link", ("x", "y", 99))
            .insert("link", ("x", "z", 2))
        )
        stats = report.counting.stats
        assert stats.irrelevant_skipped == 1
        # The irrelevant row is still in the base relation.
        assert ("x", "y", 99) in maintainer.relation("link")
        # The relevant one made it into the view.
        assert ("x", "z", 2) in maintainer.relation("cheap")
        maintainer.consistency_check()

    def test_results_identical_with_mixed_relevance(self):
        db = database_with([("a", "b", 1), ("b", "c", 9)])
        maintainer = ViewMaintainer.from_source(CHEAP_SRC, db).initialize()
        maintainer.apply(
            Changeset()
            .delete("link", ("b", "c", 9))   # irrelevant (was 9 ≥ 5)
            .delete("link", ("a", "b", 1))   # relevant
            .insert("link", ("q", "r", 3))
        )
        assert maintainer.relation("cheap").as_set() == {("q", "r", 3)}
        maintainer.consistency_check()

    @pytest.mark.parametrize("strategy", ["counting", "dred", "bf"])
    def test_expression_argument_literal_maintained(self, strategy):
        db = database_with([(6,)], relation="p")
        db.insert_rows("q", [(5,), (6,)])
        maintainer = ViewMaintainer.from_source(
            "h(X) :- p(X + 1), q(X).", db, strategy=strategy
        ).initialize()
        assert maintainer.relation("h").as_set() == {(5,)}
        maintainer.apply(Changeset().insert("p", (7,)).delete("p", (6,)))
        assert maintainer.relation("h").as_set() == {(6,)}
        maintainer.consistency_check()

    def test_fully_irrelevant_batch_touches_no_stratum(self):
        db = database_with([("a", "b", 1)])
        maintainer = ViewMaintainer.from_source(CHEAP_SRC, db).initialize()
        report = maintainer.apply(
            Changeset().insert("link", ("p", "q", 50), count=1)
        )
        assert report.counting.stats.strata_reached == 0
        assert report.total_changes() == 0
        maintainer.consistency_check()
