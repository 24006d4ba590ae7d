"""Unit tests for AggregateView (Algorithm 6.1)."""

import pytest

from repro.core.agg_maintenance import AggregateView
from repro.core.maintenance import ViewMaintainer
from repro.datalog.parser import parse_rule
from repro.errors import MaintenanceError
from repro.eval.rule_eval import Resolver
from repro.guard import GuardPolicy
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation, relation_from_rows

MIN_RULE = "m(S, M) :- GROUPBY(u(S, C), [S], M = MIN(C))."
SUM_RULE = "t(S, M) :- GROUPBY(u(S, C), [S], M = SUM(C))."


def _view(rule_source=MIN_RULE, unit=True) -> AggregateView:
    return AggregateView(parse_rule(rule_source), unit_counts=unit)


def _delta(entries) -> CountedRelation:
    delta = CountedRelation("Δu")
    for row, count in entries.items():
        delta.add(row, count)
    return delta


class TestConstruction:
    def test_requires_normalized_rule(self):
        with pytest.raises(MaintenanceError, match="normalized"):
            AggregateView(
                parse_rule("p(S, M) :- q(S), GROUPBY(u(S, C), [S], "
                           "M = MIN(C))."),
                unit_counts=True,
            )

    def test_initialize_builds_groups(self):
        view = _view()
        relation = view.initialize(
            relation_from_rows("u", [("a", 5), ("a", 2), ("b", 7)])
        )
        assert relation.to_dict() == {("a", 2): 1, ("b", 7): 1}
        assert view.group_count() == 2


class TestMaintain:
    def test_insert_changes_minimum(self):
        view = _view()
        grouped = relation_from_rows("u", [("a", 5)])
        view.initialize(grouped)
        delta_t = view.maintain(grouped, _delta({("a", 3): 1}))
        assert delta_t.to_dict() == {("a", 5): -1, ("a", 3): 1}

    def test_insert_not_changing_minimum_yields_empty_delta(self):
        view = _view()
        grouped = relation_from_rows("u", [("a", 5)])
        view.initialize(grouped)
        delta_t = view.maintain(grouped, _delta({("a", 9): 1}))
        assert delta_t.to_dict() == {}
        assert view.incremental_updates == 1
        assert view.recomputes == 0

    def test_new_group_appears(self):
        view = _view()
        grouped = relation_from_rows("u", [("a", 5)])
        view.initialize(grouped)
        delta_t = view.maintain(grouped, _delta({("b", 4): 1}))
        assert delta_t.to_dict() == {("b", 4): 1}

    def test_group_disappears(self):
        view = _view()
        grouped = relation_from_rows("u", [("a", 5)])
        view.initialize(grouped)
        delta_t = view.maintain(grouped, _delta({("a", 5): -1}))
        assert delta_t.to_dict() == {("a", 5): -1}
        assert view.group_count() == 0

    def test_extremum_delete_triggers_recompute(self):
        view = _view()
        grouped = relation_from_rows("u", [("a", 2), ("a", 5)])
        view.initialize(grouped)
        delta_t = view.maintain(grouped, _delta({("a", 2): -1}))
        assert delta_t.to_dict() == {("a", 2): -1, ("a", 5): 1}
        assert view.recomputes == 1

    def test_nonextremum_delete_is_incremental(self):
        view = _view()
        grouped = relation_from_rows("u", [("a", 2), ("a", 5)])
        view.initialize(grouped)
        delta_t = view.maintain(grouped, _delta({("a", 5): -1}))
        assert delta_t.to_dict() == {}
        assert view.recomputes == 0

    def test_sum_over_multiplicities_bag_mode(self):
        view = _view(SUM_RULE, unit=False)
        grouped = CountedRelation("u")
        grouped.add(("a", 10), 2)
        view.initialize(grouped)
        delta = CountedRelation("Δu")
        delta.add(("a", 10), 1)  # a third copy
        delta_t = view.maintain(grouped, delta)
        assert delta_t.to_dict() == {("a", 20): -1, ("a", 30): 1}

    def test_unit_mode_ignores_multiplicities(self):
        view = _view(SUM_RULE, unit=True)
        grouped = CountedRelation("u")
        grouped.add(("a", 10), 2)
        relation = view.initialize(grouped)
        assert relation.to_dict() == {("a", 10): 1}

    def test_untouched_groups_not_visited(self):
        view = _view()
        grouped = relation_from_rows(
            "u", [("a", 1), ("b", 2), ("c", 3)]
        )
        view.initialize(grouped)
        view.maintain(grouped, _delta({("a", 0): 1}))
        # Only group 'a' was maintained.
        assert view.incremental_updates + view.recomputes == 1

    def test_lazy_initialization_on_first_maintain(self):
        view = _view()
        grouped = relation_from_rows("u", [("a", 5)])
        delta_t = view.maintain(grouped, _delta({("a", 3): 1}))
        assert delta_t.to_dict() == {("a", 5): -1, ("a", 3): 1}


class TestInnerLiteralPatterns:
    def test_constant_in_inner_literal_filters_rows(self):
        rule = "m(M) :- GROUPBY(u(fixed, C), [], M = SUM(C))."
        view = AggregateView(parse_rule(rule), unit_counts=True)
        grouped = relation_from_rows(
            "u", [("fixed", 1), ("other", 100), ("fixed", 2)]
        )
        relation = view.initialize(grouped)
        assert relation.to_dict() == {(3,): 1}

    def test_changes_to_filtered_rows_ignored(self):
        rule = "m(M) :- GROUPBY(u(fixed, C), [], M = SUM(C))."
        view = AggregateView(parse_rule(rule), unit_counts=True)
        grouped = relation_from_rows("u", [("fixed", 1)])
        view.initialize(grouped)
        delta_t = view.maintain(grouped, _delta({("other", 50): 1}))
        assert delta_t.to_dict() == {}

    def test_expression_argument(self):
        rule = "m(S, M) :- GROUPBY(u(S, C), [S], M = SUM(C * 2))."
        view = AggregateView(parse_rule(rule), unit_counts=True)
        relation = view.initialize(relation_from_rows("u", [("a", 3)]))
        assert relation.to_dict() == {("a", 6): 1}

    def test_empty_group_by_single_global_group(self):
        rule = "total(M) :- GROUPBY(u(S, C), [], M = COUNT(C))."
        view = AggregateView(parse_rule(rule), unit_counts=True)
        relation = view.initialize(
            relation_from_rows("u", [("a", 1), ("b", 2)])
        )
        assert relation.to_dict() == {(2,): 1}


# ------------------------------------------------------------- adoption

HOP = "hop(X, Y) :- link(X, Z), link(Z, Y).\n"
MIN_HOP = "min_hop(X, M) :- GROUPBY(hop(X, Y), [X], M = MIN(Y)).\n"
FAN = "fan(X, N) :- GROUPBY(link(X, Y), [X], N = COUNT(Y)).\n"
LINKS = [(1, 2), (2, 3), (3, 4), (2, 5), (1, 3), (3, 6)]


def _maintainer(source, strategy="counting", **options):
    database = Database()
    database.insert_rows("link", LINKS)
    return ViewMaintainer.from_source(
        source, database, strategy=strategy, **options
    ).initialize()


def assert_adopted(maintainer):
    """Each view's states equal a fresh fold of its grouped relation, and
    the stored view equals the results of those states."""
    resolver = Resolver(maintainer.database, maintainer.views)
    assert maintainer.aggregate_views
    for name, view in maintainer.aggregate_views.items():
        grouped = resolver.relation(view.aggregate.relation.predicate)
        fresh = AggregateView(view.rule, view.unit_counts)
        fresh.initialize(grouped)
        assert view._states == fresh._states
        assert maintainer.views[name].to_dict() == view.relation().to_dict()


class TestAdoption:
    @pytest.mark.parametrize("strategy", ["counting", "dred"])
    def test_initialize(self, strategy):
        assert_adopted(_maintainer(HOP + MIN_HOP + FAN, strategy))

    @pytest.mark.parametrize("strategy", ["counting", "dred"])
    def test_refresh(self, strategy):
        maintainer = _maintainer(HOP + MIN_HOP + FAN, strategy)
        maintainer.database.insert("link", (4, 1))  # outside maintenance
        maintainer.refresh()
        assert_adopted(maintainer)
        assert (4, 2) in maintainer.views["min_hop"]

    def test_forced_recompute_fallback(self):
        maintainer = _maintainer(
            HOP + MIN_HOP + FAN, guard=GuardPolicy(force_fallback=True)
        )
        report = maintainer.apply(
            Changeset().delete("link", (2, 3)).insert("link", (5, 0))
        )
        assert report.strategy == "recompute"
        assert_adopted(maintainer)
        maintainer.consistency_check()

    def test_alter_adding_a_groupby_rule(self):
        maintainer = _maintainer(HOP, "dred")
        maintainer.alter(add=[MIN_HOP.strip(), FAN.strip()])
        assert set(maintainer.aggregate_views) == {"min_hop", "fan"}
        assert_adopted(maintainer)
        maintainer.apply(Changeset().delete("link", (2, 3)))
        assert_adopted(maintainer)
        maintainer.consistency_check()

    def test_one_fold_per_aggregate_per_initialize(self, monkeypatch):
        folds = []
        fold = AggregateView.fold

        def counted(view, triples):
            folds.append(view.aggregate)
            return fold(view, triples)

        monkeypatch.setattr(AggregateView, "fold", counted)
        maintainer = _maintainer(HOP + MIN_HOP + FAN)
        assert len(folds) == 2
        assert set(folds) == {
            view.aggregate for view in maintainer.aggregate_views.values()
        }
        folds.clear()
        maintainer.initialize()
        assert len(folds) == 2

    def test_two_rules_over_one_subgoal_own_separate_states(self):
        twin = MIN_HOP.replace("min_hop", "twin")
        maintainer = _maintainer(HOP + MIN_HOP + twin)
        views = maintainer.aggregate_views
        assert views["min_hop"]._states is not views["twin"]._states
        maintainer.apply(Changeset().insert("link", (0, 1)))
        assert_adopted(maintainer)
        maintainer.consistency_check()


@pytest.mark.parametrize("strategy", ["counting", "dred"])
@pytest.mark.parametrize("head, expected", [
    ("t(M, R)", {(13, "a"), (5, "b")}),
    ("t(M)", {(13,), (5,)}),
    ("t(R, M, R)", {("a", 13, "a"), ("b", 5, "b")}),
])
def test_a_head_other_than_group_and_result_is_maintained(
    strategy, head, expected
):
    database = Database()
    database.insert_rows("sales", [("a", 1), ("a", 2), ("b", 5)])
    maintainer = ViewMaintainer.from_source(
        f"{head} :- GROUPBY(sales(R, C), [R], M = SUM(C)).",
        database, strategy=strategy,
    ).initialize()
    maintainer.apply(Changeset().insert("sales", ("a", 10)))
    assert maintainer.relation("t").as_set() == expected
    maintainer.consistency_check()
