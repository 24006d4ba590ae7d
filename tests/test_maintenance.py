"""Tests for the ViewMaintainer facade and maintenance reports."""

import pytest

from repro.core.maintenance import ViewMaintainer
from repro.errors import (
    MaintenanceError,
    SafetyError,
    StratificationError,
    StrategyError,
    UnknownRelationError,
)
from repro.storage.changeset import Changeset

from conftest import HOP_SRC, HOP_TRI_SRC, TC_SRC, database_with


class TestStrategySelection:
    def test_auto_picks_counting_for_nonrecursive(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(HOP_SRC, example_1_1_db)
        assert maintainer.strategy == "counting"

    def test_auto_picks_bf_for_recursive(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(TC_SRC, example_1_1_db)
        assert maintainer.strategy == "bf"

    def test_unknown_strategy_rejected_up_front(self, example_1_1_db):
        # Validated before any dispatch: an unknown string must raise a
        # typed StrategyError at construction, never fall through to
        # whatever engine the dispatch defaults to.
        with pytest.raises(StrategyError, match="unknown strategy"):
            ViewMaintainer.from_source(
                TC_SRC, example_1_1_db, strategy="dredd"
            )
        with pytest.raises(StrategyError, match="'auto', 'counting'"):
            ViewMaintainer.from_source(
                HOP_SRC, example_1_1_db, strategy=""
            )

    def test_counting_on_recursive_rejected(self, example_1_1_db):
        with pytest.raises(MaintenanceError, match="recursive"):
            ViewMaintainer.from_source(
                TC_SRC, example_1_1_db, strategy="counting"
            )

    def test_dred_allowed_on_nonrecursive(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert maintainer.relation("hop").as_set() == {("a", "c")}

    def test_dred_requires_set_semantics(self, example_1_1_db):
        with pytest.raises(MaintenanceError, match="set semantics"):
            ViewMaintainer.from_source(
                TC_SRC, example_1_1_db, strategy="dred", semantics="duplicate"
            )

    def test_bf_allowed_on_nonrecursive(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db, strategy="bf"
        ).initialize()
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert maintainer.relation("hop").as_set() == {("a", "c")}

    def test_bf_requires_set_semantics(self, example_1_1_db):
        with pytest.raises(StrategyError, match="set semantics"):
            ViewMaintainer.from_source(
                TC_SRC, example_1_1_db, strategy="bf", semantics="duplicate"
            )

    def test_unsafe_program_rejected_at_construction(self, example_1_1_db):
        with pytest.raises(SafetyError):
            ViewMaintainer.from_source("p(X, Y) :- link(X, Z).", example_1_1_db)

    def test_unstratified_program_rejected(self, example_1_1_db):
        with pytest.raises(StratificationError):
            ViewMaintainer.from_source(
                "p(X) :- link(X, Y), not p(X).", example_1_1_db
            )


class TestLifecycle:
    def test_apply_before_initialize_rejected(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(HOP_SRC, example_1_1_db)
        with pytest.raises(MaintenanceError, match="initialize"):
            maintainer.apply(Changeset().delete("link", ("a", "b")))

    def test_relation_before_initialize_rejected(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(HOP_SRC, example_1_1_db)
        with pytest.raises(MaintenanceError):
            maintainer.relation("hop")

    def test_initialize_returns_self(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(HOP_SRC, example_1_1_db)
        assert maintainer.initialize() is maintainer

    def test_relation_resolves_base_too(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        assert maintainer.relation("link").count(("a", "b")) == 1

    def test_unknown_relation_raises(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        with pytest.raises(UnknownRelationError):
            maintainer.relation("ghost")

    def test_view_names_hide_internal_helpers(self):
        db = database_with([("a", "b", 3)])
        maintainer = ViewMaintainer.from_source(
            "m(S, M) :- s(S), GROUPBY(link(S2, D, C), [S2], M = MIN(C)), "
            "S = S2.",
            db,
        )
        assert maintainer.view_names() == ["m"]


class TestReports:
    def test_report_fields(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert report.strategy == "counting"
        assert report.seconds > 0
        assert report.changed_views() == ["hop"]
        assert report.total_changes() == 2
        assert report.counting is not None
        assert report.dred is None

    def test_dred_report_fields(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert report.strategy == "dred"
        assert report.dred is not None
        assert report.counting is None

    def test_delta_for_unchanged_view_empty(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        report = maintainer.apply(Changeset().insert("link", ("z1", "z2")))
        assert len(report.delta("tri_hop")) == 0


class TestConsistencyCheck:
    def test_passes_after_maintenance(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        maintainer.consistency_check()

    def test_detects_corruption(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        maintainer.views["hop"].add(("bo", "gus"), 1)
        with pytest.raises(MaintenanceError, match="diverged"):
            maintainer.consistency_check()


class TestLongSequences:
    def test_many_small_batches_stay_consistent(self):
        from repro.workloads import mixed_batch, random_graph

        edges = random_graph(20, 70, seed=8)
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, database_with(edges)
        ).initialize()
        current = edges
        for seed in range(8):
            changes, current = mixed_batch(
                "link", current, 2, 2, node_count=20, seed=seed
            )
            maintainer.apply(changes)
        maintainer.consistency_check()

    def test_apply_then_inverse_restores(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        before = {
            view: maintainer.relation(view).to_dict()
            for view in maintainer.view_names()
        }
        changes = (
            Changeset().delete("link", ("a", "b")).insert("link", ("x", "y"))
        )
        maintainer.apply(changes)
        maintainer.apply(changes.inverted())
        after = {
            view: maintainer.relation(view).to_dict()
            for view in maintainer.view_names()
        }
        assert before == after
