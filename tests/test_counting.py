"""Tests for the counting algorithm (Algorithm 4.1, Sections 4–6)."""

import random

import pytest

from repro.baselines.recount import true_view_deltas
from repro.core.counting import delta_neg_relation
from repro.core.maintenance import ViewMaintainer
from repro.datalog.parser import parse_program
from repro.errors import MaintenanceError
from repro.storage.changeset import Changeset
from repro.storage.relation import CountedRelation
from repro.workloads import mixed_batch, random_graph

from conftest import (
    EXAMPLE_4_2_LINKS,
    HOP_SRC,
    HOP_TRI_SRC,
    ONLY_TRI_SRC,
    database_with,
)


def _maintainer(source, edges, **kwargs):
    return ViewMaintainer.from_source(
        source, database_with(edges), **kwargs
    ).initialize()


class TestBasics:
    def test_single_deletion_example_1_1(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert maintainer.relation("hop").to_dict() == {("a", "c"): 1}
        assert report.delta("hop").to_dict() == {
            ("a", "c"): -1, ("a", "e"): -1,
        }

    def test_insertion(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        maintainer.apply(Changeset().insert("link", ("e", "f")))
        assert maintainer.relation("hop").count(("b", "f")) == 1

    def test_update_helper(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        maintainer.apply(Changeset().update("link", ("a", "b"), ("a", "x")))
        assert ("a", "c") in maintainer.relation("hop")
        assert maintainer.relation("hop").count(("a", "c")) == 1

    def test_base_relation_updated_too(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert ("a", "b") not in example_1_1_db.relation("link")

    def test_empty_changeset_no_op(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        report = maintainer.apply(Changeset())
        assert report.total_changes() == 0

    def test_deleting_missing_row_rejected(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        with pytest.raises(MaintenanceError):
            maintainer.apply(Changeset().delete("link", ("no", "pe")))

    def test_changing_derived_relation_rejected(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        with pytest.raises(MaintenanceError, match="derived"):
            maintainer.apply(Changeset().insert("hop", ("a", "z")))

    def test_irrelevant_base_change_cheap(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        report = maintainer.apply(Changeset().insert("unrelated", ("q",)))
        assert report.total_changes() == 0


class TestPaperTraces:
    """Example 4.2 (duplicate semantics) and Example 5.1 (set)."""

    CHANGES = (
        Changeset()
        .delete("link", ("a", "b"))
        .insert("link", ("d", "f"))
        .insert("link", ("a", "f"))
    )

    @pytest.mark.parametrize("mode", ["expansion", "factored"])
    def test_example_4_2(self, mode):
        maintainer = _maintainer(
            HOP_TRI_SRC,
            EXAMPLE_4_2_LINKS,
            semantics="duplicate",
            counting_mode=mode,
        )
        report = maintainer.apply(self.CHANGES.copy())
        assert report.delta("hop").to_dict() == {
            ("a", "c"): -1, ("a", "f"): 1, ("a", "g"): 1, ("d", "g"): 1,
        }
        assert maintainer.relation("hop").to_dict() == {
            ("a", "c"): 1, ("a", "f"): 1, ("a", "g"): 1,
            ("d", "g"): 1, ("d", "h"): 1, ("b", "h"): 1,
        }
        assert report.delta("tri_hop").to_dict() == {
            ("a", "h"): -1, ("a", "g"): 1,
        }
        assert maintainer.relation("tri_hop").to_dict() == {
            ("a", "h"): 1, ("a", "g"): 1,
        }

    def test_example_5_1_set_optimization(self):
        maintainer = _maintainer(HOP_TRI_SRC, EXAMPLE_4_2_LINKS)
        report = maintainer.apply(self.CHANGES.copy())
        cascaded = report.counting.cascaded["hop"]
        # hop(a,c) lost a derivation but stays in the set: not cascaded.
        assert cascaded.to_dict() == {
            ("a", "f"): 1, ("a", "g"): 1, ("d", "g"): 1,
        }
        # Consequently tri_hop never sees (a, h, −1).
        assert report.delta("tri_hop").to_dict() == {("a", "g"): 1}
        assert report.counting.stats.cascades_suppressed == 1


class TestModesAgree:
    @pytest.mark.parametrize("semantics", ["set", "duplicate"])
    def test_factored_equals_expansion(self, semantics):
        edges = random_graph(40, 140, seed=1)
        changes, _ = mixed_batch("link", edges, 5, 5, node_count=40, seed=2)
        results = {}
        for mode in ("expansion", "factored"):
            maintainer = _maintainer(
                ONLY_TRI_SRC if semantics == "set" else HOP_TRI_SRC,
                edges,
                semantics=semantics,
                counting_mode=mode,
            )
            report = maintainer.apply(changes.copy())
            results[mode] = {
                view: maintainer.relation(view).to_dict()
                for view in maintainer.view_names()
            }
        assert results["expansion"] == results["factored"]


class TestTheorem41:
    """The computed delta equals countⁿ(t) − count(t), exactly."""

    @pytest.mark.parametrize("semantics", ["set", "duplicate"])
    def test_randomized_exactness(self, semantics):
        program = parse_program(HOP_TRI_SRC)
        for seed in range(5):
            edges = random_graph(30, 110, seed=seed)
            changes, _ = mixed_batch(
                "link", edges, 4, 4, node_count=30, seed=seed + 50
            )
            db = database_with(edges)
            truth = true_view_deltas(program, db, changes, semantics)
            maintainer = ViewMaintainer.from_source(
                HOP_TRI_SRC, db, semantics=semantics
            ).initialize()
            report = maintainer.apply(changes.copy())
            for view in ("hop", "tri_hop"):
                expected = truth[view].to_dict() if view in truth else {}
                assert report.delta(view).to_dict() == expected, (
                    f"seed={seed} view={view}"
                )

    def test_lemma_4_1_no_negative_counts_stored(self):
        edges = random_graph(25, 90, seed=9)
        maintainer = _maintainer(HOP_TRI_SRC, edges)
        changes, _ = mixed_batch("link", edges, 10, 0, node_count=25, seed=10)
        maintainer.apply(changes)
        for view in maintainer.view_names():
            maintainer.relation(view).assert_nonnegative()


class TestNegation:
    def test_deletion_makes_negation_true(self, example_6_1_db):
        maintainer = ViewMaintainer.from_source(
            ONLY_TRI_SRC, example_6_1_db
        ).initialize()
        # Deleting link(a,b) kills hop(a,d)'s derivations through b... it
        # has another via e; delete both supports.
        maintainer.apply(
            Changeset().delete("link", ("a", "b")).delete("link", ("a", "e"))
        )
        maintainer.consistency_check()

    def test_insertion_makes_negation_false(self, example_6_1_db):
        maintainer = ViewMaintainer.from_source(
            ONLY_TRI_SRC, example_6_1_db
        ).initialize()
        # Inserting a 2-link path a→k removes (a,k) from only_tri_hop.
        maintainer.apply(Changeset().insert("link", ("a", "h")))
        assert ("a", "k") not in maintainer.relation("only_tri_hop")
        maintainer.consistency_check()

    def test_randomized_negation_consistency(self):
        for seed in range(5):
            edges = random_graph(20, 60, seed=seed)
            maintainer = _maintainer(ONLY_TRI_SRC, edges)
            changes, _ = mixed_batch(
                "link", edges, 3, 3, node_count=20, seed=seed + 30
            )
            maintainer.apply(changes)
            maintainer.consistency_check()

    def test_delta_neg_relation_duplicate_mode(self):
        """Definition 6.1 on real counts."""
        old = CountedRelation("q")
        old.add(("gone",), 1)
        old.add(("shrunk",), 2)
        delta = CountedRelation("Δq")
        delta.add(("gone",), -1)     # leaves the set → Δ¬ = +1
        delta.add(("shrunk",), -1)   # count 2→1, still present → nothing
        delta.add(("new",), 1)       # enters the set → Δ¬ = −1
        result = delta_neg_relation(old, delta)
        assert result.to_dict() == {("gone",): 1, ("new",): -1}


class TestAggregation:
    MIN_SRC = """
    hop(S, D, C1 + C2) :- link(S, I, C1), link(I, D, C2).
    min_cost_hop(S, D, M) :- GROUPBY(hop(S, D, C), [S, D], M = MIN(C)).
    """
    LINKS = [("a", "b", 1), ("b", "c", 2), ("b", "e", 5), ("a", "d", 2),
             ("d", "c", 1)]

    def test_example_6_2_initialization(self):
        maintainer = _maintainer(self.MIN_SRC, self.LINKS)
        assert maintainer.relation("min_cost_hop").as_set() == {
            ("a", "c", 3), ("a", "e", 6),
        }

    def test_insert_improves_minimum(self):
        maintainer = _maintainer(self.MIN_SRC, self.LINKS)
        report = maintainer.apply(
            Changeset().insert("link", ("a", "x", 1)).insert(
                "link", ("x", "c", 1))
        )
        assert maintainer.relation("min_cost_hop").count(("a", "c", 2)) == 1
        assert ("a", "c", 3) not in maintainer.relation("min_cost_hop")
        delta = report.delta("min_cost_hop").to_dict()
        assert delta[("a", "c", 3)] == -1
        assert delta[("a", "c", 2)] == 1
        maintainer.consistency_check()

    def test_insert_not_improving_minimum_changes_nothing(self):
        maintainer = _maintainer(self.MIN_SRC, self.LINKS)
        report = maintainer.apply(
            Changeset().insert("link", ("a", "y", 9)).insert(
                "link", ("y", "c", 9))
        )
        assert ("a", "c", 3) in maintainer.relation("min_cost_hop")
        assert ("a", "c", 18) not in maintainer.relation("min_cost_hop")
        maintainer.consistency_check()

    def test_delete_extremum_recomputes_group(self):
        maintainer = _maintainer(self.MIN_SRC, self.LINKS)
        maintainer.apply(Changeset().delete("link", ("a", "b", 1)))
        # Only path a→c is now via d with cost 3; a→e disappears.
        assert maintainer.relation("min_cost_hop").as_set() == {("a", "c", 3)}
        maintainer.consistency_check()

    def test_group_disappears(self):
        maintainer = _maintainer(self.MIN_SRC, self.LINKS)
        maintainer.apply(
            Changeset().delete("link", ("b", "e", 5))
        )
        assert ("a", "e", 6) not in maintainer.relation("min_cost_hop")
        maintainer.consistency_check()

    def test_randomized_aggregate_consistency(self):
        rng = random.Random(77)
        for seed in range(4):
            raw = random_graph(15, 45, seed=seed)
            edges = [(a, b, rng.randint(1, 9)) for a, b in raw]
            maintainer = _maintainer(self.MIN_SRC, edges)
            victims = rng.sample(edges, 3)
            changes = Changeset()
            for victim in victims:
                changes.delete("link", victim)
            changes.insert("link", (0, 1, rng.randint(1, 9)))
            maintainer.apply(changes)
            maintainer.consistency_check()


class TestStats:
    def test_stats_populated(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        stats = report.counting.stats
        assert stats.rules_fired >= 1
        assert stats.variants_evaluated >= 1
        assert stats.seconds > 0
