"""Tests for DRed (Section 7): delete, rederive, insert — per stratum."""

import random

import pytest

from repro.core.maintenance import ViewMaintainer
from repro.errors import MaintenanceError
from repro.eval.stratified import materialize
from repro.datalog.parser import parse_program
from repro.storage.changeset import Changeset
from repro.workloads import chain, grid, mixed_batch, random_graph, with_costs

from conftest import HOP_SRC, TC_SRC, database_with


def _dred(source, edges, relation="link"):
    return ViewMaintainer.from_source(
        source, database_with(edges, relation), strategy="dred"
    ).initialize()


class TestExample11:
    def test_delete_then_rederive(self, example_1_1_db):
        """Example 1.1: DRed deletes hop(a,c) and hop(a,e), rederives (a,c)."""
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert maintainer.relation("hop").as_set() == {("a", "c")}
        stats = report.dred.stats
        assert stats.overestimated == 2   # both hop tuples depend on (a,b)
        assert stats.rederived == 1       # (a,c) has the alternative via d
        assert stats.deleted == 1


class TestTransitiveClosure:
    def test_single_edge_deletion(self):
        maintainer = _dred(TC_SRC, chain(5))
        maintainer.apply(Changeset().delete("link", (2, 3)))
        tc = maintainer.relation("tc").as_set()
        assert (0, 2) in tc
        assert (0, 3) not in tc
        assert (3, 5) in tc

    def test_single_edge_insertion(self):
        maintainer = _dred(TC_SRC, [(0, 1), (2, 3)])
        maintainer.apply(Changeset().insert("link", (1, 2)))
        assert (0, 3) in maintainer.relation("tc")

    def test_insert_creating_cycle(self):
        maintainer = _dred(TC_SRC, chain(3))
        maintainer.apply(Changeset().insert("link", (3, 0)))
        assert (2, 1) in maintainer.relation("tc")
        maintainer.consistency_check()

    def test_delete_breaking_cycle(self):
        maintainer = _dred(TC_SRC, [(0, 1), (1, 2), (2, 0)])
        maintainer.apply(Changeset().delete("link", (2, 0)))
        assert maintainer.relation("tc").as_set() == {
            (0, 1), (0, 2), (1, 2),
        }

    def test_alternative_path_survives(self):
        edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
        maintainer = _dred(TC_SRC, edges)
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert ("a", "d") in maintainer.relation("tc")

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_differential(self, seed):
        edges = random_graph(14, 26, seed=seed)
        maintainer = _dred(TC_SRC, edges)
        changes, _ = mixed_batch(
            "link", edges, 3, 3, node_count=14, seed=seed + 100
        )
        maintainer.apply(changes.copy())
        db = database_with(edges)
        db.apply_changeset(changes)
        oracle = materialize(parse_program(TC_SRC), db)
        assert maintainer.relation("tc").as_set() == oracle["tc"].as_set()

    def test_grid_many_alternative_derivations(self):
        maintainer = _dred(TC_SRC, grid(5, 5))
        maintainer.apply(Changeset().delete("link", ((0, 0), (1, 0))))
        maintainer.consistency_check()

    def test_sequential_batches(self):
        edges = random_graph(16, 32, seed=3)
        maintainer = _dred(TC_SRC, edges)
        current = edges
        for round_seed in range(4):
            changes, current = mixed_batch(
                "link", current, 2, 2, node_count=16, seed=round_seed
            )
            maintainer.apply(changes)
        maintainer.consistency_check()


class TestSetCanonicalization:
    def test_inserting_existing_row_is_noop(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        before = maintainer.relation("tc").to_dict()
        report = maintainer.apply(Changeset().insert("link", ("a", "b")))
        assert maintainer.relation("tc").to_dict() == before
        assert report.total_changes() == 0

    def test_deleting_missing_row_rejected(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        with pytest.raises(MaintenanceError):
            maintainer.apply(Changeset().delete("link", ("zz", "qq")))

    def test_view_counts_are_all_one(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        assert set(maintainer.relation("hop").to_dict().values()) == {1}


class TestNegationThroughStrata:
    SRC = TC_SRC + """
    node(X) :- link(X, Y).
    node(Y) :- link(X, Y).
    unreachable(X, Y) :- node(X), node(Y), not tc(X, Y).
    """

    def test_deletion_grows_complement(self):
        maintainer = _dred(self.SRC, chain(3))
        assert (3, 0) in maintainer.relation("unreachable")
        maintainer.apply(Changeset().delete("link", (1, 2)))
        assert (0, 3) in maintainer.relation("unreachable")
        maintainer.consistency_check()

    def test_insertion_shrinks_complement(self):
        maintainer = _dred(self.SRC, [(0, 1), (2, 3)])
        assert (0, 3) in maintainer.relation("unreachable")
        maintainer.apply(Changeset().insert("link", (1, 2)))
        assert (0, 3) not in maintainer.relation("unreachable")
        maintainer.consistency_check()

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized(self, seed):
        edges = random_graph(10, 18, seed=seed)
        maintainer = _dred(self.SRC, edges)
        changes, _ = mixed_batch(
            "link", edges, 2, 2, node_count=10, seed=seed + 40
        )
        maintainer.apply(changes)
        maintainer.consistency_check()


class TestAggregationOverRecursion:
    SRC = """
    path(X, Y, C) :- link(X, Y, C).
    path(X, Y, C1 + C2) :- path(X, Z, C1), link(Z, Y, C2), C1 + C2 < 30.
    min_path(X, Y, M) :- GROUPBY(path(X, Y, C), [X, Y], M = MIN(C)).
    """

    def test_deletion_raises_minimum(self):
        edges = [("a", "b", 1), ("b", "c", 1), ("a", "c", 9)]
        maintainer = _dred(self.SRC, edges)
        assert ("a", "c", 2) in maintainer.relation("min_path")
        maintainer.apply(Changeset().delete("link", ("a", "b", 1)))
        assert maintainer.relation("min_path").count(("a", "c", 9)) == 1
        maintainer.consistency_check()

    def test_insertion_lowers_minimum(self):
        edges = [("a", "c", 9)]
        maintainer = _dred(self.SRC, edges)
        maintainer.apply(
            Changeset().insert("link", ("a", "b", 1)).insert(
                "link", ("b", "c", 1))
        )
        assert ("a", "c", 2) in maintainer.relation("min_path")
        maintainer.consistency_check()

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized(self, seed):
        rng = random.Random(seed)
        edges = with_costs(random_graph(8, 14, seed=seed), 1, 9, seed=seed)
        maintainer = _dred(self.SRC, edges)
        changes = Changeset()
        for victim in rng.sample(edges, 2):
            changes.delete("link", victim)
        changes.insert("link", (0, 1, rng.randint(1, 9)))
        maintainer.apply(changes)
        maintainer.consistency_check()


class TestStats:
    def test_overestimate_at_least_net_deletions(self):
        edges = random_graph(15, 30, seed=5)
        maintainer = _dred(TC_SRC, edges)
        changes, _ = mixed_batch("link", edges, 4, 0, node_count=15, seed=6)
        report = maintainer.apply(changes)
        stats = report.dred.stats
        assert stats.overestimated >= stats.deleted
        assert stats.overestimated == stats.deleted + stats.rederived

    def test_insert_only_no_overestimate(self):
        maintainer = _dred(TC_SRC, chain(4))
        report = maintainer.apply(Changeset().insert("link", (4, 5)))
        assert report.dred.stats.overestimated == 0
        assert report.dred.stats.inserted > 0

    def test_report_delta_signed(self):
        maintainer = _dred(TC_SRC, chain(3))
        report = maintainer.apply(
            Changeset().delete("link", (2, 3)).insert("link", (3, 4))
        )
        delta = report.delta("tc").to_dict()
        assert delta[(2, 3)] == -1
        assert delta[(3, 4)] == 1
