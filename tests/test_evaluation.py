"""Tests for stratified materialization, semi-naive, and the naive oracle."""

import pytest

from repro.datalog.parser import parse_program
from repro.errors import MaintenanceError
from repro.eval.naive import naive_materialize
from repro.eval.rule_eval import Resolver
from repro.eval.seminaive import seminaive
from repro.eval.stratified import materialize, materialize_into
from repro.storage.database import Database
from repro.storage.relation import CountedRelation
from repro.workloads import grid, random_graph

from conftest import (
    HOP_TRI_SRC,
    ONLY_TRI_SRC,
    TC_SRC,
    database_with,
)


class TestStratifiedSetSemantics:
    def test_per_stratum_duplicate_counts(self, example_1_1_db):
        """Section 5.1: stored counts = derivations with lower strata at 1."""
        views = materialize(parse_program(HOP_TRI_SRC), example_1_1_db)
        assert views["hop"].to_dict() == {("a", "c"): 2, ("a", "e"): 1}

    def test_lower_stratum_read_as_set(self, example_4_2_db):
        views = materialize(parse_program(HOP_TRI_SRC), example_4_2_db)
        # hop(a,c) has count 2, but tri_hop counts it once per §5.1.
        assert views["hop"].count(("a", "c")) == 2
        assert views["tri_hop"].count(("a", "h")) == 1

    def test_negation(self, example_6_1_db):
        views = materialize(parse_program(ONLY_TRI_SRC), example_6_1_db)
        assert views["only_tri_hop"].as_set() == {("a", "k")}

    def test_input_database_untouched(self, example_1_1_db):
        before = example_1_1_db.copy()
        materialize(parse_program(HOP_TRI_SRC), example_1_1_db)
        assert example_1_1_db == before

    def test_empty_views_present(self):
        views = materialize(parse_program("p(X) :- q(X)."), Database())
        assert views["p"].to_dict() == {}


class TestStratifiedDuplicateSemantics:
    def test_counts_cascade(self, example_4_2_db):
        views = materialize(
            parse_program(HOP_TRI_SRC), example_4_2_db, "duplicate"
        )
        assert views["tri_hop"].to_dict() == {("a", "h"): 2}

    def test_base_multiplicities_honoured(self):
        db = Database()
        db.insert("link", ("a", "b"), 2)
        db.insert("link", ("b", "c"), 3)
        views = materialize(
            parse_program("hop(X,Y) :- link(X,Z), link(Z,Y)."), db, "duplicate"
        )
        assert views["hop"].count(("a", "c")) == 6

    def test_recursion_rejected(self, example_1_1_db):
        with pytest.raises(MaintenanceError, match="infinite"):
            materialize(parse_program(TC_SRC), example_1_1_db, "duplicate")


class TestRecursion:
    def test_transitive_closure(self, example_1_1_db):
        views = materialize(parse_program(TC_SRC), example_1_1_db)
        assert ("a", "c") in views["tc"]
        assert views["tc"].as_set() == naive_materialize(
            parse_program(TC_SRC), example_1_1_db
        )["tc"].as_set()

    def test_cyclic_graph_terminates(self):
        db = database_with([("a", "b"), ("b", "a")])
        views = materialize(parse_program(TC_SRC), db)
        assert views["tc"].as_set() == {
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
        }

    def test_matches_naive_on_random_graphs(self):
        program = parse_program(TC_SRC)
        for seed in range(4):
            db = database_with(random_graph(20, 40, seed=seed))
            fast = materialize(program, db)
            slow = naive_materialize(program, db)
            assert fast["tc"].as_set() == slow["tc"].as_set()

    def test_mutual_recursion(self):
        source = """
        reach_even(X) :- start(X).
        reach_odd(Y) :- reach_even(X), edge(X, Y).
        reach_even(Y) :- reach_odd(X), edge(X, Y).
        """
        db = Database()
        db.insert("start", (0,))
        db.insert_rows("edge", [(0, 1), (1, 2), (2, 3)])
        views = materialize(parse_program(source), db)
        assert views["reach_even"].as_set() == {(0,), (2,)}
        assert views["reach_odd"].as_set() == {(1,), (3,)}

    def test_recursion_with_negation_of_lower_stratum(self):
        source = """
        blocked(X, Y) :- barrier(X, Y).
        tc(X, Y) :- link(X, Y), not blocked(X, Y).
        tc(X, Y) :- tc(X, Z), link(Z, Y), not blocked(Z, Y).
        """
        db = database_with([("a", "b"), ("b", "c"), ("c", "d")])
        db.insert("barrier", ("b", "c"))
        views = materialize(parse_program(source), db)
        assert views["tc"].as_set() == {("a", "b"), ("c", "d")}


class TestSemiNaive:
    def test_prepopulated_targets_only_grow(self):
        program = parse_program(TC_SRC)
        db = database_with([("a", "b"), ("b", "c")])
        tc = CountedRelation("tc")
        tc.add(("z", "z"), 1)  # pre-existing row must survive
        added = seminaive(list(program.rules), {"tc": tc}, Resolver(db))
        assert ("z", "z") in tc
        assert ("a", "c") in tc
        assert ("z", "z") not in added["tc"]

    def test_added_reports_new_rows_only(self):
        program = parse_program(TC_SRC)
        db = database_with([("a", "b")])
        tc = CountedRelation("tc")
        tc.add(("a", "b"), 1)
        added = seminaive(list(program.rules), {"tc": tc}, Resolver(db))
        assert added["tc"].to_dict() == {}

    def test_fire_round0_gates_full_rules(self):
        program = parse_program(TC_SRC)
        db = database_with([("a", "b"), ("b", "c")])
        tc = CountedRelation("tc")
        added = seminaive(
            list(program.rules),
            {"tc": tc},
            Resolver(db),
            fire_round0=[False, False],
        )
        assert len(tc) == 0  # nothing seeds, nothing fires

    def test_max_rounds_bound(self):
        program = parse_program(TC_SRC)
        db = database_with([(i, i + 1) for i in range(50)])
        tc = CountedRelation("tc")
        seminaive(list(program.rules), {"tc": tc}, Resolver(db), max_rounds=2)
        full = materialize(program, db)["tc"]
        assert len(tc) < len(full)

    def test_grid_matches_naive(self):
        program = parse_program(TC_SRC)
        db = database_with(grid(4, 4))
        tc = CountedRelation("tc")
        seminaive(list(program.rules), {"tc": tc}, Resolver(db))
        assert tc.as_set() == naive_materialize(program, db)["tc"].as_set()


class TestMaterializeInto:
    def test_views_stored_in_database(self, example_1_1_db):
        materialize_into(parse_program(HOP_TRI_SRC), example_1_1_db)
        assert example_1_1_db.relation("hop").count(("a", "c")) == 2

    def test_repeated_call_replaces(self, example_1_1_db):
        materialize_into(parse_program(HOP_TRI_SRC), example_1_1_db)
        example_1_1_db.relation("link").discard(("a", "b"))
        materialize_into(parse_program(HOP_TRI_SRC), example_1_1_db)
        assert example_1_1_db.relation("hop").to_dict() == {("a", "c"): 1}
