"""Tests for the SQL front-end: parsing, translation, and maintenance."""

import pytest

from repro.errors import ParseError, SchemaError, UnknownRelationError
from repro.sql import Catalog, create_views, parse_sql, translate_sql
from repro.storage.changeset import Changeset
from repro.storage.database import Database


def link_catalog() -> Catalog:
    return Catalog().declare_table("link", ["s", "d"])


HOP_SQL = (
    "CREATE VIEW hop AS "
    "SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;"
)


class TestCatalog:
    def test_declare_and_lookup(self):
        catalog = link_catalog()
        assert catalog.columns("link") == ("s", "d")
        assert catalog.column_index("link", "d") == 1

    def test_case_insensitive(self):
        catalog = Catalog().declare_table("Link", ["S", "D"])
        assert catalog.columns("LINK") == ("s", "d")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Catalog().declare_table("t", ["a", "a"])

    def test_conflicting_redeclaration_rejected(self):
        catalog = link_catalog()
        with pytest.raises(SchemaError):
            catalog.declare_table("link", ["x", "y"])

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            link_catalog().columns("ghost")

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            link_catalog().column_index("link", "zzz")


class TestParser:
    def test_create_view_basic(self):
        views = parse_sql(HOP_SQL)
        assert len(views) == 1
        assert views[0].name == "hop"
        select = views[0].query.first
        assert len(select.tables) == 2
        assert select.tables[0].alias == "r1"

    def test_explicit_columns(self):
        views = parse_sql("CREATE VIEW v (a, b) AS SELECT x, y FROM t;")
        assert views[0].columns == ("a", "b")

    def test_union_and_except_chain(self):
        views = parse_sql(
            "CREATE VIEW v AS SELECT x FROM a UNION SELECT x FROM b "
            "EXCEPT SELECT x FROM c;"
        )
        ops = [op for op, _ in views[0].query.rest]
        assert ops == ["UNION", "EXCEPT"]

    def test_union_all(self):
        views = parse_sql(
            "CREATE VIEW v AS SELECT x FROM a UNION ALL SELECT x FROM b;"
        )
        assert views[0].query.rest[0][0] == "UNION ALL"

    def test_group_by_with_aggregates(self):
        views = parse_sql(
            "CREATE VIEW v AS SELECT s, MIN(c), COUNT(*) FROM t GROUP BY s;"
        )
        select = views[0].query.first
        assert len(select.group_by) == 1
        assert select.items[1].expr.function == "MIN"
        assert select.items[2].expr.argument is None  # COUNT(*)

    def test_not_exists(self):
        views = parse_sql(
            "CREATE VIEW v AS SELECT t.x FROM t "
            "WHERE NOT EXISTS (SELECT * FROM u WHERE u.x = t.x);"
        )
        assert views[0].query.first.where is not None

    def test_string_literal_with_quote(self):
        views = parse_sql(
            "CREATE VIEW v AS SELECT t.x FROM t WHERE t.x = 'it''s';"
        )
        comparison = views[0].query.first.where
        assert comparison.right.value == "it's"

    def test_sql_comments(self):
        views = parse_sql(
            "-- header comment\nCREATE VIEW v AS SELECT x FROM t;"
        )
        assert views[0].name == "v"

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_sql("CREATE TABLE nope;")

    def test_multiple_statements(self):
        views = parse_sql(
            "CREATE VIEW a AS SELECT x FROM t; "
            "CREATE VIEW b AS SELECT x FROM a;"
        )
        assert [v.name for v in views] == ["a", "b"]


class TestTranslation:
    def test_join_becomes_shared_variables(self):
        program = translate_sql(link_catalog(), HOP_SQL)
        rule = program.rules[0]
        assert rule.head.predicate == "hop"
        # The join column appears in both body literals.
        first_args = set(rule.body[0].args)
        second_args = set(rule.body[1].args)
        assert first_args & second_args

    def test_example_1_1_via_sql(self, example_1_1_db):
        maintainer = create_views(HOP_SQL, link_catalog(), example_1_1_db)
        maintainer.initialize()
        assert maintainer.relation("hop").to_dict() == {
            ("a", "c"): 2, ("a", "e"): 1,
        }
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert maintainer.relation("hop").to_dict() == {("a", "c"): 1}

    def test_view_over_view(self, example_1_1_db):
        sql = HOP_SQL + (
            "CREATE VIEW tri_hop AS SELECT h.s, r.d FROM hop h, link r "
            "WHERE h.d = r.s;"
        )
        maintainer = create_views(sql, link_catalog(), example_1_1_db)
        maintainer.initialize()
        maintainer.consistency_check()

    def test_not_exists_translation(self, example_6_1_db):
        sql = HOP_SQL + (
            "CREATE VIEW tri_hop AS SELECT h.s, r.d FROM hop h, link r "
            "WHERE h.d = r.s;"
            "CREATE VIEW only_tri_hop AS SELECT t.s, t.d FROM tri_hop t "
            "WHERE NOT EXISTS (SELECT * FROM hop h WHERE h.s = t.s "
            "AND h.d = t.d);"
        )
        maintainer = create_views(sql, link_catalog(), example_6_1_db)
        maintainer.initialize()
        assert maintainer.relation("only_tri_hop").as_set() == {("a", "k")}

    def test_constant_filter(self, example_1_1_db):
        sql = "CREATE VIEW from_a AS SELECT l.d FROM link l WHERE l.s = 'a';"
        maintainer = create_views(sql, link_catalog(), example_1_1_db)
        maintainer.initialize()
        assert maintainer.relation("from_a").as_set() == {("b",), ("d",)}

    def test_or_splits_into_rules(self):
        sql = (
            "CREATE VIEW v AS SELECT l.s, l.d FROM link l "
            "WHERE l.s = 'a' OR l.d = 'c';"
        )
        program = translate_sql(link_catalog(), sql)
        assert len(program.rules_for("v")) == 2

    def test_group_by_min(self):
        catalog = Catalog().declare_table("link", ["s", "d", "c"])
        sql = (
            "CREATE VIEW cheapest AS SELECT l.s, MIN(l.c) FROM link l "
            "GROUP BY l.s;"
        )
        db = Database()
        db.insert_rows("link", [("a", "b", 3), ("a", "c", 1), ("b", "c", 7)])
        maintainer = create_views(sql, catalog, db)
        maintainer.initialize()
        assert maintainer.relation("cheapest").as_set() == {
            ("a", 1), ("b", 7),
        }

    def test_multiple_aggregates_in_one_view(self):
        catalog = Catalog().declare_table("sales", ["region", "amount"])
        sql = (
            "CREATE VIEW stats AS SELECT s.region, COUNT(*), SUM(s.amount) "
            "FROM sales s GROUP BY s.region;"
        )
        db = Database()
        db.insert_rows(
            "sales", [("east", 10), ("east", 5), ("west", 7)]
        )
        maintainer = create_views(sql, catalog, db)
        maintainer.initialize()
        assert maintainer.relation("stats").as_set() == {
            ("east", 2, 15), ("west", 1, 7),
        }

    def test_union(self):
        catalog = (
            Catalog().declare_table("a", ["x"]).declare_table("b", ["x"])
        )
        sql = "CREATE VIEW v AS SELECT x FROM a UNION SELECT x FROM b;"
        db = Database()
        db.insert_rows("a", [(1,), (2,)])
        db.insert_rows("b", [(2,), (3,)])
        maintainer = create_views(sql, catalog, db, strategy="dred")
        maintainer.initialize()
        assert maintainer.relation("v").as_set() == {(1,), (2,), (3,)}

    def test_except(self):
        catalog = (
            Catalog().declare_table("a", ["x"]).declare_table("b", ["x"])
        )
        sql = "CREATE VIEW v AS SELECT x FROM a EXCEPT SELECT x FROM b;"
        db = Database()
        db.insert_rows("a", [(1,), (2,)])
        db.insert_rows("b", [(2,)])
        maintainer = create_views(sql, catalog, db, strategy="dred")
        maintainer.initialize()
        assert maintainer.relation("v").as_set() == {(1,)}
        maintainer.apply(Changeset().insert("b", (1,)))
        assert maintainer.relation("v").as_set() == set()

    def test_select_star(self):
        sql = "CREATE VIEW copy AS SELECT * FROM link;"
        program = translate_sql(link_catalog(), sql)
        assert program.arity_of("copy") == 2

    def test_arity_mismatch_in_union_rejected(self):
        catalog = (
            Catalog().declare_table("a", ["x"]).declare_table("b", ["x", "y"])
        )
        with pytest.raises(SchemaError, match="column counts"):
            translate_sql(
                catalog,
                "CREATE VIEW v AS SELECT x FROM a UNION SELECT x, y FROM b;",
            )

    def test_ambiguous_bare_column_rejected(self):
        sql = "CREATE VIEW v AS SELECT s FROM link r1, link r2;"
        with pytest.raises(SchemaError, match="ambiguous"):
            translate_sql(link_catalog(), sql)

    def test_aggregate_without_group_by_rejected_with_plain_column(self):
        sql = "CREATE VIEW v AS SELECT l.s, MIN(l.d) FROM link l;"
        with pytest.raises(SchemaError, match="GROUP BY"):
            translate_sql(link_catalog(), sql)

    def test_arithmetic_in_select(self):
        catalog = Catalog().declare_table("link", ["s", "d", "c"])
        sql = (
            "CREATE VIEW doubled AS SELECT l.s, l.c * 2 AS twice "
            "FROM link l;"
        )
        db = Database()
        db.insert_rows("link", [("a", "b", 3)])
        maintainer = create_views(sql, catalog, db)
        maintainer.initialize()
        assert maintainer.relation("doubled").as_set() == {("a", 6)}

    def test_inequality_correlated_not_exists_rejected(self):
        sql = (
            "CREATE VIEW v AS SELECT t.s, t.d FROM link t WHERE NOT EXISTS "
            "(SELECT * FROM link u WHERE u.s < t.s);"
        )
        with pytest.raises(SchemaError, match="correlate"):
            translate_sql(link_catalog(), sql)


class TestEndToEndMaintenance:
    def test_sql_views_maintained_incrementally(self, example_6_1_db):
        sql = HOP_SQL + (
            "CREATE VIEW tri_hop AS SELECT h.s, r.d FROM hop h, link r "
            "WHERE h.d = r.s;"
            "CREATE VIEW only_tri_hop AS SELECT t.s, t.d FROM tri_hop t "
            "WHERE NOT EXISTS (SELECT * FROM hop h WHERE h.s = t.s "
            "AND h.d = t.d);"
        )
        maintainer = create_views(sql, link_catalog(), example_6_1_db)
        maintainer.initialize()
        maintainer.apply(
            Changeset().delete("link", ("a", "b")).insert("link", ("k", "a"))
        )
        maintainer.consistency_check()

    def test_group_by_view_maintained(self):
        catalog = Catalog().declare_table("sales", ["region", "amount"])
        sql = (
            "CREATE VIEW totals AS SELECT s.region, SUM(s.amount) "
            "FROM sales s GROUP BY s.region;"
        )
        db = Database()
        db.insert_rows("sales", [("east", 10), ("west", 7)])
        maintainer = create_views(sql, catalog, db)
        maintainer.initialize()
        maintainer.apply(Changeset().insert("sales", ("east", 5)))
        assert maintainer.relation("totals").as_set() == {
            ("east", 15), ("west", 7),
        }
        maintainer.consistency_check()
