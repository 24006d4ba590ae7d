"""Tests for why-provenance (derivation enumeration and trees)."""

import pytest

from repro.core.maintenance import ViewMaintainer
from repro.errors import UnknownRelationError
from repro.storage.changeset import Changeset

from conftest import HOP_SRC, HOP_TRI_SRC, TC_SRC, database_with


@pytest.fixture
def maintainer(example_1_1_db):
    return ViewMaintainer.from_source(HOP_SRC, example_1_1_db).initialize()


class TestImmediateDerivations:
    def test_count_matches_derivations(self, maintainer):
        """Example 1.1: hop(a,c) has exactly the two derivations."""
        derivations = maintainer.explain_tuple("hop", ("a", "c"))
        assert len(derivations) == 2
        bodies = {d.body for d in derivations}
        assert bodies == {
            (("link", ("a", "b")), ("link", ("b", "c"))),
            (("link", ("a", "d")), ("link", ("d", "c"))),
        }
        assert maintainer.relation("hop").count(("a", "c")) == 2

    def test_single_derivation(self, maintainer):
        derivations = maintainer.explain_tuple("hop", ("a", "e"))
        assert len(derivations) == 1
        assert derivations[0].body == (
            ("link", ("a", "b")), ("link", ("b", "e")),
        )

    def test_non_member_has_no_derivations(self, maintainer):
        assert maintainer.explain_tuple("hop", ("z", "q")) == []

    def test_after_maintenance(self, maintainer):
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert len(maintainer.explain_tuple("hop", ("a", "c"))) == 1
        assert maintainer.explain_tuple("hop", ("a", "e")) == []

    def test_base_relation_rejected(self, maintainer):
        with pytest.raises(UnknownRelationError):
            maintainer.explain_tuple("link", ("a", "b"))

    def test_counts_cross_check_on_every_tuple(self, example_6_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_6_1_db
        ).initialize()
        for view in ("hop", "tri_hop"):
            for row, count in maintainer.relation(view).items():
                assert len(maintainer.explain_tuple(view, row)) == count

    def test_multi_rule_union_view(self):
        db = database_with([("a", "b")])
        db.insert_rows("extra", [("a", "b")])
        maintainer = ViewMaintainer.from_source(
            "edge(X, Y) :- link(X, Y).\nedge(X, Y) :- extra(X, Y).",
            db,
        ).initialize()
        derivations = maintainer.explain_tuple("edge", ("a", "b"))
        assert len(derivations) == 2
        rules = {d.rule.body[0].predicate for d in derivations}
        assert rules == {"link", "extra"}

    def test_str_rendering(self, maintainer):
        derivation = maintainer.explain_tuple("hop", ("a", "e"))[0]
        text = str(derivation)
        assert "hop('a', 'e')" in text
        assert "link('a', 'b')" in text


class TestDerivationTree:
    def test_tree_reaches_base_facts(self, example_4_2_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_4_2_db
        ).initialize()
        tree = maintainer.explain_tree("tri_hop", ("a", "h"))
        rendered = tree.render()
        assert "tri_hop('a', 'h')" in rendered
        assert "(base fact)" in rendered
        assert "hop(" in rendered

    def test_tree_none_for_non_member(self, maintainer):
        assert maintainer.explain_tree("hop", ("z", "z")) is None

    def test_recursive_tree_depth_guard(self):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, database_with([(i, i + 1) for i in range(30)]),
            strategy="dred",
        ).initialize()
        tree = maintainer.explain_tree("tc", (0, 5), max_depth=3)
        assert tree is not None  # guarded, not infinite

    def test_recursive_tree_full(self):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, database_with([(0, 1), (1, 2)]), strategy="dred"
        ).initialize()
        tree = maintainer.explain_tree("tc", (0, 2))
        rendered = tree.render()
        assert "tc(0, 2)" in rendered
        assert "link(0, 1)" in rendered or "link(1, 2)" in rendered

    def test_base_fact_tree(self, maintainer):
        from repro.core.provenance import derivation_tree

        tree = derivation_tree(maintainer, "link", ("a", "b"))
        assert tree is not None
        assert tree.derivation is None
