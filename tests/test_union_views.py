"""Union views (multiple rules per head) under both algorithms.

The paper's view language includes UNION; in Datalog that is several
rules with the same head, and counts add across rules (a tuple derived
by two rules has ≥2 derivations).
"""

from repro.core.maintenance import ViewMaintainer
from repro.storage.changeset import Changeset
from repro.storage.database import Database


UNION_SRC = """
edge(X, Y) :- road(X, Y).
edge(X, Y) :- rail(X, Y).
"""


def _db():
    db = Database()
    db.insert_rows("road", [("a", "b"), ("b", "c")])
    db.insert_rows("rail", [("a", "b"), ("c", "d")])
    return db


class TestCountingUnion:
    def test_counts_add_across_rules(self):
        maintainer = ViewMaintainer.from_source(UNION_SRC, _db()).initialize()
        assert maintainer.relation("edge").count(("a", "b")) == 2
        assert maintainer.relation("edge").count(("b", "c")) == 1

    def test_deleting_one_source_keeps_tuple(self):
        maintainer = ViewMaintainer.from_source(UNION_SRC, _db()).initialize()
        report = maintainer.apply(Changeset().delete("road", ("a", "b")))
        # One derivation gone, the rail one remains.
        assert maintainer.relation("edge").count(("a", "b")) == 1
        assert report.delta("edge").count(("a", "b")) == -1
        # Set-level: (a,b) is still in the view, so nothing cascades.
        assert not report.counting.cascaded.get("edge", {})
        maintainer.consistency_check()

    def test_deleting_both_sources_removes_tuple(self):
        maintainer = ViewMaintainer.from_source(UNION_SRC, _db()).initialize()
        maintainer.apply(
            Changeset().delete("road", ("a", "b")).delete("rail", ("a", "b"))
        )
        assert ("a", "b") not in maintainer.relation("edge")
        maintainer.consistency_check()

    def test_union_feeding_join(self):
        source = UNION_SRC + "two(X, Z) :- edge(X, Y), edge(Y, Z)."
        maintainer = ViewMaintainer.from_source(source, _db()).initialize()
        # two(a, c) via edge(a,b)[×2] ⋈ edge(b,c)[×1]... set semantics
        # reads edge rows as count 1 within two's stratum.
        assert maintainer.relation("two").count(("a", "c")) == 1
        maintainer.apply(Changeset().delete("road", ("b", "c")))
        assert ("a", "c") not in maintainer.relation("two")
        maintainer.consistency_check()

    def test_union_duplicate_semantics_cascades_multiplicity(self):
        source = UNION_SRC + "two(X, Z) :- edge(X, Y), edge(Y, Z)."
        maintainer = ViewMaintainer.from_source(
            source, _db(), semantics="duplicate"
        ).initialize()
        # edge(a,b) has multiplicity 2 under bags → two(a,c) inherits it.
        assert maintainer.relation("two").count(("a", "c")) == 2
        maintainer.consistency_check()


class TestDRedUnion:
    def test_rederivation_through_other_rule(self):
        source = UNION_SRC + (
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Y) :- reach(X, Z), edge(Z, Y).\n"
        )
        maintainer = ViewMaintainer.from_source(
            source, _db(), strategy="dred"
        ).initialize()
        report = maintainer.apply(Changeset().delete("road", ("a", "b")))
        # edge(a,b) survives through rail, so reach is unchanged.
        assert ("a", "c") in maintainer.relation("reach")
        assert report.dred.stats.deleted == 0
        maintainer.consistency_check()

    def test_deletion_propagates_when_no_alternative(self):
        source = UNION_SRC + (
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Y) :- reach(X, Z), edge(Z, Y).\n"
        )
        maintainer = ViewMaintainer.from_source(
            source, _db(), strategy="dred"
        ).initialize()
        maintainer.apply(Changeset().delete("road", ("b", "c")))
        assert ("a", "c") not in maintainer.relation("reach")
        maintainer.consistency_check()
