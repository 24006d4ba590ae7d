"""Golden tests: every worked example of the paper, verbatim (X1–X6).

The extended abstract has no numbered tables or figures; these examples
carry its exact relation contents and counts, so they are the
reproduction's ground truth (DESIGN.md §4.1).
"""

import pytest

from repro.core import names
from repro.core.delta_rules import factored_delta_rules
from repro.core.maintenance import ViewMaintainer
from repro.datalog.parser import parse_rule
from repro.storage.changeset import Changeset

from conftest import (
    HOP_SRC,
    HOP_TRI_SRC,
    ONLY_TRI_SRC,
    database_with,
)


class TestX1Example11:
    """Example 1.1: hop view, counts, and the deletion of link(a, b)."""

    def test_initial_extent_and_counts(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        # "hop evaluates to {(a,c), (a,e)}; hop(a,e) has a unique
        #  derivation, hop(a,c) has two."
        assert maintainer.relation("hop").to_dict() == {
            ("a", "c"): 2, ("a", "e"): 1,
        }

    def test_counting_deletes_only_ae(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db
        ).initialize()
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        # "only deletes hop(a,e), which has no remaining derivation."
        assert maintainer.relation("hop").to_dict() == {("a", "c"): 1}

    def test_dred_deletes_both_then_rederives_ac(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        # "DRed first deletes hop(a,c) and hop(a,e) … hop(a,c) is
        #  rederived and reinserted in the second step."
        assert report.dred.stats.overestimated == 2
        assert report.dred.stats.rederived == 1
        assert maintainer.relation("hop").as_set() == {("a", "c")}


class TestX2Example41:
    """Example 4.1: the delta rules (d1), (d2) for the hop view."""

    def test_delta_rules_d1_d2(self):
        rule = parse_rule("hop(X, Y) :- link(X, Z), link(Z, Y).")
        d1, d2 = factored_delta_rules(rule)
        # (d1): Δ(hop)(X,Y) :- Δ(link)(X,Z) & link(Z,Y)
        assert d1.rule.head.predicate == names.delta("hop")
        assert [s.predicate for s in d1.rule.body] == [
            names.delta("link"), "link",
        ]
        # (d2): Δ(hop)(X,Y) :- linkⁿ(X,Z) & Δ(link)(Z,Y)
        assert [s.predicate for s in d2.rule.body] == [
            names.new("link"), names.delta("link"),
        ]


class TestX3Example42:
    """Example 4.2: the full duplicate-semantics maintenance trace."""

    CHANGES = (
        Changeset()
        .delete("link", ("a", "b"))
        .insert("link", ("d", "f"))
        .insert("link", ("a", "f"))
    )

    @pytest.fixture
    def maintainer(self, example_4_2_db):
        return ViewMaintainer.from_source(
            HOP_TRI_SRC, example_4_2_db, semantics="duplicate"
        ).initialize()

    def test_initial_state(self, maintainer):
        # "hop = {ac 2, dh, bh}.  tri_hop = {ah 2}."
        assert maintainer.relation("hop").to_dict() == {
            ("a", "c"): 2, ("d", "h"): 1, ("b", "h"): 1,
        }
        assert maintainer.relation("tri_hop").to_dict() == {("a", "h"): 2}

    def test_full_trace(self, maintainer):
        report = maintainer.apply(self.CHANGES.copy())
        # "Apply δ1(v1): Δ(hop) = {ac −1, ag, dg}; apply δ2(v1):
        #  Δ(hop) = {af}.  Combining: hopⁿ = {ac, af, ag, dg, dh, bh}."
        assert report.delta("hop").to_dict() == {
            ("a", "c"): -1, ("a", "g"): 1, ("d", "g"): 1, ("a", "f"): 1,
        }
        assert maintainer.relation("hop").to_dict() == {
            ("a", "c"): 1, ("a", "f"): 1, ("a", "g"): 1,
            ("d", "g"): 1, ("d", "h"): 1, ("b", "h"): 1,
        }
        # "Apply δ1(v2): Δ(tri_hop) = {ah −1, ag}; apply δ2(v2): {} .
        #  Combining: tri_hopⁿ = {ah, ag}."
        assert report.delta("tri_hop").to_dict() == {
            ("a", "h"): -1, ("a", "g"): 1,
        }
        assert maintainer.relation("tri_hop").to_dict() == {
            ("a", "h"): 1, ("a", "g"): 1,
        }


class TestX4Example51:
    """Example 5.1: the set-semantics optimization (statement (2))."""

    def test_count_only_changes_not_cascaded(self, example_4_2_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_4_2_db, semantics="set"
        ).initialize()
        report = maintainer.apply(TestX3Example42.CHANGES.copy())
        # "Δ(hop) = set(hopⁿ) − set(hop) = {af, ag, dg}.  The tuple
        #  hop(ac −1) does not appear and is not cascaded to tri_hop.
        #  Consequently (ah −1) will not be derived for Δ(tri_hop)."
        assert report.counting.cascaded["hop"].to_dict() == {
            ("a", "f"): 1, ("a", "g"): 1, ("d", "g"): 1,
        }
        tri_delta = report.delta("tri_hop").to_dict()
        assert ("a", "h") not in tri_delta
        assert tri_delta == {("a", "g"): 1}


class TestX5Example61:
    """Example 6.1: negation — only_tri_hop on the 11-edge graph."""

    def test_initial_relations(self, example_6_1_db):
        maintainer = ViewMaintainer.from_source(
            ONLY_TRI_SRC, example_6_1_db, semantics="duplicate"
        ).initialize()
        # "hop = {ac, ad 2, ah, bd, bk, gk}; tri_hop = {ad, ak 2};
        #  only_tri_hop = {ak 2}."
        assert maintainer.relation("hop").to_dict() == {
            ("a", "c"): 1, ("a", "d"): 2, ("a", "h"): 1,
            ("b", "d"): 1, ("b", "k"): 1, ("g", "k"): 1,
        }
        assert maintainer.relation("tri_hop").to_dict() == {
            ("a", "d"): 1, ("a", "k"): 2,
        }
        assert maintainer.relation("only_tri_hop").to_dict() == {
            ("a", "k"): 2,
        }

    def test_ad_excluded_for_any_positive_count(self, example_6_1_db):
        """'hop(a,d) is true as long as count(hop(a,d)) > 0.'"""
        maintainer = ViewMaintainer.from_source(
            ONLY_TRI_SRC, example_6_1_db, semantics="duplicate"
        ).initialize()
        # Remove one of hop(a,d)'s two derivations: count 2 → 1, still
        # positive, so only_tri_hop must not gain (a, d).
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert ("a", "d") not in maintainer.relation("only_tri_hop")
        maintainer.consistency_check()


class TestX6Example62:
    """Example 6.2: GROUPBY / MIN over cost-carrying links."""

    SRC = """
    hop(S, D, C1 + C2) :- link(S, I, C1), link(I, D, C2).
    min_cost_hop(S, D, M) :- GROUPBY(hop(S, D, C), [S, D], M = MIN(C)).
    """
    LINKS = [
        ("a", "b", 1), ("b", "c", 2), ("b", "e", 5),
        ("a", "d", 2), ("d", "c", 1),
    ]

    def test_min_cost_hop_contents(self):
        maintainer = ViewMaintainer.from_source(
            self.SRC, database_with(self.LINKS)
        ).initialize()
        assert maintainer.relation("min_cost_hop").as_set() == {
            ("a", "c", 3), ("a", "e", 6),
        }

    def test_insert_changes_group_only_if_cheaper(self):
        """'Inserting hop(a,b,10) can only change the a→b tuple; the
        change actually occurs if the previous minimum exceeded 10.'"""
        maintainer = ViewMaintainer.from_source(
            self.SRC, database_with(self.LINKS)
        ).initialize()
        report = maintainer.apply(
            Changeset().insert("link", ("a", "x", 4)).insert(
                "link", ("x", "c", 4))
        )
        # New a→c path costs 8 > 3: the minimum is unchanged.
        delta = report.delta("min_cost_hop").to_dict()
        assert ("a", "c", 3) not in delta
        assert maintainer.relation("min_cost_hop").count(("a", "c", 3)) == 1
        maintainer.consistency_check()

    def test_incremental_min_update(self):
        maintainer = ViewMaintainer.from_source(
            self.SRC, database_with(self.LINKS)
        ).initialize()
        maintainer.apply(
            Changeset().insert("link", ("a", "y", 1)).insert(
                "link", ("y", "c", 1))
        )
        assert maintainer.relation("min_cost_hop").as_set() == {
            ("a", "c", 2), ("a", "e", 6),
        }
        maintainer.consistency_check()
