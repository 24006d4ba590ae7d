"""B/F-specific properties: targeted deletion and no transient removal.

The differential-oracle battery already proves bf ≡ recompute at scale;
this file pins the *mechanism* of :mod:`repro.core.bf` — the things
that make B/F different from DRed rather than merely equal to it:

* unit cases on the shapes that motivate the algorithm (diamond
  alternatives, cyclic mutual support — including the exact
  mutual-support graph that defeats batch-prune-and-rederive
  verification);
* **no transient removal**: a tuple with a surviving alternative
  derivation is never discarded from the stored view, not even
  mid-pass.  Observed by recording every successful ``discard`` against
  the view relations, and contrasted with DRed on the same workload,
  which demonstrably does remove survivors before rederiving them —
  the difference test that proves the property is doing real work;
* **targeting**: B/F's examined candidate set stays inside DRed's
  overestimate on every workload (the backward check never looks at
  more tuples than DRed deletes).
"""

import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.core.maintenance import ViewMaintainer
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation
from repro.workloads import dense_layers

from conftest import TC_SRC, database_with

NODE = st.integers(0, 6)
EDGE = st.tuples(NODE, NODE).filter(lambda e: e[0] != e[1])


def tc_maintainer(edges, strategy="bf"):
    return ViewMaintainer.from_source(
        TC_SRC, database_with(edges), strategy=strategy
    ).initialize()


def closure(edges):
    """Independent transitive-closure oracle (no engine code)."""
    reach = set(edges)
    while True:
        more = {
            (a, d)
            for (a, b) in reach
            for (c, d) in reach
            if b == c and (a, d) not in reach
        }
        if not more:
            return reach
        reach |= more


@contextmanager
def recorded_discards(*relations):
    """Record every row successfully discarded from ``relations``."""
    watched = {id(relation) for relation in relations}
    log = []
    original = CountedRelation.discard

    def recording(self, row):
        hit = original(self, row)
        if hit and id(self) in watched:
            log.append(row)
        return hit

    CountedRelation.discard = recording
    try:
        yield log
    finally:
        CountedRelation.discard = original


class TestUnitGraphs:
    def test_diamond_alternative_derivation_survives(self):
        # a→b→d and a→c→d: deleting a→b leaves tc(a,d) derivable
        # through c — the backward check must verify it, not delete it.
        maintainer = tc_maintainer(
            [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
        )
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert maintainer.relation("tc").as_set() == closure(
            {("b", "d"), ("a", "c"), ("c", "d")}
        )
        assert set(report.bf.deletions["tc"].rows()) == {("a", "b")}
        assert report.bf.stats.verified >= 1  # tc(a,d) was checked, kept
        maintainer.consistency_check()

    def test_mutual_support_cycle_is_fully_deleted(self):
        # The graph that defeats prune-and-rederive verification: after
        # deleting 1→0, tc(1,0) and tc(1,2) support only each other —
        # tc(1,0) "rederives" through stored tc(1,2) and vice versa.
        # The stack-blocked backward search must refuse both.
        maintainer = tc_maintainer([(1, 0), (2, 0), (0, 2)])
        maintainer.apply(Changeset().delete("link", (1, 0)))
        assert maintainer.relation("tc").as_set() == closure({(2, 0), (0, 2)})
        maintainer.consistency_check()

    def test_cycle_broken_then_restored(self):
        maintainer = tc_maintainer([("a", "b"), ("b", "a")])
        maintainer.apply(Changeset().delete("link", ("b", "a")))
        assert maintainer.relation("tc").as_set() == {("a", "b")}
        maintainer.apply(Changeset().insert("link", ("b", "a")))
        assert maintainer.relation("tc").as_set() == closure(
            {("a", "b"), ("b", "a")}
        )
        maintainer.consistency_check()

    def test_chain_delete_saturates_in_waves(self):
        edges = [(i, i + 1) for i in range(6)]
        maintainer = tc_maintainer(edges)
        report = maintainer.apply(Changeset().delete("link", (2, 3)))
        assert maintainer.relation("tc").as_set() == closure(
            set(edges) - {(2, 3)}
        )
        # Deleting mid-chain cascades: the forward loop needs >1 wave.
        assert report.bf.stats.waves > 1
        maintainer.consistency_check()

    def test_no_candidates_on_pure_insert(self):
        maintainer = tc_maintainer([("a", "b")])
        report = maintainer.apply(Changeset().insert("link", ("b", "c")))
        assert report.bf.stats.candidates == 0
        assert report.bf.stats.waves == 0
        assert maintainer.relation("tc").as_set() == closure(
            {("a", "b"), ("b", "c")}
        )


class TestNoTransientRemoval:
    """The B/F headline property, with a DRed difference test."""

    DIAMOND = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]

    def test_bf_never_discards_the_survivor(self):
        maintainer = tc_maintainer(self.DIAMOND, strategy="bf")
        view = maintainer.views["tc"]
        with recorded_discards(view) as removed:
            maintainer.apply(Changeset().delete("link", ("a", "b")))
        final = view.as_set()
        assert ("a", "d") in final
        assert ("a", "d") not in removed
        # Stronger: everything ever discarded stayed deleted.
        assert not set(removed) & final

    def test_dred_does_discard_the_survivor(self):
        """The same workload under DRed transiently removes tc(a,d)
        before rederiving it — the difference the property forbids."""
        maintainer = tc_maintainer(self.DIAMOND, strategy="dred")
        view = maintainer.views["tc"]
        with recorded_discards(view) as removed:
            maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert ("a", "d") in view.as_set()
        assert ("a", "d") in removed  # overdeleted, then rederived

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edges=st.lists(EDGE, min_size=1, max_size=12, unique=True),
           data=st.data())
    def test_bf_discards_exactly_its_reported_deletions(self, edges, data):
        """For any graph and any valid deletion batch: the rows B/F
        discards from the view are exactly the pass's net deletions —
        no tuple with a surviving derivation is ever touched."""
        doomed = data.draw(
            st.lists(st.sampled_from(edges), min_size=1, unique=True)
        )
        maintainer = tc_maintainer(edges, strategy="bf")
        view = maintainer.views["tc"]
        changes = Changeset()
        for edge in doomed:
            changes.delete("link", edge)
        with recorded_discards(view) as removed:
            report = maintainer.apply(changes)
        reported = set(
            report.bf.deletions.get("tc", CountedRelation()).rows()
        )
        assert set(removed) == reported
        assert len(removed) == len(reported)  # no double discard
        assert not set(removed) & view.as_set()
        assert view.as_set() == closure(set(edges) - set(doomed))


class TestTargeting:
    """B/F examines no more than DRed deletes."""

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edges=st.lists(EDGE, min_size=1, max_size=12, unique=True),
           data=st.data())
    def test_candidates_within_dred_overestimate(self, edges, data):
        doomed = data.draw(
            st.lists(st.sampled_from(edges), min_size=1, unique=True)
        )
        changes = Changeset()
        for edge in doomed:
            changes.delete("link", edge)

        bf = tc_maintainer(edges, strategy="bf")
        report = bf.apply(changes.copy())

        dred = tc_maintainer(edges, strategy="dred")
        with recorded_discards(dred.views["tc"]) as overestimate:
            dred.apply(changes.copy())

        candidates = set(
            report.bf.candidates.get("tc", CountedRelation()).rows()
        )
        assert candidates <= set(overestimate)
        assert bf.relation("tc").as_set() == dred.relation("tc").as_set()

    @pytest.mark.parametrize("strategy, examined, ratio", [
        ("dred", "overestimated", "overdeletion_ratio"),
        ("bf", "candidates", "check_ratio"),
    ])
    def test_ratio_counts_examined_tuples_that_all_survived(
        self, strategy, examined, ratio
    ):
        # tc(a,c) and tc(x,c) are examined and both survive via a-b-c.
        maintainer = tc_maintainer(
            [("a", "b"), ("b", "c"), ("a", "c"), ("x", "a")], strategy
        )
        report = maintainer.apply(Changeset().delete("link", ("a", "c")))
        stats = report.engine_stats()
        assert (getattr(stats, examined), stats.deleted) == (2, 0)
        assert getattr(stats, ratio) == 2.0
        report = maintainer.apply(Changeset().insert("link", ("c", "d")))
        assert getattr(report.engine_stats(), ratio) == 1.0  # none examined

    def test_check_ratio_reported(self):
        maintainer = tc_maintainer([("a", "b"), ("b", "c")])
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        stats = report.bf.stats
        assert stats.candidates >= stats.deleted > 0
        assert stats.check_ratio >= 1.0
        assert stats.overestimated == 0  # B/F never overdeletes


#: The dense fixture: five complete-bipartite layers, six wide, so a tc
#: pair spanning k layers has 6**(k-1) alternative derivations.
LAYERS, WIDTH = 5, 6


def dense_stream():
    """Delete/reinsert middle-layer edges: dense deletion passes."""
    mid = LAYERS // 2
    for k in range(WIDTH):
        edge = (mid * WIDTH + k, (mid + 1) * WIDTH + (k + 1) % WIDTH)
        yield Changeset().delete("link", edge)
        yield Changeset().insert("link", edge)


def run_dense(strategy):
    """Stream seconds, final view, and the tuples the delete phases
    examined: bf's candidates, DRed's overestimate."""
    maintainer = tc_maintainer(dense_layers(LAYERS, WIDTH), strategy)
    examined = 0
    started = time.perf_counter()
    for changes in dense_stream():
        report = maintainer.apply(changes)
        if report.bf is not None:
            examined += report.bf.stats.candidates
        elif report.dred is not None:
            examined += report.dred.stats.overestimated
    seconds = time.perf_counter() - started
    return seconds, maintainer.relation("tc").as_set(), examined


class TestDenseFixture:
    def test_advisor_recommends_bf_and_auto_agrees(self):
        report = analyze(TC_SRC)
        assert report.advice.overall == "bf"
        assert any(
            "tc" in (d.data or {}).get("fan_in", {})
            for d in report.diagnostics
            if d.code == "RV203"
        )
        assert ViewMaintainer.from_source(TC_SRC, Database()).strategy == "bf"

    def test_bf_matches_dred_examines_less_and_runs_faster(self):
        # Best of three per strategy keeps scheduler noise out of the
        # direction check; the win is structural (DRed's overestimate
        # floods the downstream cone, B/F's backward check stops at
        # distance one), so it holds at any scale.
        bf_best = dred_best = float("inf")
        for _ in range(3):
            seconds, bf_view, candidates = run_dense("bf")
            bf_best = min(bf_best, seconds)
            seconds, dred_view, overestimated = run_dense("dred")
            dred_best = min(dred_best, seconds)
            assert bf_view == dred_view
        assert 0 < candidates < overestimated
        assert bf_best < dred_best
