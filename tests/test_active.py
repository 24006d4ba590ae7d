"""Tests for queries, transactions, and subscriptions (active databases)."""

import pytest

from repro.core.maintenance import ViewMaintainer
from repro.errors import (
    MaintenanceError,
    SafetyError,
    UnknownRelationError,
)
from repro.storage.changeset import Changeset

from conftest import HOP_SRC, HOP_TRI_SRC, TC_SRC, database_with


@pytest.fixture
def maintainer(example_1_1_db):
    return ViewMaintainer.from_source(
        HOP_TRI_SRC, example_1_1_db
    ).initialize()


class TestQuery:
    def test_single_literal(self, maintainer):
        results = maintainer.query("hop(a, X)")
        assert results == [{"X": "c"}, {"X": "e"}]

    def test_conjunction(self, maintainer):
        results = maintainer.query("link(a, X), link(X, Y)")
        assert {"X": "b", "Y": "c"} in results
        assert {"X": "d", "Y": "c"} in results

    def test_negation_in_query(self, maintainer):
        results = maintainer.query("hop(a, X), not link(a, X)")
        assert results == [{"X": "c"}, {"X": "e"}]

    def test_comparison_in_query(self):
        db = database_with([("a", "b", 4), ("a", "c", 9)])
        m = ViewMaintainer.from_source(
            "edge(X, Y, C) :- link(X, Y, C).", db
        ).initialize()
        assert m.query("edge(X, Y, C), C > 5") == [
            {"X": "a", "Y": "c", "C": 9}
        ]

    def test_ground_query(self, maintainer):
        assert maintainer.query("hop(a, c)") == [{}]
        assert maintainer.query("hop(a, zzz)") == []

    def test_ask(self, maintainer):
        assert maintainer.ask("hop(a, c)")
        assert not maintainer.ask("hop(c, a)")

    def test_duplicates_collapsed(self, maintainer):
        # hop(a, c) has two derivations but one solution for X=c.
        assert maintainer.query("hop(a, X), link(X, h)") == []
        results = maintainer.query("hop(a, X)")
        assert len(results) == len({tuple(r.items()) for r in results})

    def test_query_sees_maintained_state(self, maintainer):
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert maintainer.query("hop(a, X)") == [{"X": "c"}]

    def test_unsafe_query_rejected(self, maintainer):
        with pytest.raises(SafetyError):
            maintainer.query("not hop(a, X)")

    def test_query_before_initialize_rejected(self, example_6_1_db):
        m = ViewMaintainer.from_source(HOP_SRC, example_6_1_db)
        with pytest.raises(MaintenanceError):
            m.query("hop(a, X)")


class TestTransaction:
    def test_commit_applies_once(self, maintainer):
        txn = maintainer.transaction()
        txn.insert("link", ("c", "f")).insert("link", ("e", "g"))
        report = txn.commit()
        assert report.total_changes() > 0
        assert ("b", "f") in maintainer.relation("hop")
        assert ("b", "g") in maintainer.relation("hop")

    def test_rollback_discards(self, maintainer):
        txn = maintainer.transaction()
        txn.insert("link", ("c", "f"))
        txn.rollback()
        assert ("c", "f") not in maintainer.relation("link")
        with pytest.raises(MaintenanceError, match="closed"):
            txn.commit()

    def test_context_manager_commits(self, maintainer):
        with maintainer.transaction() as txn:
            txn.insert("link", ("c", "f"))
        assert txn.report is not None
        assert ("b", "f") in maintainer.relation("hop")

    def test_context_manager_rolls_back_on_error(self, maintainer):
        with pytest.raises(RuntimeError):
            with maintainer.transaction() as txn:
                txn.insert("link", ("c", "f"))
                raise RuntimeError("boom")
        assert ("c", "f") not in maintainer.relation("link")
        maintainer.consistency_check()

    def test_update_staging(self, maintainer):
        with maintainer.transaction() as txn:
            txn.update("link", ("a", "b"), ("a", "x"))
        assert ("a", "x") in maintainer.relation("link")
        assert ("a", "b") not in maintainer.relation("link")
        maintainer.consistency_check()

    def test_double_commit_rejected(self, maintainer):
        txn = maintainer.transaction().insert("link", ("c", "f"))
        txn.commit()
        with pytest.raises(MaintenanceError):
            txn.commit()

    def test_staged_inspection(self, maintainer):
        txn = maintainer.transaction().insert("link", ("c", "f"))
        assert txn.staged.insertion_count() == 1
        txn.rollback()


class TestSubscriptions:
    def test_callback_receives_delta(self, maintainer):
        events = []
        maintainer.subscribe(
            "hop", lambda view, delta: events.append((view, delta.to_dict()))
        )
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert events == [
            ("hop", {("a", "c"): -1, ("a", "e"): -1}),
        ]

    def test_no_callback_when_view_unchanged(self, maintainer):
        events = []
        maintainer.subscribe("tri_hop", lambda v, d: events.append(v))
        maintainer.apply(Changeset().insert("link", ("q1", "q2")))
        assert events == []

    def test_multiple_subscribers(self, maintainer):
        hits = []
        maintainer.subscribe("hop", lambda v, d: hits.append("first"))
        maintainer.subscribe("hop", lambda v, d: hits.append("second"))
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert hits == ["first", "second"]

    def test_unsubscribe(self, maintainer):
        hits = []
        handle = maintainer.subscribe("hop", lambda v, d: hits.append(1))
        maintainer.unsubscribe(handle)
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert hits == []

    def test_unsubscribe_twice_rejected(self, maintainer):
        handle = maintainer.subscribe("hop", lambda v, d: None)
        maintainer.unsubscribe(handle)
        with pytest.raises(MaintenanceError):
            maintainer.unsubscribe(handle)

    def test_unknown_view_rejected(self, maintainer):
        with pytest.raises(UnknownRelationError):
            maintainer.subscribe("ghost", lambda v, d: None)

    def test_dred_strategy_notifies_too(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        events = []
        maintainer.subscribe("tc", lambda v, d: events.append(d.to_dict()))
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert len(events) == 1
        assert all(count == -1 for count in events[0].values())

    def test_alter_notifies(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, example_1_1_db, strategy="dred"
        ).initialize()
        events = []
        maintainer.subscribe("tc", lambda v, d: events.append(d.to_dict()))
        maintainer.alter(add=["tc(X, Y) :- link(Y, X)."])
        assert events and all(
            count == 1 for count in events[0].values()
        )

    def test_transaction_commit_triggers_subscribers(self, maintainer):
        events = []
        maintainer.subscribe("hop", lambda v, d: events.append(v))
        with maintainer.transaction() as txn:
            txn.insert("link", ("c", "f"))
        assert events == ["hop"]


class TestRetryBackoffJitter:
    """Failed deliveries retry with jittered exponential backoff.

    The k-th pause is drawn uniformly from [b*2^k, b*2^k*(1+jitter)] —
    bounded below by the exponential schedule, bounded above by the
    jitter factor, and (with overwhelming probability for a seeded RNG)
    not identical across retries, so subscribers that failed on the
    same pass don't hammer their shared backend in lockstep.
    """

    def hub(self, **kwargs):
        from repro.core.active import SubscriptionHub

        pauses = []
        hub = SubscriptionHub(sleep=pauses.append, **kwargs)
        return hub, pauses

    def always_failing(self, hub):
        calls = []

        def callback(view, delta):
            calls.append(view)
            raise RuntimeError("backend down")

        hub.subscribe("hop", callback)
        return calls

    def delta(self):
        from repro.storage.relation import CountedRelation

        delta = CountedRelation("Δhop", 2)
        delta.add(("a", "c"), 1)
        return delta

    def test_pauses_bounded_by_jittered_exponential(self):
        base, jitter = 0.01, 0.25
        hub, pauses = self.hub(
            max_attempts=5, backoff_seconds=base, jitter=jitter, seed=7
        )
        calls = self.always_failing(hub)
        hub.notify({"hop": self.delta()})

        assert len(calls) == 5
        assert len(pauses) == 4  # no pause after the final attempt
        for k, pause in enumerate(pauses):
            floor = base * 2 ** k
            assert floor <= pause <= floor * (1.0 + jitter), (
                f"pause {k} = {pause} outside "
                f"[{floor}, {floor * (1 + jitter)}]"
            )

    def test_jitter_desynchronizes_retries(self):
        hub, pauses = self.hub(
            max_attempts=4, backoff_seconds=0.01, jitter=0.5, seed=11
        )
        self.always_failing(hub)
        hub.notify({"hop": self.delta()})

        # Normalize out the exponential doubling: identical ratios would
        # mean every retry waits the same jitter multiple (lockstep).
        ratios = [pause / (0.01 * 2 ** k) for k, pause in enumerate(pauses)]
        assert len(set(ratios)) > 1
        assert all(1.0 <= ratio <= 1.5 for ratio in ratios)

    def test_seed_makes_schedule_reproducible(self):
        schedules = []
        for _ in range(2):
            hub, pauses = self.hub(
                max_attempts=4, backoff_seconds=0.01, jitter=0.5, seed=3
            )
            self.always_failing(hub)
            hub.notify({"hop": self.delta()})
            schedules.append(tuple(pauses))
        assert schedules[0] == schedules[1]

    def test_zero_jitter_is_exact_exponential(self):
        hub, pauses = self.hub(
            max_attempts=4, backoff_seconds=0.01, jitter=0.0
        )
        self.always_failing(hub)
        hub.notify({"hop": self.delta()})
        assert pauses == [0.01, 0.02, 0.04]

    def test_negative_jitter_rejected(self):
        from repro.core.active import SubscriptionHub

        with pytest.raises(ValueError, match="jitter"):
            SubscriptionHub(jitter=-0.1)
