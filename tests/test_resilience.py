"""Crash-safety tests: shadow-commit apply, checkpoints, self-healing.

The contract under test (docs/operations.md): any exception raised
during a maintenance pass — at *any* crash point — leaves the
maintainer's whole state (base relations, view counts, aggregate group
states, the journal) byte-identical to the pre-pass state, and a
subsequent retry produces exactly the state a never-crashed run would
have.  Faults are injected deterministically at every named phase of
both algorithms via the per-maintainer :class:`FaultInjector`.
"""

import os

import pytest

from repro.core.dred import DRedMaintenance
from repro.core.maintenance import ViewMaintainer
from repro.errors import (
    BudgetExceeded,
    DivergenceError,
    MaintenanceError,
    PoisonChangesetError,
)
from repro.guard import GuardPolicy, MaintenanceBudget
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RingSink, Tracer
from repro.resilience import PHASES, FaultInjector, InjectedFault, UndoLog
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.journal import Journal, recover
from repro.storage.relation import CountedRelation
from repro.storage.serialize import load_snapshot, snapshot_watermark

from conftest import (
    EXAMPLE_1_1_LINKS,
    HOP_TRI_SRC,
    TC_SRC,
    database_with,
    indexed_reads,
    stored_relations,
)

pytestmark = pytest.mark.faults

#: Nonrecursive program with a join chain and an aggregate — exercises
#: counting's delta derivation, count merge, and Algorithm 6.1.
COUNTING_SRC = """
hop(X, Y) :- link(X, Z), link(Z, Y).
tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
mn(S, M) :- GROUPBY(link(S, C), [S], M = MIN(C)).
"""

#: Recursive program with the same aggregate — exercises DRed's
#: overestimate/rederive/insert steps plus Algorithm 6.1.
DRED_SRC = """
tc(X, Y) :- link(X, Y).
tc(X, Y) :- tc(X, Z), link(Z, Y).
mn(S, M) :- GROUPBY(link(S, C), [S], M = MIN(C)).
"""

#: Every injectable phase each strategy actually reaches for a mixed
#: delete+insert changeset against the programs above.
STRATEGY_PHASES = [
    ("counting", COUNTING_SRC, "delta_derivation"),
    ("counting", COUNTING_SRC, "aggregate_merge"),
    ("counting", COUNTING_SRC, "count_merge"),
    ("counting", COUNTING_SRC, "journal_append"),
    ("dred", DRED_SRC, "delta_derivation"),
    ("dred", DRED_SRC, "rederivation"),
    ("dred", DRED_SRC, "aggregate_merge"),
    ("dred", DRED_SRC, "count_merge"),
    ("dred", DRED_SRC, "journal_append"),
    ("bf", DRED_SRC, "delta_derivation"),
    ("bf", DRED_SRC, "backward_check"),
    ("bf", DRED_SRC, "forward_delete"),
    ("bf", DRED_SRC, "aggregate_merge"),
    ("bf", DRED_SRC, "count_merge"),
    ("bf", DRED_SRC, "journal_append"),
]


def build(
    source, strategy, semantics="set", links=EXAMPLE_1_1_LINKS, mvcc=True,
    **options
):
    database = Database(mvcc=mvcc)
    database.insert_rows("link", links)
    maintainer = ViewMaintainer.from_source(
        source, database, strategy=strategy, semantics=semantics, **options
    )
    return maintainer.initialize()


def fingerprint(maintainer):
    """The complete observable state: bases, view counts, group states."""
    return {
        "base": {
            name: maintainer.database.relation(name).to_dict()
            for name in sorted(maintainer.database.names())
        },
        "views": {
            name: relation.to_dict()
            for name, relation in sorted(maintainer.views.items())
        },
        "agg": {
            name: dict(view._states)
            for name, view in sorted(maintainer.aggregate_views.items())
        },
    }


MIXED = Changeset().delete("link", ("a", "b")).insert("link", ("e", "a"))


class TestCrashPointAtomicity:
    """Arm every phase, crash there, verify pre-pass state survives."""

    @pytest.mark.parametrize("strategy, source, phase", STRATEGY_PHASES)
    def test_fault_leaves_state_identical(
        self, strategy, source, phase, tmp_path
    ):
        maintainer = build(source, strategy)
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal)
        before = fingerprint(maintainer)

        maintainer.faults.arm(phase)
        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)

        assert maintainer.faults.fired == [phase]
        assert fingerprint(maintainer) == before
        assert len(journal) == 0 and list(journal.replay()) == []
        assert maintainer.lifetime.passes == 0
        maintainer.consistency_check()

    @pytest.mark.parametrize("strategy, source, phase", STRATEGY_PHASES)
    def test_retry_after_fault_matches_clean_run(self, strategy, source, phase):
        maintainer = build(source, strategy)
        control = build(source, strategy)

        maintainer.faults.arm(phase)
        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)
        maintainer.apply(MIXED)  # one-shot plan: retry runs clean
        control.apply(MIXED)

        assert fingerprint(maintainer) == fingerprint(control)
        maintainer.consistency_check()

    @pytest.mark.parametrize("mvcc", [True, False])
    @pytest.mark.parametrize("strategy, source, phase", [
        case for case in STRATEGY_PHASES
        if case[0] in ("dred", "bf") and case[2] in (
            "rederivation", "backward_check", "forward_delete",
            "aggregate_merge",
        )
    ])
    def test_rollback_through_pre_images_restores_indexes_and_closes(
        self, strategy, source, phase, mvcc
    ):
        """DRed and B/F roll back through the rows' pre-images — the same
        maps their old-state reads go through — with MVCC on (the open
        epoch's recorder) and off (recorders the pass opens itself)."""

        def state(maintainer):
            return fingerprint(maintainer), {
                name: indexed_reads(relation)
                for name, relation in stored_relations(maintainer).items()
            }

        def no_recorder_left_open(maintainer):
            return all(
                relation._pending is None
                for relation in stored_relations(maintainer).values()
            )

        maintainer = build(source, strategy, mvcc=mvcc)
        control = build(source, strategy, mvcc=mvcc)
        for warmed in (maintainer, control):  # compile plans, declare indexes
            warmed.apply(Changeset().insert("link", ("x", "y")))
        before = state(maintainer)

        maintainer.faults.arm(phase)
        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)
        assert maintainer.faults.fired == [phase]
        assert state(maintainer) == before
        assert no_recorder_left_open(maintainer)

        retried, clean = maintainer.apply(MIXED), control.apply(MIXED)
        assert no_recorder_left_open(maintainer)
        assert {n: d.to_dict() for n, d in retried.view_deltas.items()} == {
            n: d.to_dict() for n, d in clean.view_deltas.items()
        }
        assert state(maintainer) == state(control)
        maintainer.consistency_check()

    def test_backward_check_fires_after_a_wave_found_candidates(self):
        """The documented crash state: a forward step has closed with
        candidates, the backward search has not verified them yet."""
        ring = RingSink()
        maintainer = build(DRED_SRC, "bf", tracer=Tracer(ring))
        maintainer.faults.arm("backward_check")
        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)
        events = list(ring.events)
        rollback = next(
            i for i, event in enumerate(events)
            if event["kind"] == "event" and event["name"] == "rollback"
        )
        assert any(
            event["kind"] == "phase" and event["name"] == "forward"
            and event["attrs"].get("candidates", 0) > 0
            for event in events[:rollback]
        )
        assert not any(
            event["kind"] == "phase" and event["name"] == "backward"
            for event in events
        )

    @pytest.mark.parametrize("mvcc", [True, False])
    @pytest.mark.parametrize("entrance", ["incremental", "fallback", "alter"])
    def test_every_entrance_rolls_back_through_the_one_envelope(
        self, entrance, mvcc, monkeypatch
    ):
        sink = RingSink()
        maintainer = build(
            COUNTING_SRC,
            "counting",
            mvcc=mvcc,
            metrics=MetricsRegistry(),
            tracer=Tracer(sink),
            guard=GuardPolicy(force_fallback=entrance == "fallback"),
        )
        before = fingerprint(maintainer), maintainer.database.epoch

        if entrance == "alter":
            run = DRedMaintenance.run

            def crash_after_run(self, changes):
                run(self, changes)  # views rewritten: a real unwind
                raise InjectedFault("mid-alter")

            monkeypatch.setattr(DRedMaintenance, "run", crash_after_run)
            with pytest.raises(InjectedFault):
                maintainer.alter(add=["hop(X, Y) :- link(Y, X)."])
        else:
            maintainer.faults.arm(
                "fallback_recompute" if entrance == "fallback"
                else "count_merge"
            )
            with pytest.raises(InjectedFault):
                maintainer.apply(MIXED)

        assert (fingerprint(maintainer), maintainer.database.epoch) == before
        assert maintainer.strategy == "counting"
        assert maintainer.metrics.get("repro_rollbacks_total").value() == 1
        events = [e["name"] for e in sink.events if e["kind"] == "event"]
        assert events.count("rollback") == 1
        assert events.count("mvcc_abort") == (1 if mvcc else 0)
        maintainer.consistency_check()

    def test_arbitrary_exception_also_rolls_back(self):
        maintainer = build(COUNTING_SRC, "counting")
        before = fingerprint(maintainer)
        maintainer.faults.arm("count_merge", exception=RuntimeError("disk on fire"))
        with pytest.raises(RuntimeError, match="disk on fire"):
            maintainer.apply(MIXED)
        assert fingerprint(maintainer) == before

    def test_duplicate_semantics_counts_restored_exactly(self):
        maintainer = build(COUNTING_SRC, "counting", semantics="duplicate")
        maintainer.apply(Changeset().insert("link", ("a", "b")))  # count 2
        before = fingerprint(maintainer)
        maintainer.faults.arm("count_merge")
        with pytest.raises(InjectedFault):
            maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert fingerprint(maintainer) == before

    def test_crash_safety_can_be_disabled(self):
        # mvcc=False too: with MVCC on, aborting the uncommitted epoch
        # restores row state even without an undo log.
        db = Database(mvcc=False)
        db.insert_rows("link", EXAMPLE_1_1_LINKS)
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC,
            db,
            crash_safe=False,
        ).initialize()
        before = fingerprint(maintainer)
        maintainer.faults.arm("count_merge")
        with pytest.raises(InjectedFault):
            maintainer.apply(Changeset().delete("link", ("a", "b")))
        # No undo log: the base relations were already mutated.
        assert fingerprint(maintainer) != before

    def test_validation_failure_mid_changeset_rolls_back_dred(self):
        """Regression: DRed used to mutate earlier relations before a
        later relation's overdeletion check fired (torn apply)."""
        db = database_with(EXAMPLE_1_1_LINKS)
        db.insert_rows("blocked", [("x",)])
        maintainer = ViewMaintainer.from_source(
            TC_SRC + "safe(X) :- link(X, Y), not blocked(X).\n", db
        ).initialize()
        before = fingerprint(maintainer)
        changes = (
            Changeset()
            .delete("link", ("a", "b"))      # valid, applied first
            .delete("blocked", ("never",))   # invalid: not stored
        )
        with pytest.raises(MaintenanceError, match="not stored"):
            maintainer.apply(changes)
        assert fingerprint(maintainer) == before
        maintainer.consistency_check()

    def test_counting_overdeletion_rolls_back(self):
        maintainer = build(COUNTING_SRC, "counting")
        before = fingerprint(maintainer)
        changes = (
            Changeset()
            .insert("link", ("q", "r"))
            .delete("link", ("no", "pe"))
        )
        with pytest.raises(MaintenanceError):
            maintainer.apply(changes)
        assert fingerprint(maintainer) == before


def mixed_batch():
    """Two changesets whose ⊎-coalesced net is exactly ``MIXED``.

    The intermediate row ``(zz, zz)`` is inserted by the first batch and
    deleted by the second, so batching must cancel it before any
    maintenance work — the run is indistinguishable from ``apply(MIXED)``.
    """
    return [
        Changeset().delete("link", ("a", "b")).insert("link", ("zz", "zz")),
        Changeset().insert("link", ("e", "a")).delete("link", ("zz", "zz")),
    ]


class TestBatchedApply:
    """apply_many(): one coalesced pass, same crash-safety contract."""

    def test_batched_equals_net_and_sequential(self):
        batched = build(COUNTING_SRC, "counting")
        net = build(COUNTING_SRC, "counting")
        sequential = build(COUNTING_SRC, "counting")

        batched.apply_many(mixed_batch())
        net.apply(MIXED.copy())
        for changes in mixed_batch():
            sequential.apply(changes)

        assert fingerprint(batched) == fingerprint(net)
        assert fingerprint(batched) == fingerprint(sequential)
        assert batched.lifetime.passes == 1
        assert sequential.lifetime.passes == 2

    @pytest.mark.parametrize("strategy, source, phase", STRATEGY_PHASES)
    def test_batched_fault_leaves_state_identical(
        self, strategy, source, phase, tmp_path
    ):
        """The full crash matrix, driven through apply_many()."""
        maintainer = build(source, strategy)
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal)
        before = fingerprint(maintainer)

        maintainer.faults.arm(phase)
        with pytest.raises(InjectedFault):
            maintainer.apply_many(mixed_batch())

        assert maintainer.faults.fired == [phase]
        assert fingerprint(maintainer) == before
        assert len(journal) == 0 and list(journal.replay()) == []
        assert maintainer.lifetime.passes == 0
        maintainer.consistency_check()

    @pytest.mark.parametrize("strategy, source, phase", STRATEGY_PHASES)
    def test_batched_retry_after_fault_matches_clean_run(
        self, strategy, source, phase
    ):
        maintainer = build(source, strategy)
        control = build(source, strategy)

        maintainer.faults.arm(phase)
        with pytest.raises(InjectedFault):
            maintainer.apply_many(mixed_batch())
        maintainer.apply_many(mixed_batch())  # one-shot plan: retry clean
        control.apply(MIXED.copy())

        assert fingerprint(maintainer) == fingerprint(control)
        maintainer.consistency_check()

    def test_batched_pass_appends_single_journal_entry(self, tmp_path):
        maintainer = build(COUNTING_SRC, "counting")
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal)
        maintainer.apply_many(mixed_batch())
        assert len(journal) == 1
        (entry,) = journal.replay()
        logged = {name: delta.to_dict() for name, delta in entry}
        assert logged == {name: delta.to_dict() for name, delta in MIXED}

    def test_net_zero_batch_is_a_noop(self, tmp_path):
        maintainer = build(COUNTING_SRC, "counting")
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal)
        before = fingerprint(maintainer)
        changes = Changeset().delete("link", ("a", "b"))
        report = maintainer.apply_many([changes.copy(), changes.inverted()])
        assert report.total_changes() == 0
        assert fingerprint(maintainer) == before
        assert maintainer.lifetime.passes == 0
        assert len(journal) == 0

    def test_invalid_net_delete_rolls_back_batch(self):
        maintainer = build(COUNTING_SRC, "counting")
        before = fingerprint(maintainer)
        batch = [
            Changeset().insert("link", ("q", "r")),
            Changeset().delete("link", ("no", "pe")),  # net delete: invalid
        ]
        with pytest.raises(MaintenanceError):
            maintainer.apply_many(batch)
        assert fingerprint(maintainer) == before
        maintainer.consistency_check()


class TestCheckpointRecovery:
    def _factory(self, source, strategy):
        return lambda db: ViewMaintainer.from_source(
            source, db, strategy=strategy
        )

    def test_watermark_round_trip_never_double_applies(self, tmp_path):
        """Duplicate semantics would double counts if the snapshot's
        entries were replayed again (the old recover() bug)."""
        snap = str(tmp_path / "snap.json")
        maintainer = build(COUNTING_SRC, "counting", semantics="duplicate")
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal, snapshot_path=snap)

        maintainer.apply(Changeset().insert("link", ("a", "b")))  # count 2
        maintainer.checkpoint()
        assert snapshot_watermark(snap) == 1
        maintainer.apply(Changeset().insert("link", ("e", "a")))

        # The journal still holds entry 1 (covered by the snapshot):
        # recovery must replay only entry 2.
        recovered = recover(
            lambda db: ViewMaintainer.from_source(
                COUNTING_SRC, db, semantics="duplicate"
            ),
            snap,
            Journal(journal.path),
        )
        assert recovered.relation("link").count(("a", "b")) == 2
        assert fingerprint(recovered) == fingerprint(maintainer)

    def test_attach_writes_initial_snapshot(self, tmp_path):
        snap = str(tmp_path / "snap.json")
        maintainer = build(COUNTING_SRC, "counting")
        maintainer.attach_journal(
            Journal(str(tmp_path / "log.jsonl")), snapshot_path=snap
        )
        assert os.path.exists(snap)
        database, watermark = load_snapshot(snap)
        assert watermark == 0
        assert database.relation("link").to_dict() == (
            maintainer.database.relation("link").to_dict()
        )

    def test_auto_checkpoint_every_n_passes(self, tmp_path):
        snap = str(tmp_path / "snap.json")
        maintainer = build(COUNTING_SRC, "counting")
        maintainer.attach_journal(
            Journal(str(tmp_path / "log.jsonl")),
            snapshot_path=snap,
            checkpoint_every=2,
        )
        maintainer.apply(Changeset().insert("link", ("e", "a")))
        assert snapshot_watermark(snap) == 0  # not yet
        maintainer.apply(Changeset().insert("link", ("e", "b")))
        assert snapshot_watermark(snap) == 2  # fired
        maintainer.apply(Changeset().insert("link", ("e", "c")))
        assert snapshot_watermark(snap) == 2

    def test_checkpoint_prunes_covered_segments(self, tmp_path):
        snap = str(tmp_path / "snap.json")
        journal = Journal(str(tmp_path / "log.jsonl"), segment_entries=1)
        maintainer = build(COUNTING_SRC, "counting")
        maintainer.attach_journal(journal, snapshot_path=snap)
        for node in ("u", "v", "w"):
            maintainer.apply(Changeset().insert("link", (node, "a")))
        assert len(journal._archived_paths()) >= 2
        maintainer.checkpoint()
        assert journal._archived_paths() == []
        # Everything is in the snapshot now; replay after watermark is empty.
        assert list(journal.replay(after=snapshot_watermark(snap))) == []

    def test_torn_snapshot_write_preserves_old_snapshot(self, tmp_path):
        snap = str(tmp_path / "snap.json")
        maintainer = build(COUNTING_SRC, "counting")
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal, snapshot_path=snap)  # watermark 0
        maintainer.apply(MIXED)

        maintainer.faults.arm("snapshot_write")
        with pytest.raises(InjectedFault):
            maintainer.checkpoint()
        assert not os.path.exists(snap + ".tmp")  # no torn temp left
        assert snapshot_watermark(snap) == 0      # old snapshot intact

        # Recovery from the surviving snapshot + journal reproduces the
        # exact live state, as if the checkpoint had never been tried.
        recovered = recover(
            self._factory(COUNTING_SRC, "counting"), snap, Journal(journal.path)
        )
        assert fingerprint(recovered) == fingerprint(maintainer)
        recovered.consistency_check()

    def test_auto_checkpoint_failure_does_not_fail_the_pass(self, tmp_path):
        snap = str(tmp_path / "snap.json")
        maintainer = build(COUNTING_SRC, "counting")
        maintainer.attach_journal(
            Journal(str(tmp_path / "log.jsonl")),
            snapshot_path=snap,
            checkpoint_every=1,
        )
        maintainer.faults.arm("snapshot_write")
        report = maintainer.apply(Changeset().insert("link", ("e", "a")))
        assert report.total_changes() > 0          # the pass committed
        assert maintainer.lifetime.passes == 1
        assert len(maintainer.checkpoint_errors) == 1
        assert isinstance(maintainer.checkpoint_errors[0], InjectedFault)
        # The next pass retries the checkpoint and succeeds.
        maintainer.apply(Changeset().insert("link", ("e", "b")))
        assert snapshot_watermark(snap) == 2

    def test_recover_after_dred_crash(self, tmp_path):
        """End-to-end drill: crash mid-pass, restart from disk, retry."""
        snap = str(tmp_path / "snap.json")
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer = build(DRED_SRC, "dred")
        maintainer.attach_journal(journal, snapshot_path=snap)
        maintainer.apply(Changeset().insert("link", ("e", "a")))
        maintainer.faults.arm("rederivation")
        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)

        recovered = recover(
            self._factory(DRED_SRC, "dred"),
            snap,
            Journal(journal.path),
            attach=True,
        )
        assert fingerprint(recovered) == fingerprint(maintainer)
        recovered.apply(MIXED)  # the interrupted batch, retried
        recovered.consistency_check()

    def test_checkpoint_requires_snapshot_path(self, tmp_path):
        maintainer = build(COUNTING_SRC, "counting")
        maintainer.attach_journal(Journal(str(tmp_path / "log.jsonl")))
        with pytest.raises(MaintenanceError, match="snapshot_path"):
            maintainer.checkpoint()
        with pytest.raises(MaintenanceError, match="snapshot_path"):
            maintainer.attach_journal(
                Journal(str(tmp_path / "log2.jsonl")), checkpoint_every=5
            )


class TestSubscriberIsolation:
    def _maintainer(self):
        maintainer = build(COUNTING_SRC, "counting")
        maintainer._subscriptions.backoff_seconds = 0.0  # fast tests
        return maintainer

    def test_subscriber_exception_does_not_fail_committed_pass(self):
        """Regression: a raising callback used to propagate out of apply
        *after* the views were already mutated, faking a failed pass."""
        maintainer = self._maintainer()
        calls = []

        def bad(view, delta):
            calls.append(view)
            raise RuntimeError("subscriber crashed")

        maintainer.subscribe("hop", bad)
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert report.total_changes() > 0
        assert maintainer.lifetime.passes == 1
        maintainer.consistency_check()
        assert len(calls) == 3  # retried max_attempts times

    def test_failed_delivery_is_dead_lettered_with_delta(self):
        maintainer = self._maintainer()

        def bad(view, delta):
            raise ValueError("nope")

        maintainer.subscribe("hop", bad)
        report = maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert len(maintainer.dead_letters) == 1
        letter = maintainer.dead_letters[0]
        assert letter.view == "hop"
        assert letter.attempts == 3
        assert isinstance(letter.error, ValueError)
        assert letter.delta.to_dict() == report.delta("hop").to_dict()

    def test_transient_failure_is_retried_to_success(self):
        maintainer = self._maintainer()
        attempts = []

        def flaky(view, delta):
            attempts.append(view)
            if len(attempts) == 1:
                raise TimeoutError("first try fails")

        maintainer.subscribe("hop", flaky)
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert len(attempts) == 2
        assert maintainer.dead_letters == []

    def test_one_bad_subscriber_does_not_starve_others(self):
        maintainer = self._maintainer()
        received = []
        maintainer.subscribe("hop", lambda v, d: 1 / 0)
        maintainer.subscribe("hop", lambda v, d: received.append(v))
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert received == ["hop"]
        assert len(maintainer.dead_letters) == 1


class TestSelfHealing:
    def test_divergence_error_raised_and_subclasses_maintenance_error(self):
        maintainer = build(COUNTING_SRC, "counting")
        maintainer.views["hop"].add(("z", "z"), 1)  # simulate corruption
        with pytest.raises(DivergenceError, match="hop"):
            maintainer.consistency_check()
        assert issubclass(DivergenceError, MaintenanceError)

    def test_heal_rebuilds_damaged_views_in_place(self):
        maintainer = build(COUNTING_SRC, "counting")
        damaged = maintainer.views["hop"]
        damaged.add(("z", "z"), 1)
        damaged.discard(("a", "c"))
        report = maintainer.heal()
        assert report.healed["hop"] == (1, 1)  # one missing, one extra
        assert maintainer.views["hop"] is damaged  # identity preserved
        assert "mn" in report.aggregates_reset
        maintainer.consistency_check()

    def test_consistency_check_repair_true_heals_instead_of_raising(self):
        maintainer = build(DRED_SRC, "dred")
        maintainer.views["tc"].add(("z", "z"), 1)
        report = maintainer.consistency_check(repair=True)
        assert report is not None and "tc" in report.healed
        maintainer.consistency_check()

    def test_heal_on_healthy_maintainer_is_a_noop(self):
        maintainer = build(COUNTING_SRC, "counting")
        report = maintainer.heal()
        assert report.is_clean()
        assert "nothing healed" in report.summary()
        assert maintainer.consistency_check(repair=True) is None

    @pytest.mark.parametrize("strategy", ["counting", "dred", "bf"])
    def test_heal_stores_the_counts_initialize_does(self, strategy):
        """hop(a, d) has two derivations: counting stores 2, the
        set-only strategies 1 — from ``heal()`` as from ``initialize()``."""
        maintainer = build(
            "hop(X, Y) :- link(X, Z), link(Z, Y).",
            strategy,
            links=[("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")],
        )
        stored = maintainer.views["hop"].to_dict()
        assert stored == {("a", "d"): 2 if strategy == "counting" else 1}
        maintainer.views["hop"].add(("z", "z"), 1)
        maintainer.heal()
        assert maintainer.views["hop"].to_dict() == stored

    @pytest.mark.parametrize("strategy, source", [
        ("counting", COUNTING_SRC), ("bf", DRED_SRC),
    ])
    def test_consistency_check_verdict_ignores_mvcc(self, strategy, source):
        verdicts = []
        for mvcc in (True, False):
            maintainer = build(source, strategy, mvcc=mvcc)
            assert maintainer.consistency_check() is None
            view = "hop" if strategy == "counting" else "tc"
            maintainer.views[view].add(("z", "z"), 1)
            maintainer.views[view].discard(("a", "c"))
            with pytest.raises(DivergenceError, match=view) as caught:
                maintainer.consistency_check()
            verdicts.append(str(caught.value).split(": ", 1)[1])
            assert maintainer.consistency_check(repair=True).healed == {
                view: (1, 1)
            }
        assert verdicts[0] == verdicts[1]

    def test_heal_restores_duplicate_counts(self):
        maintainer = build(COUNTING_SRC, "counting", semantics="duplicate")
        maintainer.views["hop"].set_count(("a", "c"), 99)
        report = maintainer.heal()
        assert report.healed["hop"] == (0, 0)  # count-only divergence
        maintainer.consistency_check()


class TestGuardCheckpointAtomicity:
    """BudgetExceeded injected at EVERY guard checkpoint rolls back.

    The guard checkpoints are new crash points inside the hot loops;
    each must preserve the shadow-commit contract.  The meter is armed
    with an enormous (but bounded, hence enabled) budget so checkpoints
    execute without tripping on their own, and the fault injector
    raises ``BudgetExceeded`` at the k-th checkpoint for every k the
    pass reaches.
    """

    BREACH = GuardPolicy(
        budget=MaintenanceBudget(max_rule_firings=10**9), fallback="raise"
    )

    @pytest.mark.parametrize("strategy, source", [
        ("counting", COUNTING_SRC), ("dred", DRED_SRC), ("bf", DRED_SRC),
    ])
    def test_breach_at_every_checkpoint_leaves_state_identical(
        self, strategy, source
    ):
        checkpoints = 0
        for position in range(1, 200):
            maintainer = ViewMaintainer.from_source(
                source,
                database_with(EXAMPLE_1_1_LINKS),
                strategy=strategy,
                guard=self.BREACH,
            ).initialize()
            before = fingerprint(maintainer)
            maintainer.faults.arm(
                "budget_check",
                at=position,
                exception=BudgetExceeded("injected", kind="injected"),
            )
            if maintainer.faults.armed("budget_check"):
                try:
                    maintainer.apply(MIXED)
                except BudgetExceeded:
                    pass
            if not maintainer.faults.fired:
                # The pass has fewer than `position` checkpoints: the
                # apply committed normally and the sweep is complete.
                assert maintainer.lifetime.passes == 1
                break
            checkpoints += 1
            assert fingerprint(maintainer) == before
            assert maintainer.lifetime.passes == 0
            maintainer.consistency_check()
        else:
            pytest.fail("checkpoint sweep never terminated")
        assert checkpoints >= 3, f"only {checkpoints} checkpoints reached"

    @pytest.mark.parametrize("strategy, source", [
        ("counting", COUNTING_SRC), ("dred", DRED_SRC), ("bf", DRED_SRC),
    ])
    def test_fallback_after_any_checkpoint_matches_control(
        self, strategy, source
    ):
        policy = GuardPolicy(budget=MaintenanceBudget(max_rule_firings=10**9))
        control = build(source, strategy)
        control.apply(MIXED)
        expected = fingerprint(control)
        for position in (1, 2, 3):
            maintainer = ViewMaintainer.from_source(
                source,
                database_with(EXAMPLE_1_1_LINKS),
                strategy=strategy,
                guard=policy,
            ).initialize()
            maintainer.faults.arm(
                "budget_check",
                at=position,
                exception=BudgetExceeded("injected", kind="injected"),
            )
            report = maintainer.apply(MIXED)
            assert report.strategy == "recompute"
            assert fingerprint(maintainer) == expected
            maintainer.consistency_check()

    @pytest.mark.parametrize("strategy", ["dred", "bf"])
    def test_admission_admits_what_the_set_only_engines_accept(
        self, strategy
    ):
        """Deleting a stored row twice is one set-level delete to DRed
        and B/F alike; only deleting an absent row is poison."""
        twice = (
            Changeset().delete("link", ("a", "b")).delete("link", ("a", "b"))
        )
        guarded = build(DRED_SRC, strategy, guard=GuardPolicy(admission=True))
        control = build(DRED_SRC, strategy)
        assert guarded.apply(twice).strategy == strategy
        control.apply(twice)
        assert fingerprint(guarded) == fingerprint(control)
        with pytest.raises(PoisonChangesetError, match="not stored"):
            guarded.apply(Changeset().delete("link", ("a", "b")))

    def test_fault_during_admission_leaves_state_identical(self, tmp_path):
        guard = GuardPolicy(quarantine_path=str(tmp_path / "q.dlq"))
        maintainer = ViewMaintainer.from_source(
            COUNTING_SRC,
            database_with(EXAMPLE_1_1_LINKS),
            strategy="counting",
            guard=guard,
        ).initialize()
        before = fingerprint(maintainer)
        maintainer.faults.arm("admission")
        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)
        assert fingerprint(maintainer) == before
        assert len(maintainer.quarantine) == 0

    def test_fault_during_quarantine_append_leaves_state_identical(
        self, tmp_path
    ):
        guard = GuardPolicy(quarantine_path=str(tmp_path / "q.dlq"))
        maintainer = ViewMaintainer.from_source(
            COUNTING_SRC,
            database_with(EXAMPLE_1_1_LINKS),
            strategy="counting",
            guard=guard,
        ).initialize()
        before = fingerprint(maintainer)
        maintainer.faults.arm("quarantine_append")
        with pytest.raises(InjectedFault):
            maintainer.apply(Changeset().insert("hop", ("x", "y")))
        assert fingerprint(maintainer) == before
        assert len(maintainer.quarantine) == 0
        assert maintainer.lag()["changesets"] == 0

    def test_fault_during_fallback_recompute_leaves_state_identical(self):
        maintainer = ViewMaintainer.from_source(
            COUNTING_SRC,
            database_with(EXAMPLE_1_1_LINKS),
            strategy="counting",
            guard=GuardPolicy(force_fallback=True),
        ).initialize()
        before = fingerprint(maintainer)
        maintainer.faults.arm("fallback_recompute")
        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)
        assert fingerprint(maintainer) == before
        assert maintainer.lifetime.passes == 0
        # The one-shot plan is spent: the retry commits cleanly.
        maintainer.apply(MIXED)
        maintainer.consistency_check()


class TestFaultInjectorUnit:
    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown fault phase"):
            FaultInjector().arm("warp_core_breach")

    def test_fires_on_nth_arrival_then_disarms(self):
        faults = FaultInjector().arm("count_merge", at=2)
        faults.fire("count_merge")  # first arrival: armed, no fire
        with pytest.raises(InjectedFault):
            faults.fire("count_merge")
        faults.fire("count_merge")  # one-shot: now inert
        assert faults.fired == ["count_merge"]

    def test_disarm(self):
        faults = FaultInjector().arm("count_merge").arm("rederivation")
        faults.disarm("count_merge")
        faults.fire("count_merge")
        faults.disarm()
        faults.fire("rederivation")
        assert faults.fired == []

    def test_all_documented_phases_are_armable(self):
        faults = FaultInjector()
        for phase in PHASES:
            faults.arm(phase)
            assert faults.armed(phase)

    def test_every_n_fires_periodically_and_stays_armed(self):
        faults = FaultInjector().arm("count_merge", every_n=3)
        fired = 0
        for _ in range(9):
            try:
                faults.fire("count_merge")
            except InjectedFault:
                fired += 1
        assert fired == 3  # arrivals 3, 6, 9
        assert faults.armed("count_merge")  # persistent plan

    def test_first_k_fires_k_times_then_disarms(self):
        faults = FaultInjector().arm("count_merge", first_k=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.fire("count_merge")
        faults.fire("count_merge")  # third arrival: plan consumed
        assert faults.fired == ["count_merge", "count_merge"]
        assert not faults.armed("count_merge")

    def test_intermittent_modes_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("count_merge", every_n=2, first_k=2)
        with pytest.raises(ValueError):
            FaultInjector().arm("count_merge", every_n=0)
        with pytest.raises(ValueError):
            FaultInjector().arm("count_merge", first_k=0)

    def test_intermittent_custom_exception(self):
        faults = FaultInjector().arm(
            "journal_append", every_n=2, exception=OSError("flaky disk")
        )
        faults.fire("journal_append")
        with pytest.raises(OSError, match="flaky disk"):
            faults.fire("journal_append")


class TestUndoLogUnit:
    def test_count_notes_restore_earliest_preimage(self):
        relation = CountedRelation("r", 1)
        relation.add((1,), 5)
        undo = UndoLog()
        undo.note_count(relation, (1,))
        relation.set_count((1,), 7)
        undo.note_count(relation, (1,))  # later note, later pre-image
        relation.set_count((1,), 9)
        undo.unwind()
        assert relation.count((1,)) == 5  # earliest note wins

    def test_unwind_drops_created_base_and_restores_groups(self):
        database = Database()
        undo = UndoLog()
        undo.note_base_created(database, "fresh")
        database.create_relation("fresh").add((1,), 1)
        states = {("g",): (1, 2)}
        undo.note_group(states, ("g",))
        undo.note_group(states, ("new",))
        states[("g",)] = (9, 9)
        states[("new",)] = (0, 0)
        undo.unwind()
        assert "fresh" not in database
        assert states == {("g",): (1, 2)}

    def test_unwind_is_idempotent_and_resets(self):
        relation = CountedRelation("r", 1)
        relation.add((1,), 1)
        undo = UndoLog()
        undo.note_count(relation, (1,))
        relation.set_count((1,), 3)
        assert undo.unwind() == 1
        assert undo.unwind() == 0  # log cleared
        assert relation.count((1,)) == 1
