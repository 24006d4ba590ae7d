"""MVCC tests: commit epochs, pinned snapshots, GC, atomic publication.

The contract under test (docs/operations.md, "Consistent reads &
snapshots"): every maintenance pass publishes its changes as one commit
epoch — all base relations and views flip together — and a reader
pinned to an epoch sees exactly that epoch's state, forever, or gets a
typed :class:`~repro.errors.SnapshotTooOldError` once retention
reclaims it.  Crash unwind discards the uncommitted epoch; nothing a
failed pass touched is ever visible to any reader.
"""

import threading

import pytest

from repro.analysis.soak import run_soak
from repro.core.maintenance import ViewMaintainer
from repro.errors import (
    BudgetExceeded,
    MaintenanceError,
    SnapshotTooOldError,
    StaleViewError,
)
from repro.guard import GuardPolicy, MaintenanceBudget
from repro.resilience.faults import InjectedFault
from repro.resilience.repair import repair_divergence
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.journal import Journal, recover
from repro.storage.mvcc import SnapshotRead, VersionManager, autocommit

from conftest import EXAMPLE_1_1_LINKS, HOP_TRI_SRC, TC_SRC, database_with


def _maintainer(source=HOP_TRI_SRC, edges=EXAMPLE_1_1_LINKS, **kwargs):
    return ViewMaintainer.from_source(
        source, database_with(edges), **kwargs
    ).initialize()


class TestVersionManager:
    def test_database_defaults_to_mvcc(self):
        db = Database()
        assert db.mvcc is not None
        assert db.epoch == 0

    def test_direct_writes_autocommit_mini_epochs(self):
        db = Database()
        db.insert("link", ("a", "b"))
        assert db.epoch == 1
        db.delete("link", ("a", "b"))
        assert db.epoch == 2

    def test_snapshot_pins_and_releases(self):
        db = database_with(EXAMPLE_1_1_LINKS)
        snap = db.snapshot()
        assert snap.epoch == db.epoch
        assert db.mvcc.active_snapshots() == 1
        assert db.mvcc.oldest_pinned() == snap.epoch
        snap.close()
        assert db.mvcc.active_snapshots() == 0
        with pytest.raises(MaintenanceError):
            snap.relation("link")

    def test_snapshot_isolated_from_later_writes(self):
        db = database_with(EXAMPLE_1_1_LINKS)
        with db.snapshot() as snap:
            db.insert("link", ("z", "z"))
            assert ("z", "z") in db.relation("link")
            assert ("z", "z") not in snap.relation("link")
            assert snap.staleness() == 1

    def test_gc_reclaims_everything_once_unpinned(self):
        db = database_with(EXAMPLE_1_1_LINKS)
        with db.snapshot():
            for index in range(4):
                db.insert("link", ("n", index))
            assert db.mvcc.retained_entries() > 0
        # Releasing the only pin lets the floor advance to the current
        # epoch: every entry is reclaimable.
        assert db.mvcc.retained_entries() == 0

    def test_pin_future_epoch_rejected(self):
        db = database_with(EXAMPLE_1_1_LINKS)
        with pytest.raises(MaintenanceError, match="current epoch"):
            db.snapshot(epoch=db.epoch + 1)

    def test_retention_cap_fails_typed(self):
        db = Database(retain_versions=2)
        db.insert_rows("link", EXAMPLE_1_1_LINKS)
        pinned = db.epoch
        with db.snapshot() as snap:
            for index in range(6):
                db.insert("link", ("n", index))
            with pytest.raises(SnapshotTooOldError) as excinfo:
                snap.relation("link")
        assert excinfo.value.epoch == pinned
        assert excinfo.value.min_readable > pinned
        # And pinning the reclaimed epoch afresh fails the same way.
        with pytest.raises(SnapshotTooOldError):
            db.snapshot(epoch=pinned)

    def test_retain_versions_validated(self):
        with pytest.raises(ValueError):
            VersionManager(retain_versions=0)

    def test_single_writer_enforced(self):
        manager = VersionManager()
        manager.begin()
        with pytest.raises(MaintenanceError, match="single-writer"):
            manager.begin()
        manager.abort()

    def test_mvcc_off_database_has_no_snapshots(self):
        db = Database(mvcc=False)
        db.insert_rows("link", EXAMPLE_1_1_LINKS)
        assert db.mvcc is None
        assert db.epoch == 0
        with pytest.raises(MaintenanceError, match="mvcc"):
            db.snapshot()

    def test_copy_gets_a_fresh_history(self):
        db = database_with(EXAMPLE_1_1_LINKS)
        assert db.epoch > 0
        clone = db.copy()
        assert clone.epoch == 0
        assert clone.mvcc.retain_versions == db.mvcc.retain_versions
        before = db.epoch
        clone.insert("link", ("z", "z"))
        assert clone.epoch == 1
        assert db.epoch == before  # histories are independent

    def test_autocommit_noop_inside_open_epoch(self):
        manager = VersionManager()
        manager.begin()
        with autocommit(manager):
            pass
        assert manager.in_flight  # the outer epoch is still open
        manager.abort()


class TestMaintenancePublication:
    def test_pass_publishes_one_epoch(self):
        maintainer = _maintainer()
        db = maintainer.database
        before = db.epoch
        report = maintainer.apply(
            Changeset().insert("link", ("c", "a")).delete("link", ("a", "d"))
        )
        assert report.epoch == before + 1
        assert db.epoch == report.epoch

    def test_snapshot_sees_base_and_views_flip_together(self):
        maintainer = _maintainer()
        db = maintainer.database
        old_hop = maintainer.views["hop"].to_dict()
        old_link = db.relation("link").to_dict()
        with db.snapshot() as snap:
            maintainer.apply(Changeset().insert("link", ("c", "a")))
            # Live state moved on; the snapshot still reads the pinned
            # epoch for base and views alike — never a mix.
            assert maintainer.views["hop"].to_dict() != old_hop
            assert snap.relation("hop").to_dict() == old_hop
            assert snap.relation("link").to_dict() == old_link

    def test_crash_discards_the_uncommitted_epoch(self):
        maintainer = _maintainer()
        db = maintainer.database
        before_epoch = db.epoch
        before_hop = maintainer.views["hop"].to_dict()
        maintainer.faults.arm("count_merge")
        with pytest.raises(InjectedFault):
            maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert db.epoch == before_epoch
        assert not db.mvcc.in_flight
        assert db.mvcc.aborts >= 1
        assert maintainer.views["hop"].to_dict() == before_hop
        # A retry after the crash publishes cleanly.
        report = maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert report.epoch == before_epoch + 1

    def test_reader_pinned_across_a_crash_is_untouched(self):
        maintainer = _maintainer()
        db = maintainer.database
        with db.snapshot() as snap:
            expected = snap.relation("hop").to_dict()
            maintainer.faults.arm("count_merge")
            with pytest.raises(InjectedFault):
                maintainer.apply(Changeset().insert("link", ("c", "a")))
            assert snap.relation("hop").to_dict() == expected

    def test_budget_breach_fallback_publishes_atomically(self):
        guard = GuardPolicy(
            budget=MaintenanceBudget(max_delta_tuples=0),
            fallback="recompute",
        )
        maintainer = _maintainer(guard=guard)
        db = maintainer.database
        before = db.epoch
        report = maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert maintainer.guard.breaches == 1
        assert report.epoch == before + 1
        assert db.epoch == report.epoch
        maintainer.consistency_check()

    def test_budget_breach_raise_discards_the_epoch(self):
        guard = GuardPolicy(
            budget=MaintenanceBudget(max_delta_tuples=0), fallback="raise"
        )
        maintainer = _maintainer(guard=guard)
        db = maintainer.database
        before = db.epoch
        with pytest.raises(BudgetExceeded):
            maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert db.epoch == before
        assert not db.mvcc.in_flight

    def test_apply_many_is_one_epoch(self):
        maintainer = _maintainer()
        db = maintainer.database
        before = db.epoch
        report = maintainer.apply_many(
            [
                Changeset().insert("link", ("c", "a")),
                Changeset().insert("link", ("c", "f")),
                Changeset().delete("link", ("c", "f")),
            ]
        )
        assert report.epoch == before + 1
        assert db.epoch == before + 1

    def test_alter_publishes_then_severs(self):
        maintainer = _maintainer()
        db = maintainer.database
        with db.snapshot() as snap:
            report = maintainer.alter(
                add=["two_hop(X, Y) :- hop(X, Y), not link(X, Y)."]
            )
            assert report.epoch is not None
            # Rule changes replace view objects wholesale; old pins
            # cannot span that, so the read fails typed.
            with pytest.raises(SnapshotTooOldError):
                snap.relation("hop")
        maintainer.consistency_check()

    def test_refresh_severs_history(self):
        maintainer = _maintainer()
        db = maintainer.database
        with db.snapshot() as snap:
            maintainer.refresh()
            with pytest.raises(SnapshotTooOldError):
                snap.relation("hop")


class TestStrictReadModes:
    def _lagged(self, mode):
        guard = GuardPolicy(
            budget=MaintenanceBudget(max_delta_tuples=0),
            fallback="skip",
            strict_reads=mode,
        )
        maintainer = _maintainer(guard=guard)
        committed = maintainer.database.epoch
        report = maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert report.strategy == "skipped"
        assert maintainer.lag()["changesets"] == 1
        return maintainer, committed

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="strict_reads"):
            GuardPolicy(strict_reads="eventually")

    def test_reject_mode_raises_on_lagging_read(self):
        maintainer, _ = self._lagged("reject")
        with pytest.raises(StaleViewError):
            maintainer.relation("hop")

    def test_serve_mode_returns_live_state(self):
        maintainer, _ = self._lagged("serve")
        assert maintainer.relation("hop") is maintainer.views["hop"]

    def test_snapshot_mode_serves_last_epoch_with_lag(self):
        maintainer, committed = self._lagged("snapshot")
        read = maintainer.relation("hop")
        assert isinstance(read, SnapshotRead)
        assert read.epoch == committed
        assert read.staleness["changesets"] == 1
        assert read.to_dict() == maintainer.views["hop"].to_dict()

    def test_snapshot_read_requires_mvcc(self):
        db = Database(mvcc=False)
        db.insert_rows("link", EXAMPLE_1_1_LINKS)
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, db
        ).initialize()
        with pytest.raises(MaintenanceError, match="mvcc=False"):
            maintainer.snapshot_read("hop")


class TestEpochSubscriptions:
    def test_three_argument_callbacks_receive_the_epoch(self):
        maintainer = _maintainer()
        seen = []
        maintainer.subscribe(
            "hop", lambda view, delta, epoch: seen.append(epoch)
        )
        report = maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert seen == [report.epoch]

    def test_two_argument_callbacks_are_unaffected(self):
        maintainer = _maintainer()
        seen = []
        maintainer.subscribe(
            "hop", lambda view, delta: seen.append((view, len(delta)))
        )
        maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert len(seen) == 1

    def test_dead_letters_carry_the_epoch(self):
        maintainer = _maintainer()
        maintainer._subscriptions.backoff_seconds = 0.0

        def explode(view, delta, epoch):
            raise RuntimeError("subscriber down")

        maintainer.subscribe("hop", explode)
        report = maintainer.apply(Changeset().insert("link", ("c", "a")))
        assert len(maintainer.dead_letters) == 1
        assert maintainer.dead_letters[0].epoch == report.epoch


class TestJournalEpochs:
    def test_entries_carry_the_published_epoch(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        maintainer = _maintainer()
        maintainer.attach_journal(
            journal, snapshot_path=str(tmp_path / "snap.json")
        )
        first = maintainer.apply(Changeset().insert("link", ("c", "a")))
        second = maintainer.apply(Changeset().delete("link", ("c", "a")))
        entries = list(journal.replay_entries())
        assert [(seq, epoch) for seq, epoch, _ in entries] == [
            (1, first.epoch),
            (2, second.epoch),
        ]

    def test_old_journals_without_epochs_still_replay(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        journal.append(Changeset().insert("link", ("c", "a")))
        seq, epoch, changes = next(iter(journal.replay_entries()))
        assert (seq, epoch) == (1, None)
        assert not changes.is_empty()

    def test_recover_restores_the_precrash_epoch(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        maintainer = _maintainer()
        maintainer.attach_journal(
            journal, snapshot_path=str(tmp_path / "snap.json")
        )
        maintainer.apply(Changeset().insert("link", ("c", "a")))
        maintainer.apply(Changeset().insert("link", ("c", "f")))
        precrash = maintainer.database.epoch

        recovered = recover(
            lambda db: ViewMaintainer.from_source(HOP_TRI_SRC, db),
            str(tmp_path / "snap.json"),
            Journal(str(tmp_path / "journal.jsonl")),
        )
        assert recovered.database.epoch == precrash
        assert (
            recovered.views["hop"].to_dict()
            == maintainer.views["hop"].to_dict()
        )
        # Post-recovery commits continue the pre-crash numbering.
        report = recovered.apply(Changeset().delete("link", ("c", "f")))
        assert report.epoch == precrash + 1

    def test_shell_recover_continues_epoch_numbering(self, tmp_path):
        from repro import cli

        source = (
            "link(a, b).\nlink(b, c).\n"
            "hop(X, Y) :- link(X, Z), link(Z, Y).\n"
        )
        journal_path = str(tmp_path / "journal.jsonl")
        snap_path = str(tmp_path / "snap.json")
        shell = cli.Shell(
            source,
            journal=Journal(journal_path),
            snapshot_path=snap_path,
        )
        shell.execute("+ link(c, f)")
        shell.execute("commit")
        precrash = shell.database.epoch
        shell.maintainer._journal.close()

        recovered = cli.Shell.recovered(
            source, snap_path, Journal(journal_path)
        )
        assert recovered.database.epoch == precrash
        recovered.execute("+ link(f, g)")
        recovered.execute("commit")
        entries = list(
            Journal(journal_path).replay_entries()
        )
        assert entries[-1][1] == precrash + 1

    def test_recover_upto_epoch_is_point_in_time(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        maintainer = _maintainer()
        maintainer.attach_journal(
            journal, snapshot_path=str(tmp_path / "snap.json")
        )
        first = maintainer.apply(Changeset().insert("link", ("c", "a")))
        intermediate = maintainer.views["hop"].to_dict()
        maintainer.apply(Changeset().insert("link", ("c", "f")))

        recovered = recover(
            lambda db: ViewMaintainer.from_source(HOP_TRI_SRC, db),
            str(tmp_path / "snap.json"),
            Journal(str(tmp_path / "journal.jsonl")),
            upto_epoch=first.epoch,
        )
        assert recovered.views["hop"].to_dict() == intermediate


class TestPinnedConsistencyAndHeal:
    def test_consistency_check_records_the_validated_epoch(self):
        maintainer = _maintainer()
        assert maintainer.last_validated_epoch is None
        maintainer.consistency_check()
        assert maintainer.last_validated_epoch == maintainer.database.epoch

    def test_repair_refuses_stale_evidence(self):
        maintainer = _maintainer()
        db = maintainer.database
        maintainer.views["hop"].add(("x", "x"))
        validated = db.epoch
        db.insert("link", ("q", "r"))  # a newer epoch lands mid-check
        with pytest.raises(MaintenanceError, match="refusing to repair"):
            repair_divergence(maintainer, validated_epoch=validated)
        # Re-running the check against the current epoch heals fine.
        maintainer.consistency_check(repair=True)
        maintainer.consistency_check()

    def test_repair_refuses_while_a_pass_is_in_flight(self):
        maintainer = _maintainer()
        db = maintainer.database
        maintainer.views["hop"].add(("x", "x"))
        validated = db.epoch
        db.mvcc.begin()
        try:
            with pytest.raises(MaintenanceError, match="in flight"):
                repair_divergence(maintainer, validated_epoch=validated)
        finally:
            db.mvcc.abort()

    def test_heal_publishes_one_epoch_for_the_patch(self):
        maintainer = _maintainer()
        db = maintainer.database
        maintainer.views["hop"].add(("x", "x"))
        before = db.epoch
        report = maintainer.heal(validated_epoch=before)
        assert report.healed
        assert report.epoch == before + 1
        maintainer.consistency_check()

    def test_clean_heal_commits_nothing(self):
        maintainer = _maintainer()
        before = maintainer.database.epoch
        report = maintainer.heal()
        assert report.is_clean()
        assert report.epoch is None
        assert maintainer.database.epoch == before


@pytest.mark.soak
class TestConcurrencySoak:
    """Readers race fault-injected writers; zero torn reads allowed.

    Together the three variants verify well over 10k per-view snapshot
    reads against the recompute oracle at their pinned epochs.
    """

    def test_counting_soak_zero_torn_reads(self):
        stats = run_soak(passes=300, min_reads=8000, seed=3)
        assert stats["problems"] == []
        assert stats["torn"] == []
        assert stats["reads"] >= 8000
        assert stats["crashes"] > 0
        assert stats["breaches"] > 0
        assert stats["max_retained"] <= stats["chain_cap"]

    def test_dred_soak_zero_torn_reads(self):
        stats = run_soak(
            passes=300,
            source=TC_SRC,
            strategy="dred",
            min_reads=2000,
            seed=5,
        )
        assert stats["problems"] == []
        assert stats["torn"] == []
        assert stats["reads"] >= 2000
        assert stats["crashes"] > 0
        assert stats["max_retained"] <= stats["chain_cap"]

    def test_bf_soak_zero_torn_reads(self):
        """Snapshot readers racing fault-injected B/F passes: a crash
        at any wave must discard the uncommitted epoch wholesale."""
        stats = run_soak(
            passes=300,
            source=TC_SRC,
            strategy="bf",
            min_reads=2000,
            seed=11,
        )
        assert stats["problems"] == []
        assert stats["torn"] == []
        assert stats["reads"] >= 2000
        assert stats["crashes"] > 0
        assert stats["max_retained"] <= stats["chain_cap"]

    def test_writer_round_trip_under_thread_interleaving(self):
        """A reader thread hammering pins while the writer commits
        serially must always see monotone epochs."""
        maintainer = _maintainer(source=TC_SRC)
        db = maintainer.database
        observed = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                with db.snapshot() as snap:
                    observed.append(snap.epoch)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for index in range(50):
                maintainer.apply(
                    Changeset().insert("link", ("t", index))
                )
        finally:
            stop.set()
            thread.join(timeout=30)
        assert observed == sorted(observed)
        assert db.mvcc.retained_entries() == 0
