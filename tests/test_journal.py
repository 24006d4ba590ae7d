"""Tests for the changeset journal and snapshot + replay recovery."""

import json

import pytest

from repro.core.maintenance import ViewMaintainer
from repro.errors import MaintenanceError
from repro.storage.changeset import Changeset
from repro.storage.journal import Journal, recover
from repro.storage.serialize import save_database

from conftest import HOP_TRI_SRC, database_with, EXAMPLE_1_1_LINKS


@pytest.fixture
def journal(tmp_path):
    return Journal(str(tmp_path / "changes.jsonl"))


class TestJournalBasics:
    def test_append_and_replay(self, journal):
        journal.append(Changeset().insert("link", ("a", "b")))
        journal.append(Changeset().delete("link", ("a", "b")))
        replayed = list(journal.replay())
        assert len(replayed) == 2
        assert replayed[0].delta("link").to_dict() == {("a", "b"): 1}
        assert replayed[1].delta("link").to_dict() == {("a", "b"): -1}

    def test_sequence_numbers_persist_across_instances(self, journal):
        journal.append(Changeset().insert("p", (1,)))
        reopened = Journal(journal.path)
        assert len(reopened) == 1
        reopened.append(Changeset().insert("p", (2,)))
        assert len(list(reopened.replay())) == 2

    def test_replay_after_offset(self, journal):
        for i in range(4):
            journal.append(Changeset().insert("p", (i,)))
        tail = list(journal.replay(after=2))
        assert len(tail) == 2
        assert tail[0].delta("p").to_dict() == {(2,): 1}

    def test_torn_tail_tolerated(self, journal):
        journal.append(Changeset().insert("p", (1,)))
        journal.append(Changeset().insert("p", (2,)))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "changes": {"fo')  # crash mid-write
        assert len(list(Journal(journal.path).replay())) == 2

    def test_append_after_torn_tail_not_glued_to_fragment(self, journal):
        journal.append(Changeset().insert("p", (1,)))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "changes": {"fo')  # crash mid-write
        reopened = Journal(journal.path)  # trims the torn fragment
        reopened.append(Changeset().insert("p", (2,)))
        replayed = list(Journal(journal.path).replay())
        assert [c.delta("p").to_dict() for c in replayed] == [
            {(1,): 1}, {(2,): 1},
        ]

    def test_mid_file_damage_not_silently_truncated(self, journal):
        journal.append(Changeset().insert("p", (1,)))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        journal.append(Changeset().insert("p", (2,)))
        journal.close()
        # The valid entry after the damage must survive reopen...
        with open(journal.path, "r", encoding="utf-8") as handle:
            assert '"seq":2' in handle.read().replace(" ", "")
        # ...and strict iteration reports the corruption.
        from repro.errors import SchemaError

        reopened = Journal(journal.path)
        with pytest.raises(SchemaError):
            list(reopened._iter_entries(strict=True))

    def test_truncate(self, journal):
        journal.append(Changeset().insert("p", (1,)))
        journal.truncate()
        assert len(journal) == 0
        assert list(journal.replay()) == []

    def test_empty_journal(self, journal):
        assert list(journal.replay()) == []
        assert len(journal) == 0


class TestDurabilityPolicy:
    def test_persistent_handle_reused_across_appends(self, journal):
        journal.append(Changeset().insert("p", (1,)))
        handle = journal._handle
        journal.append(Changeset().insert("p", (2,)))
        assert journal._handle is handle
        journal.close()
        assert journal._handle is None
        journal.append(Changeset().insert("p", (3,)))  # reopens lazily
        assert len(list(journal.replay())) == 3

    def test_fsync_false_with_explicit_sync(self, tmp_path):
        journal = Journal(str(tmp_path / "lazy.jsonl"), fsync=False)
        journal.append(Changeset().insert("p", (1,)))
        journal.sync()  # group-commit point
        journal.close()
        assert len(list(Journal(journal.path).replay())) == 1

    def test_context_manager_closes_handle(self, tmp_path):
        with Journal(str(tmp_path / "ctx.jsonl")) as journal:
            journal.append(Changeset().insert("p", (1,)))
            assert journal._handle is not None
        assert journal._handle is None


class TestSegmentRotation:
    def test_rotation_archives_and_replay_spans_segments(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=2)
        for i in range(5):
            journal.append(Changeset().insert("p", (i,)))
        archived = journal._archived_paths()
        assert len(archived) == 2
        assert archived[0].endswith(".seg" + "1".zfill(12))
        assert archived[1].endswith(".seg" + "3".zfill(12))
        replayed = list(journal.replay())
        assert [c.delta("p").to_dict() for c in replayed] == [
            {(i,): 1} for i in range(5)
        ]

    def test_sequence_continues_across_reopen_with_segments(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=2)
        for i in range(3):
            journal.append(Changeset().insert("p", (i,)))
        reopened = Journal(journal.path, segment_entries=2)
        assert len(reopened) == 3
        reopened.append(Changeset().insert("p", (3,)))
        assert len(list(reopened.replay())) == 4

    def test_replay_after_skips_covered_segments(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=2)
        for i in range(6):
            journal.append(Changeset().insert("p", (i,)))
        tail = list(journal.replay(after=4))
        assert [c.delta("p").to_dict() for c in tail] == [{(4,): 1}, {(5,): 1}]

    def test_prune_removes_only_covered_segments(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=2)
        for i in range(6):
            journal.append(Changeset().insert("p", (i,)))
        assert len(journal._archived_paths()) == 2  # [1-2], [3-4]; active [5-6]
        removed = journal.prune(upto=2)
        assert len(removed) == 1
        removed = journal.prune(upto=6)  # active segment is never pruned
        assert len(removed) == 1
        assert journal._archived_paths() == []
        assert len(list(journal.replay(after=4))) == 2

    def test_truncate_removes_archived_segments_too(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=1)
        for i in range(3):
            journal.append(Changeset().insert("p", (i,)))
        journal.truncate()
        assert journal._archived_paths() == []
        assert len(journal) == 0
        assert list(journal.replay()) == []

    def test_torn_tail_only_tolerated_in_active_segment(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=2)
        for i in range(3):
            journal.append(Changeset().insert("p", (i,)))
        archived = journal._archived_paths()[0]
        journal.close()
        with open(archived, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "chan')  # corruption mid-log
        with pytest.raises(Exception):
            list(Journal(journal.path, segment_entries=2).replay())

    def test_torn_active_tail_trimmed_after_rotation(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=2)
        for i in range(3):
            journal.append(Changeset().insert("p", (i,)))
        journal.close()
        # Crash mid-append into the active segment (one entry + fragment).
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "changes": {"fo')
        reopened = Journal(journal.path, segment_entries=2)
        assert len(reopened) == 3  # fragment trimmed, archive intact
        reopened.append(Changeset().insert("p", (3,)))
        replayed = list(reopened.replay())
        assert [c.delta("p").to_dict() for c in replayed] == [
            {(i,): 1} for i in range(4)
        ]

    def test_torn_fragment_as_entire_active_segment(self, tmp_path):
        journal = Journal(str(tmp_path / "seg.jsonl"), segment_entries=10)
        journal.append(Changeset().insert("p", (0,)))
        journal.append(Changeset().insert("p", (1,)))
        journal.rotate()  # archive both; no active file remains
        # The next append crashes before finishing its first line.
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "changes": {"fo')
        reopened = Journal(journal.path, segment_entries=10)
        # Trim empties the active file; archived segments still pin
        # the sequence, so the next append is seq 3, not seq 1.
        assert len(reopened) == 2
        assert reopened.append(Changeset().insert("p", (2,))) == 3
        replayed = list(reopened.replay())
        assert [c.delta("p").to_dict() for c in replayed] == [
            {(i,): 1} for i in range(3)
        ]

    def test_segment_entries_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "bad.jsonl"), segment_entries=0)


class TestFailedAppendRewind:
    """A failed append truncates its own partial line (guard retries
    must never glue a duplicate entry onto a torn fragment)."""

    def test_failed_fsync_leaves_no_torn_line(self, journal, monkeypatch):
        import repro.storage.journal as journal_module

        journal.append(Changeset().insert("p", (1,)))
        real_fsync = journal_module.os.fsync
        calls = {"n": 0}

        def flaky_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("fsync: disk wobble")
            return real_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", flaky_fsync)
        with pytest.raises(OSError, match="disk wobble"):
            journal.append(Changeset().insert("p", (2,)))

        # The partial line was rewound: the file holds exactly the one
        # durable entry, byte-clean.
        with open(journal.path, "rb") as handle:
            content = handle.read()
        assert content.count(b"\n") == 1
        assert len(journal) == 1

        # A retry of the same append succeeds without duplication.
        journal.append(Changeset().insert("p", (2,)))
        replayed = list(Journal(journal.path).replay())
        assert [c.delta("p").to_dict() for c in replayed] == [
            {(1,): 1}, {(2,): 1},
        ]

    def test_rewind_failure_degrades_to_torn_tail(
        self, journal, monkeypatch
    ):
        import repro.storage.journal as journal_module

        journal.append(Changeset().insert("p", (1,)))
        monkeypatch.setattr(
            journal_module.os,
            "fsync",
            lambda fd: (_ for _ in ()).throw(OSError("fsync down")),
        )
        original_open = open

        def no_rewind(path, mode="r", **kwargs):
            if mode == "rb+":
                raise OSError("cannot reopen")
            return original_open(path, mode, **kwargs)

        monkeypatch.setattr("builtins.open", no_rewind)
        with pytest.raises(OSError, match="fsync down"):
            journal.append(Changeset().insert("p", (2,)))
        monkeypatch.undo()

        # The un-fsynced line survives on disk, but reopening trims or
        # accepts it exactly like any crash tail — replay stays sane.
        replayed = list(Journal(journal.path).replay())
        assert replayed[0].delta("p").to_dict() == {(1,): 1}
        assert len(replayed) <= 2


class TestMaintainerIntegration:
    def test_applies_are_journaled(self, journal, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        maintainer.attach_journal(journal)
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        maintainer.apply(Changeset().insert("link", ("x", "y")))
        assert len(journal) == 2

    def test_failed_apply_not_journaled(self, journal, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        maintainer.attach_journal(journal)
        with pytest.raises(MaintenanceError):
            maintainer.apply(Changeset().delete("link", ("no", "pe")))
        assert len(journal) == 0

    def test_empty_apply_not_journaled(self, journal, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        maintainer.attach_journal(journal)
        maintainer.apply(Changeset())
        assert len(journal) == 0

    def test_alter_refused_while_journaled(self, journal, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        maintainer.attach_journal(journal)
        with pytest.raises(MaintenanceError, match="journal"):
            maintainer.alter(add=["hop(X, Y) :- link(Y, X)."])
        maintainer.detach_journal()
        maintainer.alter(add=["hop(X, Y) :- link(Y, X)."])

    def test_lifetime_stats(self, example_1_1_db):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, example_1_1_db
        ).initialize()
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        maintainer.apply(Changeset().insert("link", ("a", "b")))
        assert maintainer.lifetime.passes == 2
        assert maintainer.lifetime.tuples_changed > 0
        assert maintainer.lifetime.seconds > 0


class TestRecovery:
    def test_snapshot_plus_journal_recovers_full_state(self, tmp_path):
        snapshot = str(tmp_path / "snap.json")
        journal = Journal(str(tmp_path / "log.jsonl"))

        db = database_with(EXAMPLE_1_1_LINKS)
        save_database(db, snapshot)

        live = ViewMaintainer.from_source(HOP_TRI_SRC, db).initialize()
        live.attach_journal(journal)
        live.apply(Changeset().delete("link", ("a", "b")))
        live.apply(Changeset().insert("link", ("c", "q")))
        live.apply(Changeset().update("link", ("a", "d"), ("a", "z")))

        recovered = recover(
            lambda database: ViewMaintainer.from_source(
                HOP_TRI_SRC, database
            ),
            snapshot,
            Journal(journal.path),
        )
        for view in live.view_names():
            assert (
                recovered.relation(view).to_dict()
                == live.relation(view).to_dict()
            )
        assert recovered.relation("link").to_dict() == live.relation(
            "link").to_dict()
        recovered.consistency_check()

    def test_recovery_survives_torn_tail(self, tmp_path):
        snapshot = str(tmp_path / "snap.json")
        journal_path = str(tmp_path / "log.jsonl")
        db = database_with(EXAMPLE_1_1_LINKS)
        save_database(db, snapshot)
        live = ViewMaintainer.from_source(HOP_TRI_SRC, db).initialize()
        live.attach_journal(Journal(journal_path))
        live.apply(Changeset().delete("link", ("a", "b")))
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "chan')  # simulated crash
        recovered = recover(
            lambda database: ViewMaintainer.from_source(
                HOP_TRI_SRC, database
            ),
            snapshot,
            Journal(journal_path),
        )
        assert recovered.relation("hop").to_dict() == {("a", "c"): 1}
