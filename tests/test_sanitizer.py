"""The runtime invariant sanitizer: every trap, plus the wiring."""

import threading

import pytest

from repro.analysis.sanitizer import RuntimeSanitizer, fingerprint
from repro.analysis.soak import run_soak
from repro.core.maintenance import Changeset, ViewMaintainer
from repro.errors import SanitizerError
from repro.storage.database import Database

HOP_SRC = """
hop(X, Y) :- edge(X, Z), edge(Z, Y).
"""


def sanitized_db(rows=((1, 2), (2, 3), (3, 4))):
    db = Database(sanitize=True)
    db.insert_rows("edge", rows)
    return db


class TestEnablement:
    def test_disabled_by_default(self):
        assert Database().sanitizer is None

    def test_explicit_flag_attaches_sanitizer(self):
        db = Database(sanitize=True)
        assert isinstance(db.sanitizer, RuntimeSanitizer)
        assert db.mvcc.sanitizer is db.sanitizer

    def test_explicit_false_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Database(sanitize=False).sanitizer is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_environment_enables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert Database().sanitizer is not None

    @pytest.mark.parametrize("value", ["", "0", "no", "off"])
    def test_environment_falsey_values_stay_disabled(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert Database().sanitizer is None

    def test_non_mvcc_database_has_no_sanitizer(self):
        assert Database(mvcc=False, sanitize=True).sanitizer is None

    def test_clean_workload_runs_green(self):
        db = sanitized_db()
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, db, strategy="counting"
        )
        maintainer.initialize()
        maintainer.apply(Changeset().insert("edge", (4, 5)))
        maintainer.apply(Changeset().delete("edge", (1, 2)))
        assert db.sanitizer.trapped == 0
        assert db.sanitizer.checks > 0


class TestFingerprint:
    def test_order_independent(self):
        assert fingerprint({(1,): 2, (2,): 1}) == fingerprint(
            {(2,): 1, (1,): 2}
        )

    def test_zero_counts_are_absent(self):
        assert fingerprint({(1,): 2, (2,): 0}) == fingerprint({(1,): 2})

    def test_counts_matter(self):
        assert fingerprint({(1,): 2}) != fingerprint({(1,): 1})


class TestTornPublication:
    def test_rogue_write_traps_on_pinned_read(self):
        db = sanitized_db()
        pinned = db.mvcc.pin()
        # Bypass the pre-image protocol on purpose: the fingerprint
        # recorded for `pinned` no longer matches the live rows.
        db.relation("edge")._rows[(9, 9)] = 1
        with pytest.raises(SanitizerError) as exc:
            db.mvcc.materialize("edge", pinned)
        assert exc.value.invariant == "torn-publication"
        assert exc.value.relation == "edge"
        assert exc.value.epoch == pinned
        db.mvcc.release(pinned)

    def test_concurrent_readers_all_trap(self):
        db = sanitized_db()
        pinned = db.mvcc.pin()
        db.relation("edge")._rows[(9, 9)] = 1
        go = threading.Event()
        outcomes = []

        def read():
            go.wait()
            try:
                db.mvcc.materialize("edge", pinned)
                outcomes.append(None)
            except SanitizerError as error:
                outcomes.append(error.invariant)

        threads = [threading.Thread(target=read) for _ in range(3)]
        for t in threads:
            t.start()
        go.set()
        for t in threads:
            t.join()
        assert outcomes == ["torn-publication"] * 3
        db.mvcc.release(pinned)

    def test_clean_pinned_read_passes(self):
        db = sanitized_db()
        pinned = db.mvcc.pin()
        db.insert("edge", (4, 5))  # proper autocommit, new epoch
        rel = db.mvcc.materialize("edge", pinned)
        assert (4, 5) not in rel
        db.mvcc.release(pinned)


class TestNonnegativeCounts:
    def test_negative_count_trapped_at_commit(self):
        db = sanitized_db()
        manager = db.mvcc
        manager.begin()
        db.relation("edge")._rows[(1, 2)] = -1
        with pytest.raises(SanitizerError) as exc:
            manager.commit()
        assert exc.value.invariant == "nonnegative-counts"
        assert exc.value.relation == "edge"
        # The gate fired *before* publication: still abortable once the
        # rogue write is undone.
        db.relation("edge")._rows[(1, 2)] = 1
        manager.abort()

    def test_epoch_still_abortable_after_trap(self):
        db = sanitized_db()
        epoch_before = db.epoch
        manager = db.mvcc
        manager.begin()
        db.relation("edge")._rows[(1, 2)] = -3
        with pytest.raises(SanitizerError):
            manager.commit()
        db.relation("edge")._rows[(1, 2)] = 1
        manager.abort()
        assert db.epoch == epoch_before


class TestEpochMonotonicity:
    def test_out_of_order_publish_is_trapped(self):
        sanitizer = RuntimeSanitizer()
        sanitizer.after_commit({}, 5)
        with pytest.raises(SanitizerError) as exc:
            sanitizer.before_commit({}, 5, 4)
        assert exc.value.invariant == "epoch-monotonicity"

    def test_skipped_epoch_is_trapped(self):
        sanitizer = RuntimeSanitizer()
        with pytest.raises(SanitizerError):
            sanitizer.before_commit({}, 7, 5)

    def test_thread_local_epoch_vector(self):
        sanitizer = RuntimeSanitizer()
        sanitizer.on_materialize("edge", 1, {}, 4)
        with pytest.raises(SanitizerError) as exc:
            sanitizer.on_materialize("edge", 1, {}, 3)
        assert exc.value.invariant == "epoch-monotonicity"

    def test_epoch_vector_is_per_thread(self):
        sanitizer = RuntimeSanitizer()
        sanitizer.on_materialize("edge", 1, {}, 9)
        seen = []

        def other():
            # A fresh thread starts from zero: 3 < 9 is fine here.
            sanitizer.on_materialize("edge", 1, {}, 3)
            seen.append(True)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert seen == [True]


class TestAbortReversibility:
    def test_clean_abort_passes(self):
        db = sanitized_db()
        manager = db.mvcc
        manager.begin()
        db.insert("edge", (7, 8))
        manager.abort()
        assert (7, 8) not in db.relation("edge")

    def test_unlogged_write_trapped_at_abort(self):
        db = sanitized_db()
        manager = db.mvcc
        manager.begin()
        db.relation("edge")._rows[(7, 8)] = 1  # bypasses the undo log
        with pytest.raises(SanitizerError) as exc:
            manager.abort()
        assert exc.value.invariant == "abort-reversibility"
        assert exc.value.relation == "edge"

    def test_relation_registered_mid_pass_is_exempt(self):
        db = sanitized_db()
        manager = db.mvcc
        manager.begin()
        db.insert("fresh", (1,))
        manager.abort()  # no begin-time baseline for "fresh": no trap


class TestSnapshotImmutability:
    def test_mutated_snapshot_cache_trapped_at_close(self):
        db = sanitized_db()
        snapshot = db.snapshot()
        rel = snapshot.relation("edge")
        rel._rows[(9, 9)] = 1  # caller breaks the immutability contract
        with pytest.raises(SanitizerError) as exc:
            snapshot.close()
        assert exc.value.invariant == "snapshot-immutability"
        assert exc.value.relation == "edge"

    def test_clean_snapshot_close_passes(self):
        db = sanitized_db()
        with db.snapshot() as snapshot:
            assert (1, 2) in snapshot.relation("edge")
        assert db.sanitizer.trapped == 0


class TestTheorem41:
    def build(self):
        db = sanitized_db()
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, db, strategy="counting"
        )
        maintainer.initialize()
        return db, maintainer

    def test_clean_counting_pass_holds_the_theorem(self):
        db, maintainer = self.build()
        report = maintainer.apply(Changeset().insert("edge", (4, 5)))
        assert "hop" in report.changed_views()
        assert db.sanitizer.trapped == 0

    def test_corrupted_stored_count_is_trapped(self):
        db, maintainer = self.build()
        maintainer.apply(Changeset().insert("edge", (4, 5)))
        # Corrupt one stored count through a *legitimate* epoch so only
        # the theorem check — not torn-publication — can see it.
        with db._autocommit():
            maintainer.views["hop"].add((1, 3), 7)
        with pytest.raises(SanitizerError) as exc:
            maintainer.apply(Changeset().insert("edge", (5, 6)))
        assert exc.value.invariant == "theorem-4.1"
        assert exc.value.relation == "hop"
        assert "immediate derivations" in str(exc.value)

    def test_sampling_respects_the_row_cap(self):
        db = sanitized_db()
        db.sanitizer.theorem_rows = 1
        maintainer = ViewMaintainer.from_source(
            HOP_SRC, db, strategy="counting"
        )
        maintainer.initialize()
        checks_before = db.sanitizer.checks
        maintainer.apply(Changeset().insert("edge", (4, 5)))
        assert db.sanitizer.checks > checks_before


class TestObservability:
    def test_to_dict_shape(self):
        db = sanitized_db()
        db.insert("edge", (4, 5))
        stats = db.sanitizer.to_dict()
        assert set(stats) == {"checks", "trapped", "recorded_epochs"}
        assert stats["trapped"] == 0
        assert stats["checks"] > 0
        assert stats["recorded_epochs"] >= 1

    def test_trap_increments_the_metric(self):
        from repro.obs.metrics import get_default_registry

        db = sanitized_db()
        pinned = db.mvcc.pin()
        db.relation("edge")._rows[(9, 9)] = 1
        with pytest.raises(SanitizerError):
            db.mvcc.materialize("edge", pinned)
        db.mvcc.release(pinned)
        rendered = get_default_registry().to_prometheus()
        assert "repro_sanitizer_trapped_total" in rendered
        assert db.sanitizer.trapped == 1

    def test_history_window_is_bounded(self):
        db = Database(sanitize=True)
        db.sanitizer.history = 4
        for i in range(10):
            db.insert("edge", (i, i + 1))
        assert db.sanitizer.to_dict()["recorded_epochs"] <= 4

    def test_sever_clears_the_window(self):
        db = sanitized_db()
        for i in range(3):
            db.insert("edge", (10 + i, 11 + i))
        db.mvcc.sever()
        assert db.sanitizer.to_dict()["recorded_epochs"] == 0


class TestSoakIntegration:
    def test_run_soak_reports_sanitizer_stats(self):
        stats = run_soak(
            readers=3,
            passes=40,
            crash_every=0,
            journal_crash_every=0,
            breach_every=0,
            sanitize=True,
        )
        assert stats["problems"] == []
        assert stats["sanitizer"]["trapped"] == 0
        assert stats["sanitizer"]["checks"] > 100

    def test_run_soak_default_has_no_sanitizer_block(self):
        stats = run_soak(
            readers=1,
            passes=4,
            crash_every=0,
            journal_crash_every=0,
            breach_every=0,
        )
        assert stats["sanitizer"] is None
