"""MVCC layer: epoch-stamped versioned relations and pinned snapshots.

The paper's algorithms assume a maintenance pass runs in isolation; this
module removes that assumption for *readers*.  Every registered
:class:`~repro.storage.relation.CountedRelation` carries, next to its
live row store, a small bounded chain of committed **version entries**.
Each entry is the backward delta of one commit: ``(epoch, pre_images)``
where ``pre_images`` maps each row the commit touched to the count it
had *before* that commit.  Live state is always the newest; past states
are reconstructed by overlaying pre-images, so the storage cost of a
commit is O(change), never O(database) — the same cost model as the
shadow-commit undo log this generalizes (ROADMAP O4(b)).

Reading at epoch ``E`` works backwards from the live rows:

1. copy the live row dict;
2. overlay the open pass's in-flight pre-images (if any);
3. overlay committed entries with ``epoch > E``, newest to oldest, so
   the *oldest* applicable pre-image wins — exactly the row's count at
   ``E``;
4. drop zeros.

Torn-read freedom is a memory-ordering argument, not a lock: readers
copy **live rows first, then pending pre-images, then the version
chain**, while a commit **appends the chain entry first, then clears
the pending map, then bumps the epoch**, and every mutator records a
row's pre-image *before* mutating it.  Under CPython's GIL each of
those steps (``dict`` copy, ``list`` copy, attribute store) is atomic,
so whichever interleaving a reader observes, the pre-image of every row
that changed after its pinned epoch is visible in either the pending
copy or the chain copy.  Readers therefore never block on the writer
and the writer never blocks on readers.

Garbage collection is refcounted: :meth:`VersionManager.pin` counts
readers per epoch, and entries at or below the *floor* — the oldest
pinned epoch, or the current epoch when nothing is pinned — can serve
no present or future snapshot and are reclaimed.  ``retain_versions``
hard-caps each relation's chain so a stuck reader cannot grow memory
without bound; a force-dropped entry advances ``min_readable`` first,
so the stuck reader gets a typed
:class:`~repro.errors.SnapshotTooOldError` instead of a silently wrong
answer.

Structural changes that replace relation *objects* wholesale —
``refresh()``, ``alter()`` — cannot be expressed as row pre-images;
they :meth:`~VersionManager.sever` history instead: one epoch bump, all
chains dropped, ``min_readable`` pinned to the new epoch, so every
older snapshot fails loudly rather than reading a mix of generations.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import MaintenanceError, SnapshotTooOldError, UnknownRelationError
from repro.obs.metrics import get_default_registry
from repro.storage.relation import CountedRelation

__all__ = ["Snapshot", "SnapshotRead", "VersionManager", "autocommit"]


class SnapshotRead(CountedRelation):
    """A materialized consistent read with its provenance attached.

    Returned by ``ViewMaintainer.relation(...)`` under the
    ``strict_reads="snapshot"`` mode and by
    ``ViewMaintainer.snapshot_read``: a plain counted relation plus the
    ``epoch`` it reflects and the ``staleness`` lag dict (quarantined /
    skipped changesets and how long they have been pending) measured at
    read time.
    """

    __slots__ = ("epoch", "staleness")

    def __init__(self, name: str = "", arity: Optional[int] = None) -> None:
        super().__init__(name, arity)
        self.epoch = 0
        self.staleness: Dict[str, object] = {}


class VersionManager:
    """Owns the commit epoch, version chains, pins, and their GC.

    One manager per :class:`~repro.storage.database.Database`; the
    database registers every relation it creates (the maintainer
    additionally registers its view relations), and brackets each
    maintenance pass in :meth:`begin` / :meth:`commit` (or
    :meth:`abort`).  The manager is single-writer: one pass at a time
    opens an epoch.  Readers are lock-free (see the module docstring);
    the internal lock only serializes writer-side bookkeeping (pins,
    GC, the registry).
    """

    def __init__(self, retain_versions: int = 8) -> None:
        if retain_versions < 1:
            raise ValueError(
                f"retain_versions must be >= 1, got {retain_versions}"
            )
        self.retain_versions = retain_versions
        #: Optional :class:`repro.analysis.sanitizer.RuntimeSanitizer`.
        #: ``None`` (the default) costs one is-None test per protocol
        #: edge, the same hook pattern as tracing/health.
        self.sanitizer = None
        #: The last committed epoch (0 = nothing ever committed).
        self.epoch = 0
        #: Epochs older than this cannot be served (entries were dropped).
        self.min_readable = 0
        self._in_flight = False
        # Seqlock for abort(): odd while rows are being restored, so a
        # lock-free reader that overlapped an abort retries its copies.
        self._abort_seq = 0
        self._lock = threading.RLock()
        self._registry: Dict[str, CountedRelation] = {}
        self._pins: Dict[int, int] = {}
        # Lifetime counters (mirrored into repro_mvcc_* metrics).
        self.commits = 0
        self.aborts = 0
        self.gc_reclaimed = 0
        self.too_old = 0
        self.rows_versioned = 0

    # ------------------------------------------------------------- registry

    @property
    def in_flight(self) -> bool:
        """True while an epoch is open (a pass is mutating state)."""
        return self._in_flight

    @property
    def next_epoch(self) -> int:
        """The epoch the open (or next) commit will publish."""
        return self.epoch + 1

    def register(self, name: str, relation: CountedRelation) -> None:
        """Track ``relation`` under ``name`` from now on.

        Registered mid-epoch (a relation born inside a pass), every row
        it already holds gets a zero pre-image, so snapshots pinned
        before this pass correctly see it empty.
        """
        with self._lock:
            self._registry[name] = relation
            if self._in_flight:
                pending = {row: 0 for row in relation._rows}
                relation._pending = pending

    def unregister(self, name: str) -> None:
        """Stop tracking ``name`` (relation dropped from the database).

        Dropping a relation that committed history is a structural
        change old snapshots cannot survive — it severs history.  A
        relation born in the still-open epoch just vanishes.
        """
        with self._lock:
            relation = self._registry.pop(name, None)
            if relation is None:
                return
            if relation._versions or (not self._in_flight and relation._rows):
                self._sever_locked()
            relation._pending = None
            relation._versions = []

    def rebind(self, relations: Mapping[str, CountedRelation]) -> None:
        """(Re)register a batch of relations, severing on object swaps.

        Used by the maintainer after ``initialize``/``refresh``/``alter``
        replace view relation *objects*: a name already registered to a
        different object means past epochs are no longer coherently
        reconstructible, so history is severed before the new objects
        are adopted.
        """
        with self._lock:
            swapped = any(
                name in self._registry
                and self._registry[name] is not relation
                for name, relation in relations.items()
            )
            if swapped:
                self._sever_locked()
            for name, relation in relations.items():
                if self._registry.get(name) is not relation:
                    self.register(name, relation)

    def registered(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registry))

    # ------------------------------------------------------- writer protocol

    def begin(self) -> int:
        """Open an epoch: every registered relation starts recording
        pre-images.  Returns the epoch the commit will publish."""
        with self._lock:
            if self._in_flight:
                raise MaintenanceError(
                    "an epoch is already open; maintenance passes are "
                    "single-writer"
                )
            self._in_flight = True
            for relation in self._registry.values():
                relation._pending = {}
            if self.sanitizer is not None:
                self.sanitizer.on_begin(self._registry, self.epoch + 1)
            return self.epoch + 1

    def commit(self) -> int:
        """Publish the open epoch atomically.

        Every relation's pending pre-images become one immutable chain
        entry stamped with the new epoch; pendings are cleared and the
        epoch is bumped — in that order, so concurrent readers always
        find each pre-image in the pending copy or the chain copy (see
        the module docstring).  All views and base relations flip to
        the new epoch in this one step.
        """
        with self._lock:
            if not self._in_flight:
                raise MaintenanceError("commit() without an open epoch")
            new_epoch = self.epoch + 1
            if self.sanitizer is not None:
                # Pre-publication gate: a violation raised here leaves
                # the epoch open, so the caller can still abort().
                self.sanitizer.before_commit(
                    self._registry, new_epoch, self.epoch
                )
            for relation in self._registry.values():
                pending = relation._pending
                if pending:
                    relation._versions.append((new_epoch, pending))
                    self.rows_versioned += len(pending)
                relation._pending = None
            self.epoch = new_epoch
            self._in_flight = False
            self.commits += 1
            if self.sanitizer is not None:
                self.sanitizer.after_commit(self._registry, new_epoch)
            get_default_registry().counter(
                "repro_mvcc_commits_total", "Epochs committed."
            ).inc()
            self._reclaim_locked()
            self._emit_metrics()
            return new_epoch

    def abort(self) -> int:
        """Discard the uncommitted version: restore every pre-image.

        An abort has no chain entry to leave behind, so a reader that
        copied half-restored rows could find the pending map already
        cleared; ``_abort_seq`` brackets the restore and
        :meth:`materialize` retries any copy that overlapped it.
        No epoch is published.  Returns the number of rows restored.
        Idempotent with an undo-log unwind that already restored the
        same rows.
        """
        with self._lock:
            if not self._in_flight:
                return 0
            restored = 0
            self._abort_seq += 1
            try:
                for relation in self._registry.values():
                    pending = relation._pending
                    if pending:
                        for row, pre_image in pending.items():
                            relation.set_count(row, pre_image)
                        restored += len(pending)
                    relation._pending = None
            finally:
                self._abort_seq += 1
            self._in_flight = False
            self.aborts += 1
            if self.sanitizer is not None:
                self.sanitizer.on_abort(self._registry)
            self._emit_metrics()
            return restored

    def sever(self) -> int:
        """History barrier: drop all chains behind a fresh epoch.

        Publishes one (empty) epoch, drops every version entry, and
        advances ``min_readable`` to the new epoch — snapshots pinned
        at any older epoch raise
        :class:`~repro.errors.SnapshotTooOldError` from now on.
        Returns the new epoch.
        """
        with self._lock:
            return self._sever_locked()

    def _sever_locked(self) -> int:
        self.epoch += 1
        self.min_readable = self.epoch
        if self.sanitizer is not None:
            self.sanitizer.on_sever(self.epoch)
        dropped = 0
        for relation in self._registry.values():
            dropped += len(relation._versions)
            relation._versions = []
        if dropped:
            self.gc_reclaimed += dropped
            get_default_registry().counter(
                "repro_mvcc_gc_reclaimed_total",
                "Version entries reclaimed by refcounted GC.",
            ).inc(dropped)
        self._emit_metrics()
        return self.epoch

    def restore_epoch(self, epoch: int) -> None:
        """Fast-forward the commit epoch (journal recovery).

        Replay assigns synthetic consecutive epochs; once the journal's
        recorded epochs are known the counter jumps forward to the last
        replayed entry's epoch, so post-recovery commits continue the
        pre-crash numbering.  Never moves backwards.
        """
        with self._lock:
            if self._in_flight:
                raise MaintenanceError(
                    "cannot restore the epoch while a pass is open"
                )
            if epoch > self.epoch:
                self.epoch = epoch
                self.min_readable = max(self.min_readable, epoch)
                if self.sanitizer is not None:
                    # The jump renumbers history; recorded fingerprints
                    # no longer align with any servable epoch.
                    self.sanitizer.on_sever(self.epoch)
                self._emit_metrics()

    # ------------------------------------------------------------- snapshots

    def pin(self, epoch: Optional[int] = None) -> int:
        """Pin an epoch against GC; returns the epoch pinned.

        ``None`` pins the current committed epoch.  Pinning below
        ``min_readable`` (history already reclaimed) or above the
        committed epoch (the future) raises
        :class:`~repro.errors.SnapshotTooOldError` /
        :class:`~repro.errors.MaintenanceError` respectively.
        """
        with self._lock:
            target = self.epoch if epoch is None else epoch
            if target > self.epoch:
                raise MaintenanceError(
                    f"cannot pin epoch {target}: current epoch is "
                    f"{self.epoch}"
                )
            if target < self.min_readable:
                self._note_too_old()
                raise SnapshotTooOldError(
                    f"epoch {target} is no longer readable: version "
                    f"history starts at epoch {self.min_readable} "
                    "(raise retain_versions or release snapshots "
                    "sooner)",
                    epoch=target,
                    min_readable=self.min_readable,
                )
            self._pins[target] = self._pins.get(target, 0) + 1
            self._emit_metrics()
            return target

    def release(self, epoch: int) -> None:
        """Drop one pin on ``epoch``; reclaims versions it alone held."""
        with self._lock:
            count = self._pins.get(epoch, 0)
            if count <= 1:
                self._pins.pop(epoch, None)
            else:
                self._pins[epoch] = count - 1
            self._reclaim_locked()
            self._emit_metrics()

    def active_snapshots(self) -> int:
        with self._lock:
            return sum(self._pins.values())

    def oldest_pinned(self) -> Optional[int]:
        with self._lock:
            return min(self._pins) if self._pins else None

    def retained_entries(self) -> int:
        """Total version entries across all chains (memory proxy)."""
        with self._lock:
            return sum(
                len(relation._versions)
                for relation in self._registry.values()
            )

    def snapshot(self, epoch: Optional[int] = None) -> "Snapshot":
        return Snapshot(self, epoch)

    # ------------------------------------------------------------------- GC

    def _reclaim_locked(self) -> None:
        """Drop entries no snapshot can need; hard-cap chain length.

        The floor is the oldest pinned epoch (or the current epoch with
        nothing pinned): an entry at ``epoch <= floor`` is only needed
        to read *below* the floor, which no present pin does and no
        future pin may (``min_readable`` advances with the floor).
        Beyond that, chains longer than ``retain_versions`` force-drop
        their oldest entries — bumping ``min_readable`` *first*, so a
        reader that raced the drop fails typed instead of reading a
        hole.
        """
        floor = min(self._pins) if self._pins else self.epoch
        dropped = 0
        dropped_any = False
        for relation in self._registry.values():
            versions = relation._versions
            keep = 0
            while keep < len(versions) and versions[keep][0] <= floor:
                keep += 1
            if keep:
                del versions[:keep]
                dropped += keep
                dropped_any = True
            while len(versions) > self.retain_versions:
                self.min_readable = max(self.min_readable, versions[0][0])
                del versions[0]
                dropped += 1
        if dropped_any:
            self.min_readable = max(self.min_readable, floor)
        if dropped:
            self.gc_reclaimed += dropped
            get_default_registry().counter(
                "repro_mvcc_gc_reclaimed_total",
                "Version entries reclaimed by refcounted GC.",
            ).inc(dropped)

    # -------------------------------------------------------------- reading

    def materialize(self, name: str, epoch: int) -> CountedRelation:
        """The state of relation ``name`` at committed epoch ``epoch``.

        Lock-free with respect to the writer: copies live rows, then
        pending pre-images, then the chain — the commit-side ordering
        guarantees the overlay reconstructs exactly the epoch's state
        (module docstring).  ``min_readable`` is checked *after* the
        copies, so a concurrent force-drop surfaces as
        :class:`~repro.errors.SnapshotTooOldError`, never a torn read.
        """
        relation = self._registry.get(name)
        if relation is None:
            raise UnknownRelationError(
                f"no versioned relation named {name!r}"
            )
        while True:
            seq = self._abort_seq
            merged = dict(relation._rows)
            pending = relation._pending
            pending_copy = dict(pending) if pending is not None else None
            chain = list(relation._versions)
            if seq % 2 == 0 and seq == self._abort_seq:
                break  # no abort() overlapped the copies
        if epoch < self.min_readable:
            with self._lock:
                self._note_too_old()
            raise SnapshotTooOldError(
                f"epoch {epoch} of {name!r} was reclaimed: history "
                f"starts at epoch {self.min_readable}",
                epoch=epoch,
                min_readable=self.min_readable,
            )
        if pending_copy:
            merged.update(pending_copy)
        for entry_epoch, pre_images in reversed(chain):
            if entry_epoch > epoch:
                merged.update(pre_images)
        result = CountedRelation(name, relation.arity)
        result._rows = {
            row: count for row, count in merged.items() if count != 0
        }
        if self.sanitizer is not None:
            # Lock-free like the read itself: compares the rebuilt
            # content against the fingerprint recorded at publication.
            self.sanitizer.on_materialize(
                name, epoch, result._rows, self.epoch
            )
        return result

    # ------------------------------------------------------------- reporting

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready status block (``cli status --json``)."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "in_flight": self._in_flight,
                "min_readable": self.min_readable,
                "oldest_pinned": self.oldest_pinned(),
                "active_snapshots": sum(self._pins.values()),
                "retained_versions": self.retained_entries(),
                "retain_versions": self.retain_versions,
                "commits": self.commits,
                "aborts": self.aborts,
                "gc_reclaimed": self.gc_reclaimed,
                "snapshot_too_old": self.too_old,
            }

    def _note_too_old(self) -> None:
        self.too_old += 1
        get_default_registry().counter(
            "repro_mvcc_snapshot_too_old_total",
            "Reads refused because the epoch was reclaimed.",
        ).inc()
        self._emit_metrics()

    def _emit_metrics(self) -> None:
        # The default registry is fetched lazily so a test/smoke that
        # swaps it sees every subsequent emission; counters are
        # incremented at their event sites, gauges refreshed here, and
        # every family touched so scrapers see the full catalog.
        metrics = get_default_registry()
        metrics.gauge(
            "repro_mvcc_epoch", "Last committed MVCC epoch."
        ).set(self.epoch)
        metrics.gauge(
            "repro_mvcc_active_snapshots",
            "Snapshots currently pinning an epoch.",
        ).set(sum(self._pins.values()))
        metrics.gauge(
            "repro_mvcc_version_entries",
            "Version-chain entries retained across all relations.",
        ).set(
            sum(len(r._versions) for r in self._registry.values())
        )
        metrics.counter(
            "repro_mvcc_commits_total", "Epochs committed."
        ).inc(0)
        metrics.counter(
            "repro_mvcc_gc_reclaimed_total",
            "Version entries reclaimed by refcounted GC.",
        ).inc(0)
        metrics.counter(
            "repro_mvcc_snapshot_too_old_total",
            "Reads refused because the epoch was reclaimed.",
        ).inc(0)


class Snapshot:
    """A reader's handle on one committed epoch (context manager).

    Pins its epoch on construction and releases it on :meth:`close` /
    ``with``-exit; per-relation materializations are cached, so
    repeated reads of the same relation are free.  Reading after close
    raises; reading an epoch whose history got force-dropped raises
    :class:`~repro.errors.SnapshotTooOldError`.
    """

    def __init__(
        self, manager: VersionManager, epoch: Optional[int] = None
    ) -> None:
        self._manager = manager
        self.epoch = manager.pin(epoch)
        self._cache: Dict[str, CountedRelation] = {}
        self._closed = False

    # ---------------------------------------------------------------- reads

    def relation(self, name: str) -> CountedRelation:
        """The named relation as of this snapshot's epoch."""
        if self._closed:
            raise MaintenanceError("snapshot is closed")
        found = self._cache.get(name)
        if found is None:
            found = self._manager.materialize(name, self.epoch)
            self._cache[name] = found
        return found

    def names(self) -> Tuple[str, ...]:
        return self._manager.registered()

    def staleness(self) -> int:
        """How many epochs the snapshot lags the committed state."""
        return self._manager.epoch - self.epoch

    def as_database(self, include: Iterable[str]):
        """A detached (non-MVCC) database of the named relations at
        this epoch — the recompute oracle's input."""
        from repro.storage.database import Database

        database = Database(mvcc=False)
        for name in include:
            relation = self.relation(name)
            database.adopt_relation(name, relation.copy())
        return database

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            sanitizer = self._manager.sanitizer
            if sanitizer is not None and self._cache:
                sanitizer.on_snapshot_close(self.epoch, self._cache)
            self._cache.clear()
            self._manager.release(self.epoch)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Snapshot epoch={self.epoch} {state}>"


class autocommit:
    """Bracket a block in a one-commit epoch (no-op inside a pass).

    Direct database writes (``insert``/``delete``/``apply_changeset``)
    outside any maintenance pass still have to version their change —
    otherwise a pinned snapshot would see them bleed through.  This
    context manager opens a mini-epoch around such a write, commits on
    success and aborts on failure; when an epoch is already open (the
    write happens *inside* a pass) or MVCC is off it does nothing.
    """

    __slots__ = ("_manager", "_owns")

    def __init__(self, manager: Optional[VersionManager]) -> None:
        self._manager = manager
        self._owns = False

    def __enter__(self) -> "autocommit":
        manager = self._manager
        if manager is not None and not manager.in_flight:
            manager.begin()
            self._owns = True
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if not self._owns:
            return
        if exc_type is None:
            self._manager.commit()
        else:
            self._manager.abort()
