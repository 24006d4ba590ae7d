"""Runtime invariant sanitizer: trap concurrency violations as they happen.

The static pass (:mod:`repro.analysis.concurrency`) proves discipline
*about the code*; this module proves it *about a running process*.
``Database(sanitize=True)`` — or ``REPRO_SANITIZE=1`` in the
environment — attaches a :class:`RuntimeSanitizer` to the database's
:class:`~repro.storage.mvcc.VersionManager`, which then calls back at
every protocol edge (begin / commit / abort / sever / materialize /
snapshot close).  Each callback checks one paper-grade invariant and
raises :class:`~repro.errors.SanitizerError` the instant it breaks:

* **nonnegative-counts** — no committed stored count is negative
  (Lemma 4.1; DRed may go negative only *mid-pass*, never at publish).
* **epoch-monotonicity** — epochs publish as exactly ``current + 1``,
  and no thread ever observes the manager's epoch move backwards.
* **torn-publication** — a reader materializing epoch *e* gets content
  bit-identical to what the writer published at *e* (fingerprints are
  recorded at commit under the writer lock and compared lock-free at
  read time); a write that bypassed the pre-image protocol shows up as
  a fingerprint mismatch on the *older* epoch it tore.
* **abort-reversibility** — after ``abort()``, every relation
  fingerprints back to its state at ``begin()``.
* **snapshot-immutability** — a pinned snapshot's cached relations are
  unchanged between first read and :meth:`Snapshot.close`.
* **theorem-4.1** — on counting-maintained views, the stored count of
  a sampled row equals its number of immediate derivations
  (:func:`repro.core.provenance.immediate_derivations`), checked at
  the commit tail of a maintenance pass.

The *disabled* path costs one ``is None`` test per protocol edge — the
same hook pattern as tracing/health/metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional

from repro.errors import SanitizerError

__all__ = ["RuntimeSanitizer", "fingerprint"]


def fingerprint(rows: Dict) -> int:
    """Order-independent content hash of a counted-row mapping.

    Zero counts mean "absent" (pre-image convention), so they are
    excluded: a live table that briefly holds an explicit zero and a
    reconstruction that omits the row must fingerprint equal.
    """
    return hash(frozenset(
        (row, count) for row, count in rows.items() if count != 0
    ))


class RuntimeSanitizer:
    """Invariant checks attached to one VersionManager.

    Writer-side hooks (begin/commit/abort/sever) run under the manager
    lock, so they may read registry internals directly.  Reader-side
    hooks (materialize, snapshot close) are lock-free like the reads
    they guard; the published-fingerprint window is only ever mutated
    under the writer lock and read via one dict lookup.

    ``history`` bounds the published-fingerprint window (epochs);
    ``theorem_rows`` caps how many rows per view the Theorem 4.1 check
    samples at each commit tail.
    """

    def __init__(self, history: int = 32, theorem_rows: int = 50) -> None:
        self.history = history
        self.theorem_rows = theorem_rows
        #: Violations trapped (SanitizerError raised) over the lifetime.
        self.trapped = 0
        #: Individual invariant checks executed (cheap observability).
        self.checks = 0
        self._baseline: Optional[Dict[str, int]] = None
        self._published: "OrderedDict[int, Dict[str, int]]" = OrderedDict()
        self._last_published = 0
        self._thread = threading.local()

    # ------------------------------------------------------- writer protocol

    def on_begin(self, registry: Dict, next_epoch: int) -> None:
        """Record the abort-reversibility baseline for the open epoch."""
        self._baseline = {
            name: fingerprint(rel._rows) for name, rel in registry.items()
        }
        self.checks += 1

    def before_commit(
        self, registry: Dict, new_epoch: int, current_epoch: int
    ) -> None:
        """Pre-publication gate: still abortable when this raises."""
        self.checks += 1
        if new_epoch != current_epoch + 1 or new_epoch <= self._last_published:
            raise self._trap(
                SanitizerError(
                    f"epoch {new_epoch} would publish out of order "
                    f"(current {current_epoch}, last published "
                    f"{self._last_published})",
                    invariant="epoch-monotonicity",
                    epoch=new_epoch,
                )
            )
        for name, relation in registry.items():
            for row, count in relation._rows.items():
                if count < 0:
                    raise self._trap(
                        SanitizerError(
                            f"relation {name!r} would publish row "
                            f"{row!r} with negative count {count} "
                            "(Lemma 4.1: counts are derivation "
                            "counts, never negative at publish)",
                            invariant="nonnegative-counts",
                            relation=name,
                            epoch=new_epoch,
                        )
                    )

    def after_commit(self, registry: Dict, epoch: int) -> None:
        """Record the published content fingerprints for ``epoch``."""
        self._published[epoch] = {
            name: fingerprint(rel._rows) for name, rel in registry.items()
        }
        self._last_published = epoch
        while len(self._published) > self.history:
            self._published.popitem(last=False)
        self._baseline = None

    def on_abort(self, registry: Dict) -> None:
        """Abort must restore the exact begin-time content."""
        baseline = self._baseline
        self._baseline = None
        if baseline is None:
            return
        self.checks += 1
        for name, relation in registry.items():
            expected = baseline.get(name)
            if expected is None:
                continue  # registered mid-pass; no pre-pass state to match
            if fingerprint(relation._rows) != expected:
                raise self._trap(
                    SanitizerError(
                        f"abort left relation {name!r} different from "
                        "its state at begin(); the undo log is not "
                        "reversible",
                        invariant="abort-reversibility",
                        relation=name,
                    )
                )

    def on_sever(self, epoch: int) -> None:
        """History dropped: recorded fingerprints are no longer readable."""
        self._published.clear()
        self._last_published = epoch
        self._baseline = None

    # ------------------------------------------------------- reader protocol

    def on_materialize(
        self, name: str, epoch: int, rows: Dict, manager_epoch: int
    ) -> None:
        """Torn-publication detector plus the per-thread epoch vector."""
        self.checks += 1
        last_seen = getattr(self._thread, "last_epoch", 0)
        if manager_epoch < last_seen:
            raise self._trap(
                SanitizerError(
                    f"this thread observed the manager epoch move "
                    f"backwards ({last_seen} -> {manager_epoch})",
                    invariant="epoch-monotonicity",
                    epoch=manager_epoch,
                )
            )
        self._thread.last_epoch = manager_epoch
        recorded = self._published.get(epoch)
        if recorded is None:
            return  # epoch outside the window (or pre-sanitizer history)
        expected = recorded.get(name)
        if expected is not None and fingerprint(rows) != expected:
            raise self._trap(
                SanitizerError(
                    f"materializing {name!r} at epoch {epoch} does not "
                    "reproduce the content published at that epoch: a "
                    "write bypassed the pre-image protocol (torn "
                    "publication)",
                    invariant="torn-publication",
                    relation=name,
                    epoch=epoch,
                )
            )

    def on_snapshot_close(
        self, epoch: int, cache: Dict[str, "object"]
    ) -> None:
        """Pinned reads must still fingerprint as they did at first read."""
        self.checks += 1
        recorded = self._published.get(epoch)
        for name, relation in cache.items():
            actual = fingerprint(relation._rows)
            expected = recorded.get(name) if recorded is not None else None
            if expected is not None and actual != expected:
                raise self._trap(
                    SanitizerError(
                        f"snapshot of {name!r} at epoch {epoch} "
                        "changed between first read and close; pinned "
                        "snapshots are immutable",
                        invariant="snapshot-immutability",
                        relation=name,
                        epoch=epoch,
                    )
                )

    # --------------------------------------------------------- theorem gate

    def check_theorem_4_1(self, maintainer, view_names: Iterable[str]) -> None:
        """Stored count == immediate-derivation count on sampled rows.

        Runs at the commit tail of a counting-maintained pass (set or
        duplicate semantics both store derivation counts).  Sampling is
        capped at ``theorem_rows`` rows per view so the enabled path
        stays proportional to the delta, not the database.
        """
        from repro.core.provenance import immediate_derivations
        from repro.errors import UnknownRelationError

        aggregate_views = getattr(maintainer, "aggregate_views", {})
        for view in view_names:
            if view in aggregate_views:
                # GROUPBY views store one row per group, not a
                # derivation count — Theorem 4.1 does not apply.
                continue
            relation = maintainer.views.get(view)
            if relation is None:
                continue
            for index, (row, stored) in enumerate(relation.items()):
                if index >= self.theorem_rows:
                    break
                self.checks += 1
                try:
                    derivations = immediate_derivations(
                        maintainer, view, row
                    )
                except UnknownRelationError:
                    break
                expected = self._derivation_count(maintainer, derivations)
                if expected is not None and expected != stored:
                    raise self._trap(
                        SanitizerError(
                            f"view {view!r} stores count {stored} for "
                            f"row {row!r} but it has "
                            f"{expected} immediate "
                            "derivations (Theorem 4.1)",
                            invariant="theorem-4.1",
                            relation=view,
                        )
                    )

    @staticmethod
    def _derivation_count(maintainer, derivations) -> Optional[int]:
        """The count Theorem 4.1 says the view must store.

        Set semantics evaluates every body atom with unit counts, so
        the stored count is the number of distinct ground derivations;
        duplicate semantics multiplies body-atom multiplicities through
        each derivation (bag joins).  ``None`` means "cannot tell"
        (a body atom resolved to no relation) and skips the row.
        """
        if maintainer.semantics == "set":
            return len(derivations)
        total = 0
        for derivation in derivations:
            product = 1
            for predicate, atom_row in derivation.body:
                if predicate.endswith("/groups"):
                    return None  # aggregate pseudo-atom: not countable
                relation = maintainer.views.get(predicate)
                if relation is None:
                    relation = maintainer.database.get(predicate)
                if relation is None:
                    return None
                product *= relation.count(atom_row)
            total += product
        return total

    # -------------------------------------------------------------- plumbing

    def _trap(self, error: SanitizerError) -> SanitizerError:
        self.trapped += 1
        try:
            from repro.obs.metrics import get_default_registry

            get_default_registry().counter(
                "repro_sanitizer_trapped_total",
                "Invariant violations trapped by the runtime sanitizer.",
                labels=("invariant",),
            ).inc(invariant=error.invariant)
        except Exception:  # metrics must never mask the trap itself
            pass
        return error

    def to_dict(self) -> Dict[str, int]:
        return {
            "checks": self.checks,
            "trapped": self.trapped,
            "recorded_epochs": len(self._published),
        }
