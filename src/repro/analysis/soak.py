"""Concurrency soak: snapshot readers racing fault-injected maintenance.

Reader threads race a writer that pushes maintenance passes through a
counting chain-plus-aggregate workload while a
:class:`~repro.resilience.faults.FaultInjector` crashes passes at the
``count_merge`` and ``journal_append`` phases and oversized batches
breach the guard budget (``fallback="recompute"``).  The acceptance
bar, checked on every single read:

1. **zero torn reads** — every pinned snapshot's views equal the
   recompute oracle (:func:`repro.eval.stratified.materialize`) run
   over the *same snapshot's* base relations;
2. **bounded memory** — no version chain ever exceeds
   ``retain_versions`` entries, and everything is reclaimed once the
   last snapshot is released;
3. the crash and breach paths actually fired (the soak would prove
   nothing against a writer that never failed).

Readers that lose the retention race get the typed
:class:`~repro.errors.SnapshotTooOldError` — counted, never fatal:
refusing loudly is the contract, reading a hole would be the bug.

``python -m repro sanitize`` runs :func:`run_soak` under the runtime
sanitizer (``Database(sanitize=True)``); ``tests/test_mvcc.py`` runs
the longer counting, DRed and B/F soaks.
"""

from __future__ import annotations

import random
import tempfile
import threading
from typing import Dict, List, Optional

from repro.core.maintenance import ViewMaintainer
from repro.errors import SnapshotTooOldError
from repro.eval.stratified import materialize
from repro.guard import GuardPolicy, MaintenanceBudget
from repro.resilience.faults import InjectedFault
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.journal import Journal

SRC = "\n".join(
    [
        "hop(X,Y) :- link(X,Z), link(Z,Y).",
        "outdeg(X, N) :- GROUPBY(link(X, Y), [X], N = COUNT(Y)).",
    ]
)

#: Budget sized so the periodic bulk batches breach it and normal
#: single-edge passes never do.
MAX_DELTA_TUPLES = 25
BULK_EDGES = 30


def _initial_edges() -> List[tuple]:
    return [(i, i + 1) for i in range(8)]


def run_soak(
    readers: int = 4,
    passes: int = 200,
    retain_versions: int = 8,
    seed: int = 7,
    crash_every: int = 13,
    journal_crash_every: int = 17,
    breach_every: int = 25,
    source: str = SRC,
    strategy: str = "counting",
    min_reads: int = 0,
    max_seconds: float = 120.0,
    sanitize: Optional[bool] = None,
) -> Dict[str, object]:
    """Race ``readers`` snapshot readers against ``passes`` writes.

    Returns a stats dict; ``stats["torn"]`` lists every mismatch a
    reader observed (must be empty), ``stats["max_retained"]`` the
    high-water version-entry count (must stay within the hard cap).
    Under DRed/B-F the oracle comparison is on set projections (both
    maintain pure sets); under counting it is on full multiplicities.
    ``min_reads`` keeps the writer cycling extra passes (up to
    ``max_seconds``) until the readers have verified at least that
    many per-view snapshot reads; overtime passes stay small (no bulk
    breach batches) so the database — and hence the per-read oracle
    cost — stays bounded while the readers catch up.
    """
    import time

    rng = random.Random(seed)
    db = Database(retain_versions=retain_versions, sanitize=sanitize)
    db.insert_rows("link", _initial_edges())
    guard = GuardPolicy(
        budget=MaintenanceBudget(max_delta_tuples=MAX_DELTA_TUPLES),
        fallback="recompute",
    )
    maintainer = ViewMaintainer.from_source(
        source, db, strategy=strategy, guard=guard
    ).initialize()
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        journal = Journal(f"{tmp}/journal.jsonl", fsync=False)
        maintainer.attach_journal(journal, snapshot_path=f"{tmp}/snap.json")
        if crash_every:
            maintainer.faults.arm("count_merge", every_n=crash_every)
        if journal_crash_every:
            maintainer.faults.arm(
                "journal_append", every_n=journal_crash_every
            )

        program = maintainer.normalized.program
        stratification = maintainer.stratification
        base_names = ["link"]
        view_names = sorted(maintainer.views)
        stop = threading.Event()
        torn: List[tuple] = []
        reader_stats = [
            {"reads": 0, "too_old": 0} for _ in range(readers)
        ]

        def read_loop(slot: Dict[str, int]) -> None:
            while not stop.is_set():
                try:
                    with db.snapshot() as snap:
                        oracle = materialize(
                            program,
                            snap.as_database(base_names),
                            semantics="set",
                            stratification=stratification,
                        )
                        for name in view_names:
                            read = snap.relation(name)
                            if strategy in ("dred", "bf"):
                                got = read.as_set()
                                want = oracle[name].as_set()
                            else:
                                got = read.to_dict()
                                want = oracle[name].to_dict()
                            if got != want:
                                torn.append(
                                    (snap.epoch, name, got, want)
                                )
                            slot["reads"] += 1
                except SnapshotTooOldError:
                    slot["too_old"] += 1

        threads = [
            threading.Thread(
                target=read_loop, args=(reader_stats[i],), daemon=True
            )
            for i in range(readers)
        ]
        for thread in threads:
            thread.start()

        edges = set(_initial_edges())
        next_bulk_node = 1000
        crashes = 0
        max_retained = 0
        pass_number = 0
        deadline = time.monotonic() + max_seconds
        while pass_number < passes or (
            min_reads
            and sum(slot["reads"] for slot in reader_stats) < min_reads
            and time.monotonic() < deadline
        ):
            overtime = pass_number >= passes
            pass_number += 1
            changes = Changeset()
            if (
                breach_every
                and pass_number % breach_every == 0
                and not overtime
            ):
                # Oversized batch: breaches the delta budget, so the
                # guard rolls the incremental attempt back and reroutes
                # to the recompute fallback — which must publish just as
                # atomically as the incremental path.
                fresh = [
                    (next_bulk_node + i, next_bulk_node + i + 1)
                    for i in range(BULK_EDGES)
                ]
                next_bulk_node += BULK_EDGES + 1
                for edge in fresh:
                    changes.insert("link", edge)
                staged_in, staged_out = set(fresh), set()
            elif edges and rng.random() < 0.4:
                edge = rng.choice(sorted(edges))
                changes.delete("link", edge)
                staged_in, staged_out = set(), {edge}
            else:
                while True:
                    edge = (rng.randrange(20), rng.randrange(20))
                    if edge not in edges:
                        break
                changes.insert("link", edge)
                staged_in, staged_out = {edge}, set()
            try:
                maintainer.apply(changes)
            except InjectedFault:
                crashes += 1  # rolled back; the mirror stays put
            else:
                edges |= staged_in
                edges -= staged_out
            max_retained = max(max_retained, db.mvcc.retained_entries())
            if overtime:
                # Overtime exists purely to let the readers reach
                # ``min_reads``; yield the GIL so they actually run.
                time.sleep(0.001)

        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        journal.close()

    reads = sum(slot["reads"] for slot in reader_stats)
    too_old = sum(slot["too_old"] for slot in reader_stats)
    chain_cap = retain_versions * len(db.mvcc.registered())
    problems: List[str] = []
    for epoch, name, got, want in torn[:5]:
        problems.append(
            f"torn read at epoch {epoch}: {name} diverged from the "
            f"recompute oracle ({len(got)} vs {len(want)} rows)"
        )
    if max_retained > chain_cap:
        problems.append(
            f"version chains grew to {max_retained} entries "
            f"(cap {chain_cap} = retain_versions * relations)"
        )
    if db.mvcc.retained_entries():
        problems.append(
            f"{db.mvcc.retained_entries()} version entries survived "
            "the last release (GC leak)"
        )
    if crash_every and not crashes:
        problems.append("no injected crash ever fired")
    if breach_every and not maintainer.guard.breaches:
        problems.append("no guard budget breach ever fired")
    if reads == 0:
        problems.append("readers never completed a snapshot read")
    return {
        "readers": readers,
        "passes": pass_number,
        "reads": reads,
        "too_old": too_old,
        "torn": torn,
        "crashes": crashes,
        "breaches": maintainer.guard.breaches,
        "max_retained": max_retained,
        "chain_cap": chain_cap,
        "final_epoch": db.mvcc.epoch,
        "sanitizer": (
            db.sanitizer.to_dict() if db.sanitizer is not None else None
        ),
        "problems": problems,
    }

