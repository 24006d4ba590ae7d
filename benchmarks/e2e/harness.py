"""The system under test and one measured run of one workload.

One client, one thread, closed loop: the next changeset is submitted
when the previous ``apply`` returns.  Everything here drives the
program through its public API only; nothing in ``src/`` is edited.
"""

from __future__ import annotations

import gc
import os
import resource
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.core.maintenance import ViewMaintainer
from repro.guard.budget import MaintenanceBudget
from repro.guard.controller import GuardPolicy
from repro.obs.metrics import MetricsRegistry
from repro.storage.database import Database
from repro.storage.journal import Journal, recover

import layers
from workloads import EdgeStream, Spec

#: Changesets are generated ahead in chunks of this many passes with the
#: clock stopped; the run's stop condition is checked between chunks.
CHUNK = 8
#: Point lookups per read.
PROBES = 20


def sut_guard() -> GuardPolicy:
    return GuardPolicy(
        admission=True,
        budget=MaintenanceBudget(deadline_seconds=60, max_delta_tuples=10**8),
    )


def new_maintainer(spec: Spec, database: Database, **overrides) -> ViewMaintainer:
    """The production configuration (README: system under test);
    ``overrides`` exist for the tax table's single-wrapper ladders."""
    options = dict(
        strategy="auto",
        crash_safe=True,
        plan_cache=True,
        metrics=MetricsRegistry(),
        guard=sut_guard(),
    )
    options.update(overrides)
    return ViewMaintainer.from_source(spec.source, database, **options)


class Subscriber:
    """The per-view subscriber: sums ``len(delta)``.  On the workload
    whose oracle folds deltas it also keeps them (a reference, no copy)."""

    def __init__(self, keep: bool) -> None:
        self.tuples = 0
        self.kept: Optional[list] = [] if keep else None

    def __call__(self, view, delta) -> None:
        self.tuples += len(delta)
        if self.kept is not None:
            self.kept.append((view, delta))


@dataclass
class System:
    """A set-up system, ready for its first changeset."""

    maintainer: ViewMaintainer
    database: Database
    journal: Journal
    journal_path: str
    snapshot_path: str
    subscriber: Subscriber
    #: Seconds per set-up step, in order.
    steps: Dict[str, float]

    @property
    def seconds(self) -> float:
        return sum(self.steps.values())


def set_up(spec: Spec, rows, directory: str) -> System:
    """Load base rows, compile, materialize, attach the journal (with a
    first checkpoint where the workload checkpoints) and subscribe —
    timed step by step."""
    os.makedirs(directory)
    journal_path = os.path.join(directory, "journal.log")
    snapshot_path = os.path.join(directory, "snapshot.json")
    marks = [perf_counter()]
    database = Database()
    database.insert_rows("link", rows)
    marks.append(perf_counter())
    maintainer = new_maintainer(spec, database)
    marks.append(perf_counter())
    maintainer.initialize()
    marks.append(perf_counter())
    journal = Journal(journal_path, fsync=True, metrics=maintainer.metrics)
    maintainer.attach_journal(
        journal, snapshot_path=snapshot_path if spec.checkpoint_every else None
    )
    marks.append(perf_counter())
    subscriber = Subscriber(spec.fold_deltas)
    for view in maintainer.view_names():
        maintainer.subscribe(view, subscriber)
    marks.append(perf_counter())
    names = ("load", "compile", "materialize", "attach", "subscribe")
    steps = {
        name: later - earlier
        for name, earlier, later in zip(names, marks, marks[1:])
    }
    return System(
        maintainer, database, journal, journal_path, snapshot_path,
        subscriber, steps,
    )


@dataclass
class RunLog:
    """Everything one run measured, raw."""

    pass_ms: List[float] = field(default_factory=list)
    #: Per pass: was the layer tracing installed (traced runs alternate).
    traced: List[bool] = field(default_factory=list)
    #: Per pass: (rules fired, index probes, view tuples changed, tuples
    #: notified, phase seconds, B/F check ratio or None).
    work: List[tuple] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    held_ms: List[float] = field(default_factory=list)
    #: Version-chain entries alive just before each held pin is released
    #: (when retention is at its highest; without pins nothing is kept).
    retained: List[int] = field(default_factory=list)
    checkpoint_ms: List[float] = field(default_factory=list)
    #: Wall seconds of each chunk of ``CHUNK`` passes, its reads and
    #: checkpoints included.
    chunk_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Exact counters over the first ``spec.min_passes`` passes.
    counters: Dict[str, int] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    recover_s: float = 0.0
    mismatches: List[str] = field(default_factory=list)
    #: Copies of the views before the stream, where the oracle folds
    #: the subscriber's deltas onto them.
    initial_views: Optional[dict] = None

    @property
    def loop_seconds(self) -> float:
        """Wall time of the timed loop (generation pauses excluded)."""
        return sum(self.chunk_seconds)

    def attempt(self, operation: Callable, *args):
        """Run one operation; a raise is a counted failure, not a crash."""
        self.attempted += 1
        try:
            return operation(*args)
        except Exception:  # noqa: BLE001 — the loop must go on counting
            self.failed += 1
            traceback.print_exc()
            return None

    def apply(self, maintainer: ViewMaintainer, batch):
        """One pass.  A report from another route than the incremental
        strategy (quarantined / skipped / recompute) is a failure too."""
        report = self.attempt(maintainer.apply, batch)
        if report is not None and report.strategy != maintainer.strategy:
            self.failed += 1
        return report


def fresh_read(database: Database, view: str, probes) -> int:
    """Pin the current epoch, read ``view``, probe it, release."""
    with database.snapshot() as snapshot:
        relation = snapshot.relation(view)
        return sum(relation.count(row) for row in probes)


def held_read(snapshot, view: str, probes) -> int:
    """Read ``view`` at the old epoch a held pin kept alive; release."""
    with snapshot:
        relation = snapshot.relation(view)
        return sum(relation.count(row) for row in probes)


def _exact_counters(system: System) -> Dict[str, int]:
    maintainer = system.maintainer
    journal_exists = os.path.exists(system.journal_path)  # not before append 1
    return {
        "eval.rules_fired": maintainer.stats.rules_fired,
        "eval.index_probes": maintainer.plan_cache.index_probes,
        "core.notified_tuples": system.subscriber.tuples,
        "storage.journal_bytes": (
            os.path.getsize(system.journal_path) if journal_exists else 0
        ),
    }


def run_stream(
    spec: Spec,
    system: System,
    stream: EdgeStream,
    seconds: float,
    log: RunLog,
    recorder: Optional[layers.Recorder] = None,
) -> None:
    """Apply changesets (with the workload's reads and checkpoints
    between them) for ``seconds`` and at least ``spec.min_passes``.

    With a ``recorder`` the layer wrappers are installed for every other
    chunk, so traced and untraced passes see the same machine drift and
    their ratio is the tracing overhead.
    """
    maintainer, database = system.maintainer, system.database
    cache = maintainer.plan_cache
    read = fresh_read if recorder is None else recorder.wrap("harness.read", fresh_read)
    read_held = held_read if recorder is None else recorder.wrap("harness.held_read", held_read)
    before = _exact_counters(system)
    probes_seen = cache.index_probes
    notified_seen = system.subscriber.tuples
    view_tuples = 0
    held = None
    held_due = 0
    saved = None
    passes = 0
    if spec.fold_deltas:
        log.initial_views = {
            name: maintainer.views[name].copy()
            for name in maintainer.view_names()
        }
    gc.collect()
    while log.loop_seconds < seconds or passes < spec.min_passes:
        batches = stream.take(CHUNK)
        # Two probe lists per pass keep the probe generator's position a
        # function of the pass number alone.
        probes = [
            (stream.probes(PROBES), stream.probes(PROBES)) if spec.read_every
            else ((), ())
            for _ in batches
        ]
        traced = recorder is not None and (passes // CHUNK) % 2 == 0
        if traced and saved is None:
            saved = layers.install(recorder)
        elif not traced and saved is not None:
            layers.uninstall(saved)
            saved = None
        chunk_started = perf_counter()
        for batch, (read_probes, held_probes) in zip(batches, probes):
            passes += 1
            if recorder is not None:
                recorder.pass_id = passes
            started = perf_counter()
            report = log.apply(maintainer, batch)
            log.pass_ms.append((perf_counter() - started) * 1e3)
            log.traced.append(traced)
            if report is None:
                log.work.append((0, 0, 0, 0, {}, None))
            else:
                stats = report.engine_stats()
                changed = report.total_changes()
                view_tuples += changed
                log.work.append((
                    stats.rules_fired,
                    cache.index_probes - probes_seen,
                    changed,
                    system.subscriber.tuples - notified_seen,
                    stats.phase_seconds,
                    getattr(stats, "check_ratio", None),
                ))
                probes_seen = cache.index_probes
                notified_seen = system.subscriber.tuples
            if passes == spec.min_passes:
                after = _exact_counters(system)
                log.counters = {
                    name: after[name] - before[name] for name in after
                }
                log.counters["core.view_delta_tuples"] = view_tuples
                log.counters["storage.mvcc_retained_entries"] = sum(log.retained)
            if spec.read_every and passes % spec.read_every == 0:
                started = perf_counter()
                log.attempt(read, database, spec.read_view, read_probes)
                log.read_ms.append((perf_counter() - started) * 1e3)
            if held is not None and passes == held_due:
                log.retained.append(database.mvcc.retained_entries())
                started = perf_counter()
                log.attempt(read_held, held, spec.held_view, held_probes)
                log.held_ms.append((perf_counter() - started) * 1e3)
                held = None
            if spec.hold_every and passes % spec.hold_every == 0:
                held = database.snapshot()
                held_due = passes + spec.hold_for
            if spec.checkpoint_every and passes % spec.checkpoint_every == 0:
                started = perf_counter()
                log.attempt(maintainer.checkpoint)
                log.checkpoint_ms.append((perf_counter() - started) * 1e3)
        log.chunk_seconds.append(perf_counter() - chunk_started)
    if saved is not None:
        layers.uninstall(saved)
    if held is not None:
        held.close()


def finish(
    spec: Spec,
    system: System,
    stream: EdgeStream,
    log: RunLog,
    recorder: Optional[layers.Recorder] = None,
) -> None:
    """After the timed stream: peak memory; on a workload that
    checkpoints also a final checkpoint, a fixed journal tail,
    ``recover()`` from both, and the recovered views checked."""
    log.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not spec.checkpoint_every:
        return
    maintainer = system.maintainer
    started = perf_counter()
    log.attempt(maintainer.checkpoint)
    log.checkpoint_ms.append((perf_counter() - started) * 1e3)
    for batch in stream.take(spec.tail_passes):
        log.apply(maintainer, batch)
    run_recover = recover if recorder is None else recorder.wrap("harness.recover", recover)
    recovery_journal = Journal(system.journal_path, metrics=MetricsRegistry())
    started = perf_counter()
    recovered = log.attempt(
        run_recover,
        lambda database: new_maintainer(spec, database),
        system.snapshot_path,
        recovery_journal,
    )
    log.recover_s = perf_counter() - started
    recovery_journal.close()
    if recovered is None:
        log.mismatches.append("recover() raised")
    else:
        log.mismatches += [
            f"recovered {name}"
            for name in differing(recovered.views, maintainer.views)
        ]


def differing(left: dict, right: dict) -> List[str]:
    """Names whose relations differ (rows and counts) between two maps."""
    return sorted(
        name
        for name in left.keys() | right.keys()
        if name not in left or name not in right or left[name] != right[name]
    )


def check_against_recomputation(
    spec: Spec, system: System, stream: EdgeStream, log: RunLog
) -> None:
    """The oracle, outside every timed region.

    Base data come from the *generator's* bookkeeping, views from a
    from-scratch materialization on a plain database; stored counts are
    compared too (B/F keeps pure sets, so there it is set-level).  Where
    the log kept the initial views, every subscriber delta is folded
    onto them and must land on the final views.
    """
    rows = stream.rows()
    if system.database.relation("link").to_dict() != dict.fromkeys(rows, 1):
        log.mismatches.append("base link")
    database = Database(mvcc=False)
    database.insert_rows("link", rows)
    oracle = new_maintainer(spec, database, crash_safe=False, guard=None)
    oracle.initialize()
    log.mismatches += [
        f"recomputed {name}"
        for name in differing(oracle.views, system.maintainer.views)
    ]
    if log.initial_views is not None:
        for view, delta in system.subscriber.kept:
            log.initial_views[view].merge(delta)
        log.mismatches += [
            f"folded {name}"
            for name, relation in log.initial_views.items()
            if relation != system.maintainer.views[name]
        ]
