"""The unified maintenance facade: :class:`ViewMaintainer`.

Ties the pieces together the way the paper prescribes: *"we are proposing
the counting algorithm for nonrecursive views, and the DRed algorithm for
recursive views, as we believe each is better than the other on the
specified domain"* (Section 1).  ``strategy="auto"`` implements that
dispatch with one post-paper upgrade: recursive views get ``"bf"``, the
Backward/Forward algorithm (:mod:`repro.core.bf`), which checks for
alternative derivations before deleting instead of DRed's overdelete-
and-rederive.  ``"counting"``, ``"dred"`` and ``"bf"`` force an
algorithm (DRed and B/F are legal for nonrecursive views too, just
expected slower — experiment E7 measures it).

Typical use::

    db = Database()
    db.insert_rows("link", edges)
    maintainer = ViewMaintainer.from_source('''
        hop(X, Y)     :- link(X, Z), link(Z, Y).
        tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
    ''', db)
    maintainer.initialize()
    report = maintainer.apply(Changeset().delete("link", ("a", "b")))
    maintainer.relation("hop")        # the maintained view
    report.delta("hop")               # what changed, signed counts

The maintainer owns the stored materializations (with counts), the
per-aggregate group states, and the stratification; every
:meth:`apply` call runs one maintenance pass and folds the results into
the stored state.  :meth:`alter` applies rule insertions/deletions
(Section 7's view-redefinition maintenance) without rematerializing.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, Literal as TypingLiteral, Optional, Tuple,
)

from repro.core import names
from repro.core.agg_maintenance import AggregateView, adopt_views
from repro.core.counting import CountingMaintenance, CountingMode, CountingResult
from repro.core.bf import BFMaintenance, BFResult
from repro.core.dred import DRedMaintenance, DRedResult
from repro.core.normalize import NormalizedProgram, normalize_program
from repro.datalog.ast import Literal, Program, Rule
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.safety import check_program_safety
from repro.datalog.stratify import Stratification, stratify
from repro.errors import (
    BudgetExceeded,
    DivergenceError,
    MaintenanceError,
    PoisonChangesetError,
    StaleViewError,
    StrategyError,
    UnknownRelationError,
)
from repro.eval.plan_cache import PlanCache
from repro.guard.admission import validate_changeset
from repro.guard.controller import GuardPolicy, MaintenanceGuard
from repro.eval.rule_eval import Resolver
from repro.eval.stratified import Semantics, materialize
from repro.obs.metrics import MetricsRegistry, get_default_registry
from repro.obs.trace import Tracer
from repro.resilience.backoff import Backoff
from repro.resilience.faults import FaultInjector
from repro.resilience.shadow import UndoLog
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation
from repro.storage.serialize import save_database

logger = logging.getLogger(__name__)

Strategy = TypingLiteral["auto", "counting", "dred", "bf"]

#: Every strategy string :class:`ViewMaintainer` accepts.
STRATEGIES = ("auto", "counting", "dred", "bf")

#: Strategies that maintain pure sets with DRed-style machinery (their
#: views are clamped to set counts and base changes canonicalized).
#: Ask :attr:`ViewMaintainer.set_only`, never the strategy string.
SET_ONLY_STRATEGIES = ("dred", "bf")


def _as_sets(views: Dict[str, CountedRelation]) -> Dict[str, CountedRelation]:
    """Copies of ``views`` with every positive count clamped to 1."""
    return {name: relation.set_view(name) for name, relation in views.items()}


def _set_level_changes(result: DRedResult) -> Iterable[str]:
    return set(result.deletions) | set(result.insertions)


def _user_deltas(result, changed: Iterable[str]) -> Dict[str, CountedRelation]:
    """The engine result's delta per changed view, internal helpers hidden."""
    return {
        name: result.delta(name)
        for name in changed
        if not names.is_internal(name)
    }


#: The interchangeable drivers: strategy → (engine class, the options it
#: takes beyond the common ones as ``option: maintainer attribute``, how
#: to list the views its result changed).  The strategy name doubles as
#: the :class:`MaintenanceReport` field that carries the engine result.
_ENGINES = {
    "counting": (
        CountingMaintenance,
        {"semantics": "semantics", "mode": "counting_mode"},
        lambda result: result.view_deltas,
    ),
    "dred": (DRedMaintenance, {}, _set_level_changes),
    "bf": (BFMaintenance, {}, _set_level_changes),
}


@dataclass
class MaintenanceReport:
    """Uniform result of one :meth:`ViewMaintainer.apply` call."""

    strategy: str
    seconds: float
    view_deltas: Dict[str, CountedRelation] = field(default_factory=dict)
    counting: Optional[CountingResult] = None
    dred: Optional[DRedResult] = None
    bf: Optional[BFResult] = None
    #: The MVCC epoch this pass published (``None``: MVCC off, or the
    #: pass did not commit — quarantined/skipped).
    epoch: Optional[int] = None
    #: The trace span id of the pass span (``None`` when tracing is
    #: off).  The profiler records it as an exemplar, so a fat tail in
    #: `repro profile` resolves to a concrete trace in the ring sink.
    span_id: Optional[int] = None

    def delta(self, view: str) -> CountedRelation:
        """The signed change applied to ``view`` (empty if unchanged)."""
        found = self.view_deltas.get(view)
        return found if found is not None else CountedRelation(names.delta(view))

    def engine_stats(self):
        """Inner stats of whichever engine ran (``None`` for recompute)."""
        for result in (self.counting, self.bf, self.dred):
            if result is not None:
                return result.stats
        return None

    def changed_views(self) -> List[str]:
        return sorted(name for name, delta in self.view_deltas.items() if delta)

    def total_changes(self) -> int:
        """Total number of distinct view tuples inserted or deleted."""
        return sum(len(delta) for delta in self.view_deltas.values())


@dataclass
class LifetimeStats:
    """Aggregate counters across a maintainer's whole lifetime."""

    passes: int = 0
    tuples_changed: int = 0
    seconds: float = 0.0

    def record(self, report: "MaintenanceReport") -> None:
        self.passes += 1
        self.tuples_changed += report.total_changes()
        self.seconds += report.seconds

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (``cli status --json``)."""
        return {
            "passes": self.passes,
            "tuples_changed": self.tuples_changed,
            "seconds": self.seconds,
        }


@dataclass
class MaintenanceStats:
    """Lifetime perf counters for a maintainer (bench harness / CLI status).

    ``phase_seconds`` accumulates the per-phase wall time the passes
    report (counting: seed/propagate/apply; DRed: seed/overestimate/
    rederive/insert).  The plan-cache counters mirror the owned
    :class:`~repro.eval.plan_cache.PlanCache` (zero when caching is off).
    """

    passes: int = 0
    seconds: float = 0.0
    rules_fired: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_invalidations: int = 0
    plan_cache_size: int = 0
    index_probes: int = 0

    def record_pass(
        self, report: "MaintenanceReport", cache: Optional[PlanCache]
    ) -> None:
        self.passes += 1
        self.seconds += report.seconds
        inner = report.engine_stats()
        if inner is not None:
            self.rules_fired += inner.rules_fired
            for phase, seconds in inner.phase_seconds.items():
                self.phase_seconds[phase] = (
                    self.phase_seconds.get(phase, 0.0) + seconds
                )
        if cache is not None:
            # PlanCache counters are lifetime totals; copy, don't add.
            self.plan_cache_hits = cache.hits
            self.plan_cache_misses = cache.misses
            self.plan_cache_invalidations = cache.invalidations
            self.plan_cache_size = len(cache)
            self.index_probes = cache.index_probes

    def hit_rate(self) -> float:
        """Plan-cache hit rate over the maintainer's lifetime."""
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (bench output, CLI ``status``)."""
        return {
            "passes": self.passes,
            "seconds": self.seconds,
            "rules_fired": self.rules_fired,
            "phase_seconds": dict(self.phase_seconds),
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_invalidations": self.plan_cache_invalidations,
            "plan_cache_size": self.plan_cache_size,
            "plan_cache_hit_rate": self.hit_rate(),
            "index_probes": self.index_probes,
        }


class ViewMaintainer:
    """Owns materialized views over a database and maintains them."""

    def __init__(
        self,
        program: Program,
        database: Database,
        strategy: Strategy = "auto",
        semantics: Semantics = "set",
        counting_mode: CountingMode = "expansion",
        crash_safe: bool = True,
        plan_cache: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        guard: Optional[GuardPolicy] = None,
        health=None,
        profiler=None,
    ) -> None:
        check_program_safety(program)
        self.database = database
        self.semantics: Semantics = semantics
        self.counting_mode: CountingMode = counting_mode
        self._set_program(normalize_program(program))
        self._resolve_strategy(strategy)
        self.views: Dict[str, CountedRelation] = {}
        self.aggregate_views: Dict[str, AggregateView] = {}
        self._initialized = False
        #: Span tracer (disabled unless constructed with a sink) and the
        #: metrics registry every pass reports into.  See repro.obs.
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else (
            get_default_registry()
        )
        from repro.core.active import SubscriptionHub

        self._subscriptions = SubscriptionHub(
            metrics=self.metrics, tracer=self.tracer
        )
        #: Shadow-commit apply: when True (the default), every pass runs
        #: over an undo log and any mid-pass exception restores the
        #: pre-pass state exactly.  Disable only to benchmark the
        #: (per-changed-row) bookkeeping cost.
        self.crash_safe = crash_safe
        #: Deterministic crash-point injection (tests/ops drills); inert
        #: until armed.  See :mod:`repro.resilience.faults`.
        self.faults = FaultInjector()
        #: The guard envelope around every pass: budgets with cooperative
        #: cancellation, the circuit breaker routing breached views to
        #: the recompute baseline, admission control + quarantine, and
        #: journal retry.  The default policy is fully inert.  See
        #: :mod:`repro.guard`.
        self.guard = MaintenanceGuard(
            guard if guard is not None else GuardPolicy(),
            faults=self.faults,
            metrics=metrics if metrics is not None else get_default_registry(),
        )
        #: Staleness bookkeeping: changesets admitted to the stream but
        #: not applied (quarantined or skipped), and when the lag began.
        self._lag_changesets = 0
        self._lag_since: Optional[float] = None
        self._journal = None
        self._snapshot_path: Optional[str] = None
        self._checkpoint_every: Optional[int] = None
        self._entries_since_checkpoint = 0
        self._watermark = 0
        #: Exceptions swallowed by auto-checkpointing (a committed pass
        #: must not be failed retroactively by checkpoint I/O).
        self.checkpoint_errors: List[Exception] = []
        self.lifetime = LifetimeStats()
        #: The epoch the last :meth:`consistency_check` validated
        #: (``None``: never checked, or MVCC off).
        self.last_validated_epoch: Optional[int] = None
        #: Compiled delta-plan cache shared by every pass this maintainer
        #: runs (``plan_cache=False`` disables it — the ablation/baseline
        #: configuration, which replans every rule on every pass).
        #: Invalidated whenever the program changes (:meth:`alter`).
        self.plan_cache: Optional[PlanCache] = (
            PlanCache() if plan_cache else None
        )
        self.stats = MaintenanceStats()
        #: Health layer (both off by default; one ``is None`` check per
        #: pass).  ``health`` scores every pass against declared SLOs
        #: (:mod:`repro.obs.health`); ``profiler`` folds per-phase
        #: timings into rolling quantiles (:mod:`repro.obs.profiler`).
        self.health = health
        self.profiler = profiler

    # ----------------------------------------------------------- construction

    @classmethod
    def from_source(
        cls, source: str, database: Database, **options
    ) -> "ViewMaintainer":
        """Build a maintainer from Datalog source text.

        ``options`` are the constructor's keyword arguments
        (``strategy``, ``semantics``, ``guard``, ``tracer`` …).
        """
        return cls(parse_program(source), database, **options)

    def _set_program(self, normalized: NormalizedProgram) -> None:
        self.normalized = normalized
        self.program: Program = normalized.original
        self.stratification: Stratification = stratify(normalized.program)

    def _resolve_strategy(self, strategy: Strategy) -> None:
        if strategy not in STRATEGIES:
            # Validate up front — an unknown string must never silently
            # fall through to some engine's dispatch default.
            raise StrategyError(
                f"unknown strategy {strategy!r}; choose one of "
                + ", ".join(repr(s) for s in STRATEGIES)
            )
        if strategy == "auto":
            strategy = "bf" if self.stratification.is_recursive else "counting"
        if strategy == "counting" and self.stratification.is_recursive:
            # Typed error carrying the analyzer diagnostic: the RV008
            # code plus the concrete recursive cycle, so callers (and
            # `repro lint`) can point at *why* counting is ruled out.
            from repro.analysis.checks import counting_on_recursive

            diagnostic = counting_on_recursive(self.stratification)
            raise StrategyError(
                "counting does not apply to recursive views; use "
                "strategy='dred' (or see repro.core.recursive_counting "
                f"for the [GKM92] extension) — [{diagnostic.code}] "
                f"{diagnostic.message}",
                diagnostic=diagnostic,
            )
        if strategy in SET_ONLY_STRATEGIES and self.semantics != "set":
            from repro.analysis.checks import dred_duplicate_semantics

            diagnostic = dred_duplicate_semantics()
            raise StrategyError(
                f"{strategy} is defined for set semantics only "
                f"(Section 7) — [{diagnostic.code}]",
                diagnostic=diagnostic,
            )
        self.strategy: str = strategy

    # ----------------------------------------------------------------- state

    def initialize(self) -> "ViewMaintainer":
        """Materialize every view and set up aggregate group states."""
        self._fix_base_arities()
        # Fresh relation objects, not patched ones: re-initializing is a
        # structural change that severs MVCC history (_register_views).
        self.views = {}
        self._adopt_views(*self._rebuild_views())
        self._initialized = True
        return self

    def _fix_base_arities(self) -> None:
        """Base relations take the arities the program uses them with."""
        program = self.normalized.program
        self.database.fix_arities(
            {name: program.arity_of(name) for name in program.edb_predicates}
        )

    @property
    def set_only(self) -> bool:
        """The one set-only rule: DRed and B/F maintain pure sets.

        Where it holds, stored view counts are clamped to 1, base
        changes are canonicalized (a duplicate insert is a no-op, a
        delete removes the row whatever its multiplicity, deleting an
        absent row is an error) and views compare at the set level.
        """
        return self.strategy in SET_ONLY_STRATEGIES

    def _rebuild_views(
        self, database: Optional[Database] = None
    ) -> Tuple[Dict[str, CountedRelation], Dict]:
        """Every view recomputed from scratch, as this strategy stores it,
        and the GROUPBY views the recompute folded (for :meth:`_adopt_views`).

        ``database`` defaults to the live one; pass a pinned snapshot's
        ``as_database`` to recompute at a committed epoch.
        """
        folded: Dict = {}
        fresh = materialize(
            self.normalized.program,
            database if database is not None else self.database,
            semantics=self.semantics,
            stratification=self.stratification,
            aggregates=folded,
        )
        # The set-mode materialization leaves per-stratum duplicate
        # counts behind; set-only strategies store 1.
        return (_as_sets(fresh) if self.set_only else fresh), folded

    def _adopt_views(self, fresh: Dict[str, CountedRelation], folded: Dict) -> None:
        """Make the stored views equal ``fresh``, in place.

        Existing relation objects are patched (references held
        elsewhere stay valid), every aggregate view adopts the group
        states ``folded`` by the :meth:`_rebuild_views` that made
        ``fresh``, and the views are (re)bound for MVCC.
        """
        for name, expected in fresh.items():
            actual = self.views.get(name)
            if actual is None:
                self.views[name] = expected
            else:
                actual.replace_rows(expected.to_dict())
                actual.arity = expected.arity
        self.aggregate_views.update(adopt_views(
            self.normalized.aggregate_rules,
            folded,
            Resolver(self.database, self.views),
            unit_counts=self.semantics == "set",
        ))
        self._register_views()

    def _register_views(self) -> None:
        """Adopt the view relations into the database's MVCC registry.

        Snapshots must cover views, not just base relations — a reader
        comparing a pinned view against a recompute over pinned bases is
        the torn-read oracle.  Re-binding an existing name to a *new*
        relation object (``refresh``/``alter``) severs version history:
        past epochs cannot be reconstructed across an object swap, so
        older snapshots fail typed instead of reading a mix.
        """
        mvcc = self.database.mvcc
        if mvcc is not None:
            mvcc.rebind(self.views)

    def refresh(self) -> "ViewMaintainer":
        """Rematerialize every view from the current base relations.

        The repair path: equivalent to a fresh :meth:`initialize` over
        the same database.  Use after external mutation of the database
        (which maintenance cannot track) or a failed
        :meth:`consistency_check`.
        """
        self.clear_lag()
        return self.initialize()

    def relation(
        self, name: str, strict: "Optional[bool | str]" = None
    ) -> CountedRelation:
        """A maintained view or base relation by name.

        ``strict`` (defaulting to ``GuardPolicy(strict_reads=...)``)
        picks what a degraded materialization — quarantined or skipped
        changesets pending — serves:

        * ``False`` / ``"serve"``: always return the live relation,
          even lagging (the default);
        * ``True`` / ``"reject"``: raise :class:`StaleViewError`
          instead of serving a view that lags the stream;
        * ``"snapshot"``: serve the last *consistent* committed epoch —
          a :class:`~repro.storage.mvcc.SnapshotRead` with the epoch
          and the staleness lag attached (requires MVCC).
        """
        self._require_initialized()
        if strict is None:
            strict = self.guard.policy.strict_reads
        if strict == "snapshot":
            return self.snapshot_read(name)
        if strict in (True, "reject") and self._lag_changesets:
            lag = self.lag()
            raise StaleViewError(
                f"{name} is stale: {lag['changesets']} changeset(s) "
                f"(~{lag['seconds']:.1f}s) behind the stream; drain the "
                "quarantine or refresh() to catch up"
            )
        found = self.views.get(name)
        if found is not None:
            return found
        found = self.database.get(name)
        if found is None:
            raise UnknownRelationError(f"no view or base relation named {name}")
        return found

    def snapshot_read(self, name: str):
        """The last committed epoch's state of ``name``, lag attached.

        The ``strict_reads="snapshot"`` serving path: never a torn or
        half-maintained state — the read is materialized from the MVCC
        version chains at the last committed epoch, and the returned
        :class:`~repro.storage.mvcc.SnapshotRead` carries ``epoch`` plus
        the :meth:`lag` dict measured at read time.
        """
        self._require_initialized()
        mvcc = self.database.mvcc
        if mvcc is None:
            raise MaintenanceError(
                "snapshot reads need MVCC; this database was built "
                "with mvcc=False"
            )
        from repro.storage.mvcc import SnapshotRead

        with self.database.snapshot() as snap:
            state = snap.relation(name)
        read = SnapshotRead(name, state.arity)
        read._rows = state.to_dict()
        read.epoch = snap.epoch
        read.staleness = self.lag()
        return read

    def view_names(self) -> List[str]:
        """User-visible view names.

        Synthetic helpers are excluded: normalized-aggregate predicates
        and the ``$``-suffixed auxiliaries the SQL front-end generates
        for NOT EXISTS / EXCEPT / GROUP BY.
        """
        return sorted(
            p
            for p in self.program.idb_predicates
            if not names.is_internal(p) and "$" not in p
        )

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise MaintenanceError(
                "call initialize() before using the maintainer"
            )

    # ------------------------------------------------------------ maintenance

    def apply(self, changes: Changeset) -> MaintenanceReport:
        """Maintain all views for a base-relation changeset.

        The pass is *all-or-nothing* (shadow-commit, on by default): the
        engine records the pre-image of every cell it touches in an undo
        log, and any exception before the commit point — validation
        failures, bugs, injected faults, a failed journal append —
        unwinds the log, leaving base relations, view counts, and
        aggregate group states exactly as they were.

        The commit point is the journal append (redo-log discipline:
        only committed batches are logged).  After it, the pass is
        recorded in :attr:`lifetime`, subscribers are notified (isolated
        — their exceptions are retried and dead-lettered, never raised
        here), and an auto-checkpoint may fire.

        With a :class:`~repro.guard.GuardPolicy` configured the pass
        runs inside the guard envelope: admission control may quarantine
        a poison changeset (``strategy="quarantined"`` report, stream
        continues), a budget breach rolls back and — per the policy —
        reroutes to the full-recompute baseline
        (``strategy="recompute"``), parks the changeset
        (``strategy="skipped"``), or raises
        :class:`~repro.errors.BudgetExceeded`.  An open circuit breaker
        routes passes straight to the baseline without an incremental
        attempt.
        """
        self._require_initialized()
        if changes.is_empty():
            return MaintenanceReport(strategy=self.strategy, seconds=0.0)
        guard = self.guard
        policy = guard.policy
        if policy.admission_enabled:
            try:
                self.faults.fire("admission")
                validate_changeset(self, changes)
            except PoisonChangesetError as exc:
                return self._quarantine_changes(changes, "admission", exc)
        route = guard.route()
        if route == "incremental":
            if guard.meter.enabled:
                guard.meter.reset()
            try:
                return self._commit(self._incremental_pass(changes), route)
            except BudgetExceeded as exc:
                # The undo log already unwound; state is pre-pass.
                guard.record_breach(exc)
                logger.warning(
                    "maintenance budget breached (%s); fallback=%s",
                    exc, policy.fallback,
                )
                if policy.fallback == "raise":
                    raise
                if policy.fallback == "skip":
                    return self._skip_pass(changes, exc)
                route = "fallback"
                reason = getattr(exc, "kind", "budget")
        else:
            reason = "forced" if policy.force_fallback else "breaker_open"
        return self._commit(self._recompute_pass(changes, reason), route)

    @contextmanager
    def _shadow_pass(self):
        """The one pass envelope: an undo log over an open MVCC epoch.

        Yields the :class:`UndoLog` the body must note pre-images in
        (``None`` with ``crash_safe=False``).  Any exception out of the
        body rolls the pass back — the uncommitted epoch is aborted,
        the log unwound, ``repro_rollbacks_total`` bumped, ``mvcc_abort``
        / ``rollback`` trace events emitted — and re-raises.  A clean
        exit leaves the epoch open for :meth:`_publish`.

        With MVCC the open epoch already records every touched row's
        pre-image and ``abort()`` discards the uncommitted version, so
        the log keeps only structural notes (created relations,
        reassigned attributes, remapped dicts): ``track_rows=False``.
        """
        mvcc = self.database.mvcc
        undo = UndoLog(track_rows=mvcc is None) if self.crash_safe else None
        if mvcc is not None:
            mvcc.begin()
        try:
            yield undo
        except BaseException as exc:
            if mvcc is not None and mvcc.in_flight:
                restored = mvcc.abort()
                self.tracer.event(
                    "mvcc_abort", error=type(exc).__name__, rows=restored
                )
            if undo is not None:
                logger.warning(
                    "maintenance pass failed (%s: %s); unwinding %d undo "
                    "entries", type(exc).__name__, exc, len(undo),
                )
                entries = undo.unwind()
                self.metrics.counter(
                    "repro_rollbacks_total",
                    "Maintenance passes rolled back by the shadow-commit "
                    "undo log",
                ).inc()
                self.tracer.event(
                    "rollback", error=type(exc).__name__, entries=entries
                )
            raise

    def _publish(self, swapped: bool = False) -> Optional[int]:
        """Rebind the views and flip the epoch; ``None`` with MVCC off.

        A pass rebinds *first*: a relation born mid-pass registers
        inside the open epoch and gets zero pre-images, so snapshots
        pinned earlier read it empty.  :meth:`alter` replaced every view
        object (``swapped``), which makes the rebind sever history — it
        must land *after* the rule-change epoch is published, or a
        reader could pin the severed epoch and see the new objects torn.
        """
        mvcc = self.database.mvcc
        if mvcc is None:
            return None
        if not swapped:
            self._register_views()
        epoch = mvcc.commit()
        if swapped:
            self._register_views()
        return epoch

    def _incremental_pass(self, changes: Changeset) -> MaintenanceReport:
        """One shadow-committed incremental pass (no commit tail)."""
        with self._shadow_pass() as undo, self.tracer.span(
            "pass",
            self.strategy,
            insertions=changes.insertion_count(),
            deletions=changes.deletion_count(),
        ) as span:
            report = self._run_maintenance(changes, undo)
            self._append_journal(changes)
            span.set(
                tuples_changed=report.total_changes(),
                seconds=report.seconds,
            )
        # The span has closed (and hit the sink), so the exemplar id the
        # profiler stores is already resolvable in the trace ring.
        report.span_id = getattr(span, "span_id", None)
        report.epoch = self._publish()
        return report

    def _commit(self, report: MaintenanceReport, route: str) -> MaintenanceReport:
        """The shared post-commit tail of every successful pass."""
        self.guard.record_success(route)
        self.lifetime.record(report)
        self.stats.record_pass(report, self.plan_cache)
        self._record_metrics(report)
        self._observe(report)
        sanitizer = self.database.sanitizer
        if sanitizer is not None and self.strategy == "counting":
            # Theorem 4.1 gate: stored counts on the views this pass
            # touched must equal their immediate-derivation counts.
            # Counting is the only strategy whose stored counts *are*
            # derivation counts; sampling is capped inside the check.
            sanitizer.check_theorem_4_1(self, report.changed_views())
        self._subscriptions.notify(report.view_deltas, epoch=report.epoch)
        self._auto_checkpoint()
        return report

    def _observe(self, report: MaintenanceReport) -> MaintenanceReport:
        """Hand one pass record to the health layer (both off by default).

        Committed passes come through :meth:`_commit`; quarantined and
        skipped ones never reach it, but they are exactly what the
        ``freshness_lag`` / ``error_rate`` objectives exist to notice,
        so they are scored too (the profiler ignores zero-work reports
        on its own).
        """
        if self.profiler is not None:
            self.profiler.observe_pass(report)
        if self.health is not None:
            self.health.observe_pass(self, report)
        return report

    def _append_journal(self, changes: Changeset) -> None:
        """The commit point: redo-log append, with bounded retry.

        Transient journal ``OSError``s are retried with exponential
        backoff and jitter (``GuardPolicy.journal_retry_*``); the
        journal truncates its own torn line on a failed append, so a
        retry can never duplicate an entry.  Any other exception — and
        an ``OSError`` that survives every attempt — propagates and
        rolls the pass back.
        """
        policy = self.guard.policy
        attempts = max(1, policy.journal_retry_attempts)
        backoff = Backoff(
            policy.journal_retry_base_seconds,
            jitter=policy.journal_retry_jitter,
            rng=self.guard.rng,
        )
        mvcc = self.database.mvcc
        # The append precedes the epoch flip, so the entry carries the
        # epoch this pass is *about to* publish — recovery replays land
        # on exactly the epoch subscribers saw.
        epoch = (
            mvcc.next_epoch
            if mvcc is not None and mvcc.in_flight
            else None
        )
        for attempt in range(1, attempts + 1):
            try:
                self.faults.fire("journal_append")
                if self._journal is not None:
                    self._watermark = self._journal.append(
                        changes, epoch=epoch
                    )
                return
            except OSError as exc:
                if attempt == attempts:
                    raise
                self.guard.journal_retries += 1
                self.metrics.counter(
                    "repro_guard_journal_retries_total",
                    "Journal appends retried after a transient OSError.",
                ).inc()
                logger.warning(
                    "journal append failed (%s); retry %d/%d",
                    exc, attempt, attempts - 1,
                )
                backoff.pause(attempt)

    # ------------------------------------------------------ guard envelope

    def _quarantine_changes(
        self, changes: Changeset, reason: str, exc: Exception
    ) -> MaintenanceReport:
        """Park a poison changeset in the dead-letter queue.

        Without a queue configured the admission error propagates (the
        caller opted into validation but not quarantine).
        """
        queue = self.guard.quarantine
        if queue is None:
            raise exc
        queue.append(changes, reason, error=exc)
        self._set_lag(self._lag_changesets + 1)
        self.tracer.event("quarantine", reason=reason, error=str(exc))
        return self._observe(
            MaintenanceReport(strategy="quarantined", seconds=0.0)
        )

    def _skip_pass(
        self, changes: Changeset, exc: BudgetExceeded
    ) -> MaintenanceReport:
        """``fallback="skip"``: park the changeset and serve stale reads.

        With a quarantine queue the changeset is preserved for requeue;
        without one it is dropped (the lag counter still records it).
        """
        if self.guard.quarantine is not None:
            self.guard.quarantine.append(changes, "budget", error=exc)
        self.guard.skipped_passes += 1
        self._set_lag(self._lag_changesets + 1)
        self.metrics.counter(
            "repro_guard_skipped_passes_total",
            "Passes skipped by the guard (changeset parked, views lag).",
        ).inc()
        self.tracer.event("guard_skip", error=str(exc))
        return self._observe(
            MaintenanceReport(strategy="skipped", seconds=0.0)
        )

    def _recompute_pass(
        self, changes: Changeset, reason: str
    ) -> MaintenanceReport:
        """Apply ``changes`` via the full-recompute baseline.

        The fallback route when incremental maintenance breached its
        budget (or the breaker is open): update the base relations,
        rematerialize every view from scratch, and patch the stored
        views in place (references held elsewhere stay valid — the
        repair-path idiom).  Same shadow-commit contract as the
        incremental path: any exception restores the pre-pass state,
        including the journal.
        """
        started = time.perf_counter()
        old_views = {
            name: relation.copy() for name, relation in self.views.items()
        }
        with self._shadow_pass() as undo, self.tracer.span(
            "pass",
            "recompute",
            reason=reason,
            insertions=changes.insertion_count(),
            deletions=changes.deletion_count(),
        ) as span:
            self._apply_base_changes_direct(changes, undo)
            self.faults.fire("fallback_recompute")
            fresh, folded = self._rebuild_views()
            if undo is not None:
                undo.note_mapping(self.views)
                for name, relation in self.views.items():
                    if undo.track_rows:
                        # Every row the patch can touch: 0 before for
                        # the rows it adds, the old count for the rest.
                        pre_images = dict.fromkeys(fresh.get(name, ()), 0)
                        pre_images.update(old_views[name].items())
                        undo.note_rows(relation, pre_images)
                    undo.note_attr(relation, "arity")
                # _adopt_views builds fresh AggregateView objects and
                # reassigns the mapping entries; the old objects are
                # never mutated, so restoring the mapping restores their
                # states too.
                undo.note_mapping(self.aggregate_views)
            self._adopt_views(fresh, folded)
            self._append_journal(changes)
            seconds = time.perf_counter() - started
            span.set(seconds=seconds)
        epoch = self._publish()
        self.guard.fallback_passes += 1
        self.metrics.counter(
            "repro_guard_fallback_passes_total",
            "Passes rerouted to the full-recompute baseline.",
            labels=("reason",),
        ).inc(reason=reason)
        self.tracer.event("guard_fallback", reason=reason)
        return MaintenanceReport(
            strategy="recompute",
            seconds=seconds,
            view_deltas=self._diff_views(old_views),
            epoch=epoch,
            span_id=getattr(span, "span_id", None),
        )

    def _apply_base_changes_direct(
        self, changes: Changeset, undo: Optional[UndoLog]
    ) -> None:
        """Update base relations for the recompute fallback.

        Mirrors each engine's base-apply semantics exactly so fallback
        passes interleave with incremental ones: counting merges signed
        multiplicities (after Lemma 4.1 validation); DRed canonicalizes
        to sets — duplicate insertions are no-ops, deleting an absent
        row is an error.
        """
        derived = self.normalized.program.idb_predicates
        for name, _delta in changes:
            if name in derived:
                raise MaintenanceError(
                    f"cannot change derived relation {name} directly; "
                    "change the base relations it is derived from"
                )
        if self.set_only:
            for name, delta in changes:
                relation = self.database.get(name)
                if relation is None:
                    if undo is not None:
                        undo.note_base_created(self.database, name)
                    relation = self.database.ensure_relation(name)
                elif undo is not None:
                    undo.note_counts(relation, delta)
                for row, count in sorted(
                    delta.items(), key=lambda item: repr(item[0])
                ):
                    present = relation.contains_positive(row)
                    if count < 0:
                        if not present:
                            raise MaintenanceError(
                                f"changeset deletes {row!r} from {name} "
                                "but it is not stored"
                            )
                        relation.discard(row)
                    elif count > 0 and not present:
                        relation.set_count(row, 1)
            return
        if undo is not None:
            for name, delta in changes:
                relation = self.database.get(name)
                if relation is None:
                    undo.note_base_created(self.database, name)
                else:
                    undo.note_counts(relation, delta)
        # Validates arity and Lemma 4.1 before mutating anything.
        self.database.apply_changeset(changes)

    def _diff_views(
        self, old_views: Dict[str, CountedRelation]
    ) -> Dict[str, CountedRelation]:
        """Signed per-view deltas: new stored counts minus old."""
        deltas: Dict[str, CountedRelation] = {}
        for name, new in self.views.items():
            if names.is_internal(name):
                continue
            old = old_views.get(name)
            delta = CountedRelation(names.delta(name), new.arity)
            rows = set(new.rows())
            if old is not None:
                rows |= set(old.rows())
            for row in rows:
                change = new.count(row) - (old.count(row) if old else 0)
                if change:
                    delta.add(row, change)
            if delta:
                deltas[name] = delta
        return deltas

    # ----------------------------------------------------------- staleness

    def _set_lag(self, changesets: int) -> None:
        self._lag_changesets = max(0, changesets)
        if self._lag_changesets == 0:
            self._lag_since = None
        elif self._lag_since is None:
            self._lag_since = time.time()
        self.metrics.gauge(
            "repro_guard_lag_changesets",
            "Changesets admitted to the stream but not applied "
            "(quarantined or skipped).",
        ).set(self._lag_changesets)

    def lag(self) -> Dict[str, object]:
        """How far the views lag the stream: changesets and seconds."""
        seconds = (
            time.time() - self._lag_since if self._lag_since is not None
            else 0.0
        )
        return {"changesets": self._lag_changesets, "seconds": seconds}

    def clear_lag(self) -> None:
        """Declare the views caught up (e.g. after an out-of-band fix)."""
        self._set_lag(0)

    # ----------------------------------------------------------- health

    def attach_health(self, slos, sinks=()):
        """Attach an SLO health engine; returns it (see repro.obs.health).

        ``slos`` is anything :func:`repro.obs.health.load_slos` accepts
        — SLO objects, dicts, or a JSON spec string.
        """
        from repro.obs.health import HealthEngine, load_slos

        self.health = HealthEngine(
            load_slos(slos), metrics=self.metrics, sinks=sinks
        )
        return self.health

    def enable_profiler(self, window: int = 512):
        """Attach a continuous profiler; returns it (repro.obs.profiler)."""
        from repro.obs.profiler import ContinuousProfiler

        self.profiler = ContinuousProfiler(window=window)
        return self.profiler

    @property
    def quarantine(self):
        """The dead-letter queue, or ``None`` when not configured."""
        return self.guard.quarantine

    def requeue_quarantined(
        self, entry_id: Optional[int] = None
    ) -> List[MaintenanceReport]:
        """Re-apply quarantined changesets, oldest first.

        Each entry is removed from the queue and pushed back through
        :meth:`apply` — still-poison changesets are re-quarantined (and
        re-counted as lag), healed ones commit normally.  Pass
        ``entry_id`` to requeue a single entry.  Returns the per-entry
        reports.
        """
        queue = self.guard.quarantine
        if queue is None:
            raise MaintenanceError("no quarantine queue configured")
        reports: List[MaintenanceReport] = []
        for _entry, changes in queue.take(entry_id):
            self._set_lag(self._lag_changesets - 1)
            reports.append(self.apply(changes))
        return reports

    def purge_quarantined(self) -> int:
        """Drop every quarantined changeset; returns how many."""
        queue = self.guard.quarantine
        if queue is None:
            raise MaintenanceError("no quarantine queue configured")
        dropped = queue.purge()
        self._set_lag(self._lag_changesets - dropped)
        return dropped

    def apply_many(self, changesets: Iterable[Changeset]) -> MaintenanceReport:
        """Coalesce a stream of changesets and maintain in ONE pass.

        The changesets are ⊎-merged (:func:`~repro.storage.changeset.coalesce`)
        so a row inserted by one batch and deleted by a later one cancels
        before any maintenance work happens; the net changeset then runs
        through the ordinary :meth:`apply` — same shadow-commit
        all-or-nothing guarantee, and at most ONE journal entry (none if
        the stream nets out to nothing).  Requires each changeset to be
        valid against the state left by its predecessors, which makes
        the net changeset valid against the current state.

        Returns the report of the single coalesced pass (an empty report
        with ``strategy=self.strategy`` when everything cancelled).
        """
        from repro.storage.changeset import coalesce

        self._require_initialized()
        return self.apply(coalesce(changesets))

    def _record_metrics(self, report: MaintenanceReport) -> None:
        """Fold one committed pass into the metrics registry."""
        metrics = self.metrics
        metrics.counter(
            "repro_passes_total",
            "Maintenance passes committed",
            labels=("strategy",),
        ).inc(strategy=report.strategy)
        metrics.histogram(
            "repro_pass_seconds",
            "Wall time of one maintenance pass",
            labels=("strategy",),
        ).observe(report.seconds, strategy=report.strategy)
        metrics.counter(
            "repro_view_tuples_changed_total",
            "Distinct view tuples inserted or deleted by maintenance",
        ).inc(report.total_changes())
        inner = report.engine_stats()
        if inner is not None:
            metrics.counter(
                "repro_rules_fired_total",
                "Delta/DRed rules fired by maintenance passes",
            ).inc(inner.rules_fired)
            phase_counter = metrics.counter(
                "repro_phase_seconds_total",
                "Cumulative wall seconds per maintenance phase",
                labels=("phase",),
            )
            for phase, seconds in inner.phase_seconds.items():
                phase_counter.inc(seconds, phase=phase)
        if report.dred is not None:
            stats = report.dred.stats
            metrics.counter(
                "repro_dred_overestimated_total",
                "Tuples in DRed deletion overestimates",
            ).inc(stats.overestimated)
            metrics.counter(
                "repro_dred_rederived_total",
                "Overestimated tuples DRed rederived",
            ).inc(stats.rederived)
            metrics.gauge(
                "repro_dred_overestimate_waste_ratio",
                "Last pass's |overestimate| / |actual deletions| "
                "(1.0 = no overshoot)",
            ).set(stats.overdeletion_ratio)
        if report.bf is not None:
            stats = report.bf.stats
            metrics.counter(
                "repro_bf_candidates_total",
                "Deletion candidates the B/F backward check examined",
            ).inc(stats.candidates)
            metrics.counter(
                "repro_bf_verified_total",
                "Candidates B/F kept via a surviving alternative "
                "derivation",
            ).inc(stats.verified)
            metrics.counter(
                "repro_bf_waves_total",
                "Forward deletion-propagation waves run by B/F passes",
            ).inc(stats.waves)
            metrics.gauge(
                "repro_bf_check_ratio",
                "Last pass's |candidates| / |actual deletions| "
                "(1.0 = perfectly targeted)",
            ).set(stats.check_ratio)
        cache = self.plan_cache
        if cache is not None:
            metrics.gauge(
                "repro_plan_cache_hits",
                "Lifetime plan-cache hits of this process's maintainers",
            ).set(cache.hits)
            metrics.gauge(
                "repro_plan_cache_misses",
                "Lifetime plan-cache misses",
            ).set(cache.misses)
            metrics.gauge(
                "repro_plan_cache_size", "Entries in the plan cache"
            ).set(len(cache))
            metrics.gauge(
                "repro_plan_cache_hit_ratio",
                "Lifetime plan-cache hit ratio",
            ).set(cache.hit_rate())
            metrics.gauge(
                "repro_index_probes", "Indexed lookups executed by plans"
            ).set(cache.index_probes)
        if self.aggregate_views:
            metrics.gauge(
                "repro_aggregate_incremental_updates",
                "Aggregate groups maintained incrementally (lifetime)",
            ).set(
                sum(v.incremental_updates for v in self.aggregate_views.values())
            )
            metrics.gauge(
                "repro_aggregate_recomputes",
                "Aggregate groups that needed the recompute fallback "
                "(lifetime)",
            ).set(sum(v.recomputes for v in self.aggregate_views.values()))

    def _run_maintenance(
        self, changes: Changeset, undo: Optional[UndoLog] = None
    ) -> MaintenanceReport:
        engine, extra, changed = _ENGINES[self.strategy]
        result = engine(
            self.normalized,
            self.stratification,
            self.database,
            self.views,
            self.aggregate_views,
            faults=self.faults,
            undo=undo,
            plan_cache=self.plan_cache,
            tracer=self.tracer,
            guard=self.guard.meter,
            **{option: getattr(self, name) for option, name in extra.items()},
        ).run(changes)
        return MaintenanceReport(
            strategy=self.strategy,
            seconds=result.stats.seconds,
            view_deltas=_user_deltas(result, changed(result)),
            **{self.strategy: result},
        )

    def alter(
        self,
        add: Iterable[Rule | str] = (),
        remove: Iterable[Rule | str] = (),
    ) -> MaintenanceReport:
        """Change the view definitions and maintain incrementally.

        Section 7: "The algorithm can also be used when the view
        definition is itself altered."  Rules may be given as
        :class:`Rule` objects or source strings.  Requires set semantics.
        """
        self._require_initialized()
        from repro.core.rule_changes import maintain_rule_changes

        if self._journal is not None:
            raise MaintenanceError(
                "rule changes are not representable in the changeset "
                "journal; save a fresh snapshot, truncate the journal, "
                "and detach it before calling alter()"
            )
        added = [parse_rule(r) if isinstance(r, str) else r for r in add]
        removed = [parse_rule(r) if isinstance(r, str) else r for r in remove]
        if self.semantics != "set":
            raise MaintenanceError(
                "rule-change maintenance runs under set semantics only; "
                "re-create the maintainer to change definitions under "
                "duplicate semantics"
            )
        started = time.perf_counter()
        # The program is about to change: every cached plan, variant
        # rewrite, and relevance filter compiled from it is now suspect.
        # (Keys are structural, so stale entries would in fact still be
        # correct — but dropping them keeps the cache's footprint tied to
        # the live program and is what the invalidation contract states.)
        if self.plan_cache is not None:
            self.plan_cache.invalidate()
        try:
            with self._shadow_pass() as undo:
                if undo is not None:
                    # Rule changes rewrite the program *and* rewrite
                    # views in place; note everything a failed
                    # redefinition could have touched (the view rows
                    # themselves are noted by the DRed pass below).
                    for attribute in (
                        "normalized", "program", "stratification",
                        "strategy", "views",
                    ):
                        undo.note_attr(self, attribute)
                    undo.note_mapping(self.views)
                    # (AggregateView.maintain notes the groups it changes.)
                    undo.note_attr(self, "aggregate_views")
                    undo.note_mapping(self.aggregate_views)
                new_normalized, new_strat, result = maintain_rule_changes(
                    self, added, removed, undo
                )
                self.normalized = new_normalized
                self.program = new_normalized.original
                self.stratification = new_strat
                # Rule-change maintenance is a DRed operation (Section
                # 7); it leaves set-style counts behind, so the
                # maintainer stays on the DRed strategy from here on.
                # Re-create the maintainer to go back to counting after
                # a redefinition.
                self.strategy = "dred"
                self.views = _as_sets(self.views)
                # Last, since it changes the database only if it passes.
                self._fix_base_arities()
        finally:
            # Drop what the redefinition itself compiled: plans from the
            # *old* rules on success, plans against the transitional
            # program the unwind just rolled back on failure.
            if self.plan_cache is not None:
                self.plan_cache.invalidate()
        epoch = self._publish(swapped=True)
        deltas = _user_deltas(result, _set_level_changes(result))
        self._subscriptions.notify(deltas, epoch=epoch)
        return MaintenanceReport(
            strategy="dred(rule-change)",
            seconds=time.perf_counter() - started,
            view_deltas=deltas,
            dred=result,
            epoch=epoch,
        )

    # ----------------------------------------------------------------- query

    def query(self, body: str) -> List[Dict[str, object]]:
        """Evaluate an ad-hoc conjunctive query against the current state.

        ``body`` uses rule-body syntax over views and base relations::

            maintainer.query("hop(a, X), not tri_hop(a, X)")

        Returns one ``{variable: value}`` dict per solution (set
        semantics: duplicates collapsed, deterministic order).
        """
        self._require_initialized()
        from repro.datalog.ast import Rule as RuleNode
        from repro.datalog.parser import parse_body
        from repro.datalog.safety import check_rule_safety
        from repro.datalog.terms import Variable
        from repro.eval.rule_eval import EvalContext, Resolver, solutions

        subgoals = parse_body(body)
        free = sorted(
            set().union(*(s.variables() for s in subgoals)) if subgoals else ()
        )
        head = Literal("$query", tuple(Variable(name) for name in free))
        query_rule = RuleNode(head, subgoals)
        check_rule_safety(query_rule)
        resolver = Resolver(self.database, self.views)
        ctx = EvalContext(resolver, unit_counts=lambda _n: True)
        seen = set()
        results: List[Dict[str, object]] = []
        for binding, count in solutions(query_rule, ctx):
            if count <= 0:
                continue
            key = tuple(binding[name] for name in free)
            if key in seen:
                continue
            seen.add(key)
            results.append({name: binding[name] for name in free})
        results.sort(key=lambda b: repr(tuple(b[name] for name in free)))
        return results

    def ask(self, body: str) -> bool:
        """Boolean query: does the conjunction have any solution?"""
        return bool(self.query(body)) if body.strip() else False

    # ----------------------------------------------------------- transactions

    def transaction(self):
        """A staging transaction: commit applies one maintenance pass."""
        from repro.core.active import Transaction

        self._require_initialized()
        return Transaction(self)

    # --------------------------------------------------------------- journal

    def attach_journal(
        self,
        journal,
        snapshot_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        """Log every successful :meth:`apply` to ``journal`` (redo log).

        Pair with a base-relation snapshot for recovery via
        :func:`repro.storage.journal.recover`.  With ``snapshot_path``
        the maintainer can :meth:`checkpoint` — write an atomic snapshot
        stamped with the journal's current sequence number (the
        *watermark*), so recovery replays only the journal suffix and
        never double-applies.  If no snapshot exists yet, one is written
        immediately (recovery must always have a base to start from).
        ``checkpoint_every=N`` auto-checkpoints after every N applied
        passes; auto-checkpoint failures are recorded in
        :attr:`checkpoint_errors` instead of failing the committed pass.

        Rule changes are not journalable: :meth:`alter` refuses while a
        journal is attached.
        """
        if checkpoint_every is not None:
            if snapshot_path is None:
                raise MaintenanceError(
                    "checkpoint_every requires snapshot_path"
                )
            if checkpoint_every < 1:
                raise MaintenanceError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
        self._journal = journal
        self._snapshot_path = snapshot_path
        self._checkpoint_every = checkpoint_every
        self._entries_since_checkpoint = 0
        self._watermark = len(journal)
        if snapshot_path is not None and not os.path.exists(snapshot_path):
            self.checkpoint()

    def detach_journal(self) -> None:
        self._journal = None
        self._snapshot_path = None
        self._checkpoint_every = None
        self._entries_since_checkpoint = 0

    @property
    def watermark(self) -> int:
        """The journal sequence number of the last committed pass."""
        return self._watermark

    def checkpoint(self) -> int:
        """Write an atomic snapshot stamped with the current watermark.

        The snapshot goes to the ``snapshot_path`` given to
        :meth:`attach_journal`, written as tmp + fsync + rename (a crash
        mid-write leaves the previous snapshot intact).  Archived journal
        segments wholly covered by the new watermark are pruned.
        Returns the watermark written.
        """
        if self._journal is None or self._snapshot_path is None:
            raise MaintenanceError(
                "checkpoint() requires attach_journal(journal, "
                "snapshot_path=...)"
            )
        watermark = len(self._journal)
        started = time.perf_counter()
        save_database(
            self.database,
            self._snapshot_path,
            watermark=watermark,
            faults=self.faults,
        )
        self._journal.prune(watermark)
        self._entries_since_checkpoint = 0
        self.metrics.counter(
            "repro_checkpoints_total", "Snapshot checkpoints written"
        ).inc()
        self.metrics.histogram(
            "repro_checkpoint_seconds",
            "Wall time of one checkpoint (snapshot write + prune)",
        ).observe(time.perf_counter() - started)
        self.tracer.event("checkpoint", watermark=watermark)
        logger.info("checkpoint written at watermark %d", watermark)
        return watermark

    def _auto_checkpoint(self) -> None:
        if self._checkpoint_every is None or self._journal is None:
            return
        self._entries_since_checkpoint += 1
        if self._entries_since_checkpoint < self._checkpoint_every:
            return
        try:
            self.checkpoint()
        except Exception as exc:
            # The pass already committed; a checkpoint failure must not
            # fail it retroactively.  Record and retry next pass.
            self.checkpoint_errors.append(exc)
            logger.warning(
                "auto-checkpoint failed (%s: %s); will retry next pass",
                type(exc).__name__, exc,
            )
            self.metrics.counter(
                "repro_checkpoint_errors_total",
                "Auto-checkpoints that failed (pass stayed committed)",
            ).inc()

    # ----------------------------------------------------------- subscriptions

    def subscribe(self, view: str, callback):
        """Register ``callback(view, delta)`` to fire when ``view`` changes.

        The active-database hookup of Section 1: callbacks receive the
        exact signed delta relation the maintenance pass computed.
        Returns a subscription handle for :meth:`unsubscribe`.
        """
        if view not in self.program.idb_predicates and view not in (
            self.program.edb_predicates
        ):
            raise UnknownRelationError(
                f"cannot subscribe to unknown relation {view}"
            )
        return self._subscriptions.subscribe(view, callback)

    def unsubscribe(self, subscription) -> None:
        self._subscriptions.unsubscribe(subscription)

    # ----------------------------------------------------------- introspection

    def explain_tuple(self, view: str, row) -> List:
        """Why is ``row`` in ``view``?  One Derivation per distinct proof.

        The number of immediate derivations equals the stored count
        under set semantics' per-stratum scheme (§5.1) — a handy
        cross-check.  See :mod:`repro.core.provenance`.
        """
        self._require_initialized()
        from repro.core.provenance import immediate_derivations

        return immediate_derivations(self, view, row)

    def explain_tree(self, view: str, row, max_depth: int = 10):
        """A full derivation tree of ``view(row)`` down to base facts."""
        self._require_initialized()
        from repro.core.provenance import derivation_tree

        return derivation_tree(self, view, row, max_depth)

    def explain(self, view: str, row, max_depth: int = 6) -> str:
        """The ``explain`` report: support tree + Theorem 4.1 count check.

        Expands *every* immediate derivation (unlike :meth:`explain_tree`,
        which picks one witness) and cross-checks the stored derivation
        count.  See :mod:`repro.obs.explain`.
        """
        self._require_initialized()
        from repro.obs.explain import explain_report

        return explain_report(self, view, row, max_depth=max_depth)

    def delta_program(self) -> str:
        """The factored delta rules (Definition 4.1) for every view.

        A debugging/teaching aid: renders the Δ-rules the counting
        algorithm conceptually evaluates, in the paper's notation —
        ``Δ:p`` for change relations, ``ν:p`` for new states.  Aggregate
        views are annotated as maintained by Algorithm 6.1.
        """
        from repro.core.delta_rules import factored_delta_rules

        lines: List[str] = []
        for rule in self.normalized.program:
            head = rule.head.predicate
            if head in self.normalized.aggregate_rules:
                lines.append(f"% {head}: GROUPBY view — Algorithm 6.1")
                lines.append(f"% source: {rule}")
                continue
            lines.append(f"% from: {rule}")
            for delta_rule in factored_delta_rules(rule):
                lines.append(str(delta_rule.rule))
        return "\n".join(lines)

    # ------------------------------------------------------------ validation

    def consistency_check(self, repair: bool = False):
        """Recompute every view from scratch and compare (test oracle).

        Raises :class:`~repro.errors.DivergenceError` (a
        :class:`~repro.errors.MaintenanceError`) on any divergence —
        under set semantics the *sets* must match; under duplicate
        semantics the full counts must match.

        With MVCC the whole check runs against a pinned snapshot, so it
        never races an in-flight pass: bases and views are both read at
        one committed epoch, recorded in :attr:`last_validated_epoch`.
        With ``repair=True`` a detected divergence triggers
        :meth:`heal` pinned to that epoch — the patch is refused
        (:class:`~repro.errors.MaintenanceError`) if a newer epoch
        landed mid-check, since the divergence evidence would then be
        stale.  Returns the
        :class:`~repro.resilience.repair.RepairReport` (``None`` when
        everything was already consistent).
        """
        self._require_initialized()
        from repro.resilience.repair import view_matches

        with ExitStack() as stack:
            if self.database.mvcc is None:
                epoch, source, read = None, self.database, self.views.get
            else:
                snap = stack.enter_context(self.database.snapshot())
                epoch, read = snap.epoch, snap.relation
                source = snap.as_database(self.database.names())
            fresh, _folded = self._rebuild_views(source)
            reader = {name: read(name) for name in fresh if name in self.views}
        self.last_validated_epoch = epoch
        for name, expected in fresh.items():
            actual = reader.get(name, CountedRelation(name))
            if not view_matches(self, actual, expected):
                if repair:
                    return self.heal(validated_epoch=epoch)
                missing = expected.as_set() - actual.as_set()
                extra = actual.as_set() - expected.as_set()
                raise DivergenceError(
                    f"view {name} diverged from recomputation"
                    + (f" at epoch {epoch}" if epoch is not None else "")
                    + f": missing={sorted(missing)[:5]} "
                    f"extra={sorted(extra)[:5]}"
                )
        return None

    def heal(self, validated_epoch: Optional[int] = None):
        """Rebuild every diverged view from the base relations.

        The self-healing counterpart of :meth:`consistency_check`:
        damaged materializations are patched in place, aggregate group
        states are rebuilt, and a
        :class:`~repro.resilience.repair.RepairReport` describes what
        changed.  Safe to call on a healthy maintainer (empty report).

        ``validated_epoch`` (threaded through by
        ``consistency_check(repair=True)``) makes the patch
        conditional: if a newer epoch has landed since the divergence
        was observed — or a pass is in flight — the repair refuses
        rather than patch live state from stale evidence; re-run the
        check.  Under MVCC the repair itself commits one epoch, so
        pinned snapshot readers never see a half-healed state.
        """
        self._require_initialized()
        from repro.resilience.repair import repair_divergence

        return repair_divergence(self, validated_epoch=validated_epoch)

    @property
    def dead_letters(self):
        """Subscriber deliveries that failed every retry (see active.py)."""
        return self._subscriptions.dead_letters
