"""The skeleton every maintenance strategy pass shares.

Counting (Algorithm 4.1), DRed (Section 7) and B/F are each one pass
that seeds the base changes and then maintains the strata bottom-up,
split into named phases.  :class:`StrategyPass` owns what they have in
common, so each strategy writes only its own steps:

* the cross-cutting plumbing — fault injector, undo log, plan cache,
  span tracer, budget meter — and its inert defaults;
* the pass envelope — the ``seed`` phase, the ``delta_derivation``
  fault point, the ``<prefix>.seed`` guard checkpoint, the pass clock;
* the one :meth:`phase` seam through which every phase is both traced
  and timed.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Optional

from repro.core.agg_maintenance import AggregateView
from repro.core.normalize import NormalizedProgram
from repro.datalog.stratify import Stratification
from repro.guard.budget import NOOP_METER
from repro.obs.trace import NOOP_SPAN, Tracer
from repro.resilience.faults import FaultInjector
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation


class StrategyPass:
    """One maintenance pass; create per changeset and call :meth:`run`.

    Subclasses set ``self.stats`` (with ``seconds`` and
    ``phase_seconds``) and implement the three hooks :meth:`run` calls:
    ``_seed``, ``_maintain`` and ``_result``.
    """

    #: Prefix of the cooperative guard checkpoints, so breach
    #: diagnostics name the strategy that tripped.
    checkpoint_prefix = ""

    def __init__(
        self,
        normalized: NormalizedProgram,
        stratification: Stratification,
        database: Database,
        views: Dict[str, CountedRelation],
        aggregate_views: Dict[str, AggregateView],
        faults: Optional[FaultInjector] = None,
        undo=None,
        plan_cache=None,
        tracer: Optional[Tracer] = None,
        guard=None,
    ) -> None:
        self.normalized = normalized
        self.strat = stratification
        self.database = database
        self.views = views
        self.aggregate_views = aggregate_views
        #: Crash-point injector; a fresh one is inert (one dict check
        #: per fault point).
        self.faults = FaultInjector() if faults is None else faults
        #: Optional UndoLog (shadow-commit rollback); inert when None.
        self.undo = undo
        #: Optional PlanCache shared across passes by the maintainer:
        #: compiled plans and rewritten delta rules are reused, not
        #: rebuilt per pass.
        self.plan_cache = plan_cache
        #: Span tracer (see repro.obs.trace); a disabled tracer's span()
        #: calls cost one method call each, nothing more.
        self.tracer = tracer if tracer is not None else Tracer()
        #: Budget meter (see repro.guard.budget); disabled checkpoints
        #: early-return, and the hottest sites skip behind
        #: ``if guard.enabled:``.
        self.guard = guard if guard is not None else NOOP_METER

    def run(self, changes: Changeset):
        """Seed the base changes, maintain the strata, return the result."""
        started = perf_counter()
        with self.phase("seed"):
            self._seed(changes)
            self.faults.fire("delta_derivation")
        self.checkpoint("seed")
        self._maintain(changes)
        self.stats.seconds = perf_counter() - started
        return self._result()

    @contextmanager
    def phase(self, name: str, **attrs: object):
        """Trace and time one phase: the seam every phase goes through.

        One clock reading feeds both the ``phase`` span and
        ``stats.phase_seconds[name]`` (summed over the pass), so a
        traced pass's phase spans add up to exactly its phase timings.
        """
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("phase", name, **attrs) as span:
                yield span
            seconds = span.seconds
        else:
            started = perf_counter()
            yield NOOP_SPAN
            seconds = perf_counter() - started
        phases = self.stats.phase_seconds
        phases[name] = phases.get(name, 0.0) + seconds

    def checkpoint(self, step: str) -> None:
        """A cooperative guard checkpoint named ``<prefix>.<step>``."""
        self.guard.checkpoint(f"{self.checkpoint_prefix}.{step}")
