"""Deterministic fault injection at named maintenance phases.

The durability contract of :mod:`repro.core.maintenance` — *any*
exception mid-pass leaves the maintainer state byte-identical to the
pre-pass state — is only worth claiming if it can be proven at every
crash point.  A :class:`FaultInjector` is the proof harness: tests arm a
named phase and the engine raises :class:`InjectedFault` exactly when
execution reaches it, simulating a crash at that point.

Every :class:`~repro.core.maintenance.ViewMaintainer` owns an injector
(inert unless armed, a dict lookup per phase).  The phases:

========================  =====================================================
``delta_derivation``      after the base deltas are seeded / the base relations
                          are updated, before view deltas are derived
``aggregate_merge``       after an aggregate view's group states were updated
``count_merge``           mid-install: base relations updated, stored view
                          counts not yet (counting), or between the DRed /
                          B/F insertion step and the stratum's finalization
``rederivation``          after DRed pruned the deletion overestimate, before
                          rederiving survivors
``backward_check``        once per wave, after B/F's ``forward`` step found
                          deletion candidates (and the ``bf.wave``
                          checkpoint), before the ``backward`` search
                          verifies them
``forward_delete``        after B/F removed a wave's confirmed deletions
                          from the view, before the ``bf.delete``
                          checkpoint and the next wave
``journal_append``        after the pass computed, before the redo-log append
                          (fires once per retry attempt when journal retries
                          are configured)
``snapshot_write``        after the checkpoint temp file is written, before it
                          atomically replaces the snapshot
``budget_check``          inside every guard checkpoint of an *enabled*
                          :class:`~repro.guard.BudgetMeter`, before the limits
                          are evaluated
``admission``             at ``apply()`` entry, before admission control
                          validates the changeset
``quarantine_append``     before a rejected changeset is written to the
                          dead-letter queue
``fallback_recompute``    mid-fallback: base relations updated, views not yet
                          rematerialized
========================  =====================================================
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.obs.metrics import get_default_registry

logger = logging.getLogger(__name__)

#: Every phase a FaultInjector can be armed at.
PHASES = (
    "delta_derivation",
    "aggregate_merge",
    "count_merge",
    "rederivation",
    "backward_check",
    "forward_delete",
    "journal_append",
    "snapshot_write",
    "budget_check",
    "admission",
    "quarantine_append",
    "fallback_recompute",
)


class InjectedFault(ReproError):
    """The simulated crash raised by an armed :class:`FaultInjector`."""


class FaultInjector:
    """Raises deterministically when execution reaches an armed phase.

    ``arm(phase, at=k)`` schedules a fault on the *k*-th time the engine
    reaches ``phase``; the plan is one-shot (it disarms when it fires),
    so recovery and retry flows run clean without re-arming.

    Intermittent modes exercise retry/backoff paths deterministically:

    * ``arm(phase, first_k=k)`` fires on each of the first *k* arrivals,
      then disarms — "transient" failures that a bounded retry outlives.
    * ``arm(phase, every_n=n)`` fires on every *n*-th arrival and stays
      armed — a persistent intermittent failure (``every_n=1`` fails
      every single attempt, exhausting any retry budget).
    """

    def __init__(self) -> None:
        self._plans: Dict[str, dict] = {}
        #: Phases that actually fired, in order (test introspection).
        self.fired: List[str] = []

    def arm(
        self,
        phase: str,
        at: int = 1,
        exception: Optional[BaseException] = None,
        every_n: Optional[int] = None,
        first_k: Optional[int] = None,
    ) -> "FaultInjector":
        """Schedule a fault on the ``at``-th arrival at ``phase``."""
        if phase not in PHASES:
            raise ValueError(
                f"unknown fault phase {phase!r}; choose from {PHASES}"
            )
        if at < 1:
            raise ValueError(f"arm(at=...) must be >= 1, got {at}")
        if every_n is not None and first_k is not None:
            raise ValueError("arm() takes every_n or first_k, not both")
        if every_n is not None and every_n < 1:
            raise ValueError(f"arm(every_n=...) must be >= 1, got {every_n}")
        if first_k is not None and first_k < 1:
            raise ValueError(f"arm(first_k=...) must be >= 1, got {first_k}")
        self._plans[phase] = {
            "countdown": at,
            "exception": exception,
            "every_n": every_n,
            "first_k": first_k,
            "arrivals": 0,
        }
        return self

    def disarm(self, phase: Optional[str] = None) -> None:
        """Cancel one armed phase, or all of them."""
        if phase is None:
            self._plans.clear()
        else:
            self._plans.pop(phase, None)

    def armed(self, phase: str) -> bool:
        return phase in self._plans

    def fire(self, phase: str) -> None:
        """Called by the engine when execution reaches ``phase``."""
        if not self._plans:
            return
        plan = self._plans.get(phase)
        if plan is None:
            return
        if plan["every_n"] is not None:
            plan["arrivals"] += 1
            if plan["arrivals"] % plan["every_n"]:
                return
            # Persistent intermittent plan: stays armed after firing.
        elif plan["first_k"] is not None:
            plan["arrivals"] += 1
            if plan["arrivals"] > plan["first_k"]:
                del self._plans[phase]
                return
            if plan["arrivals"] == plan["first_k"]:
                del self._plans[phase]
        else:
            plan["countdown"] -= 1
            if plan["countdown"] > 0:
                return
            del self._plans[phase]
        self.fired.append(phase)
        logger.warning("fault injected at phase %r", phase)
        get_default_registry().counter(
            "repro_faults_injected_total",
            "Faults fired by the injection harness.",
            labels=("phase",),
        ).inc(phase=phase)
        exception = plan["exception"]
        if exception is None:
            exception = InjectedFault(f"injected fault at phase {phase!r}")
        raise exception
