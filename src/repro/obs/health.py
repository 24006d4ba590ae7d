"""Per-view health SLOs: error budgets and multi-window burn alerting.

PR 3 produced raw telemetry and PR 4 tracks staleness lag, but nothing
*interprets* those signals.  This module adds the SRE-style layer: a
declarative :class:`SLO` names an objective for one view, the
:class:`HealthEngine` scores every maintenance pass against it, and a
rolling error budget with multi-window burn-rate alerting decides when
a human (or the future O2 orchestrator) should care.

Objectives (per pass, so tests need no wall clock):

* ``freshness_lag`` — the pass is *bad* when the maintainer's staleness
  lag (changesets admitted but not applied) exceeds ``target``;
* ``pass_duration_p99`` — bad when the pass took longer than ``target``
  seconds (with the default ``compliance=0.99`` this encodes "p99 of
  passes under target");
* ``error_rate`` — bad when the pass degraded (quarantined, skipped, or
  rerouted to the recompute fallback).

The classic 5m/1h burn-rate windows are scaled to *pass counts*
(``fast_window`` / ``slow_window``): an alert **fires** when both
windows burn faster than ``burn_threshold`` times the budget, and
**clears** once the fast window drops back under the threshold.  Alerts
flow to pluggable sinks (:class:`LogAlertSink`, :class:`JsonlAlertSink`,
:class:`CallbackAlertSink`) and everything is mirrored into the metrics
registry as the ``repro_slo_*`` family.

The SLO spec is data, not code — :func:`load_slos` accepts dicts, a
list, a ``{"slos": [...]}`` document, or a JSON string, so specs can
live in config files the orchestrator reads.

Disabled-by-default discipline: a maintainer without a health engine
pays one ``is None`` check per pass.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Dict, IO, Iterable, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, get_default_registry

logger = logging.getLogger(__name__)

__all__ = [
    "OBJECTIVES",
    "SLO",
    "HealthEngine",
    "LogAlertSink",
    "JsonlAlertSink",
    "CallbackAlertSink",
    "load_slos",
]

#: The objective kinds an SLO may declare.
OBJECTIVES = ("freshness_lag", "pass_duration_p99", "error_rate")

#: Report strategies that count as degraded service for ``error_rate``.
_DEGRADED_STRATEGIES = frozenset({"quarantined", "skipped", "recompute"})


@dataclass(frozen=True)
class SLO:
    """One declarative objective for one view.

    ``compliance`` is the good-pass fraction the objective promises
    (0.99 = "99% of passes meet the target"); the error budget is the
    complement.  Windows are measured in passes, not wall-clock, so the
    engine is deterministic under test.
    """

    view: str
    objective: str
    target: float
    compliance: float = 0.99
    fast_window: int = 5
    slow_window: int = 25
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"pick one of {OBJECTIVES}"
            )
        if not 0.0 < self.compliance < 1.0:
            raise ValueError(
                f"compliance must be in (0, 1), got {self.compliance}"
            )
        if self.fast_window < 1 or self.slow_window < 1:
            raise ValueError("windows must be >= 1 pass")
        if self.fast_window > self.slow_window:
            raise ValueError(
                f"fast_window ({self.fast_window}) must not exceed "
                f"slow_window ({self.slow_window})"
            )
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be > 0")
        if self.target < 0:
            raise ValueError("target must be >= 0")

    @property
    def budget(self) -> float:
        """The error budget: the bad-pass fraction the SLO tolerates."""
        return 1.0 - self.compliance

    def to_dict(self) -> Dict[str, object]:
        return {
            "view": self.view,
            "objective": self.objective,
            "target": self.target,
            "compliance": self.compliance,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "burn_threshold": self.burn_threshold,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SLO":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SLO keys {sorted(unknown)}; known: {sorted(known)}"
            )
        missing = {"view", "objective", "target"} - set(data)
        if missing:
            raise ValueError(f"SLO spec missing keys {sorted(missing)}")
        return cls(**data)  # type: ignore[arg-type]


def load_slos(spec: object) -> List[SLO]:
    """Parse an SLO spec: JSON text, a list of dicts, or ``{"slos": []}``.

    This is the config-file entry point (``cli --slo PATH``); the spec
    is data so the orchestrator can own it without importing code.
    """
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    if isinstance(spec, dict):
        spec = spec.get("slos", spec)
    if not isinstance(spec, list):
        raise ValueError(
            "SLO spec must be a list of objects "
            '(or {"slos": [...]}), got ' + type(spec).__name__
        )
    return [
        slo if isinstance(slo, SLO) else SLO.from_dict(slo) for slo in spec
    ]


# --------------------------------------------------------------------------
# Alert sinks (duck-typed: anything with .emit(alert_dict))

class LogAlertSink:
    """Writes each alert to the structured log (WARNING on fire)."""

    def emit(self, alert: Dict[str, object]) -> None:
        level = (
            logging.WARNING if alert.get("event") == "fire"
            else logging.INFO
        )
        logger.log(
            level, "slo %s", json.dumps(alert, sort_keys=True, default=str)
        )

    def close(self) -> None:
        pass


class JsonlAlertSink:
    """Appends one JSON line per alert (tail it, or feed a pager)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = None

    def emit(self, alert: Dict[str, object]) -> None:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps(alert, separators=(",", ":"), default=str) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None


class CallbackAlertSink:
    """Hands each alert dict to a callable (tests, orchestrator hooks)."""

    def __init__(self, callback: Callable[[Dict[str, object]], None]) -> None:
        self.callback = callback

    def emit(self, alert: Dict[str, object]) -> None:
        self.callback(alert)

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# Engine

class _SLOState:
    """Rolling evaluation state for one SLO."""

    __slots__ = ("slo", "history", "alerting", "bad_total", "last_value")

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        # True = good pass; bounded by the slow window.
        self.history: deque = deque(maxlen=slo.slow_window)
        self.alerting = False
        self.bad_total = 0
        self.last_value = 0.0

    def record(self, good: bool, value: float) -> None:
        self.history.append(good)
        self.last_value = value
        if not good:
            self.bad_total += 1

    def _window(self, size: int) -> List[bool]:
        return list(self.history)[-size:]

    def burn_rate(self, size: int) -> float:
        """Bad fraction over the last ``size`` passes, per unit budget.

        1.0 means the budget is being consumed exactly as provisioned;
        ``burn_threshold`` (default 2.0) means twice as fast.
        """
        window = self._window(size)
        if not window:
            return 0.0
        bad = sum(1 for good in window if not good)
        return (bad / len(window)) / self.slo.budget

    def good_fraction(self) -> float:
        if not self.history:
            return 1.0
        return sum(1 for good in self.history if good) / len(self.history)

    def budget_remaining(self) -> float:
        """Fraction of the slow-window error budget still unspent."""
        window = list(self.history)
        if not window:
            return 1.0
        allowed = self.slo.budget * len(window)
        used = sum(1 for good in window if not good)
        if allowed <= 0:
            return 0.0 if used else 1.0
        return max(0.0, min(1.0, 1.0 - used / allowed))

    def to_dict(self) -> Dict[str, object]:
        out = self.slo.to_dict()
        out.update(
            observed_passes=len(self.history),
            good_fraction=self.good_fraction(),
            burn_rate_fast=self.burn_rate(self.slo.fast_window),
            burn_rate_slow=self.burn_rate(self.slo.slow_window),
            budget_remaining=self.budget_remaining(),
            alerting=self.alerting,
            last_value=self.last_value,
            bad_total=self.bad_total,
        )
        return out


class HealthEngine:
    """Scores every maintenance pass against the declared SLOs.

    Attach to a :class:`~repro.core.maintenance.ViewMaintainer` (the
    ``health=`` constructor argument or ``attach_health()``); the
    maintainer calls :meth:`observe_pass` from its pass-completion hook
    — committed, quarantined, and skipped passes alike, since the
    degraded ones are exactly what ``freshness_lag``/``error_rate``
    exist to notice.
    """

    def __init__(
        self,
        slos: Iterable[SLO],
        metrics: Optional[MetricsRegistry] = None,
        sinks: Sequence[object] = (),
    ) -> None:
        self.metrics = metrics if metrics is not None else (
            get_default_registry()
        )
        self.sinks: List[object] = list(sinks)
        self._states: Dict[tuple, _SLOState] = {}
        for slo in load_slos(list(slos)):
            key = (slo.view, slo.objective)
            if key in self._states:
                raise ValueError(
                    f"duplicate SLO for view {slo.view!r} "
                    f"objective {slo.objective!r}"
                )
            self._states[key] = _SLOState(slo)
        self.passes_evaluated = 0
        self.alerts_fired = 0
        self.alerts_cleared = 0
        #: Alerts swallowed because a sink raised (never the pass's
        #: problem); ``_broken_sinks`` keeps the once-per-sink log quiet.
        self.alerts_dropped = 0
        self._broken_sinks: set = set()

    @property
    def slos(self) -> List[SLO]:
        return [state.slo for state in self._states.values()]

    def alerts_active(self) -> int:
        return sum(1 for state in self._states.values() if state.alerting)

    # ----------------------------------------------------------- scoring

    @staticmethod
    def _measure(slo: SLO, report, lag_changesets: int) -> float:
        if slo.objective == "freshness_lag":
            return float(lag_changesets)
        if slo.objective == "pass_duration_p99":
            return float(report.seconds)
        # error_rate: 1.0 when the pass degraded, else 0.0.
        return 1.0 if report.strategy in _DEGRADED_STRATEGIES else 0.0

    def observe_pass(self, maintainer, report) -> List[Dict[str, object]]:
        """Score one finished pass; returns any alerts it produced."""
        self.passes_evaluated += 1
        lag = int(maintainer.lag()["changesets"])
        alerts: List[Dict[str, object]] = []
        for state in self._states.values():
            slo = state.slo
            value = self._measure(slo, report, lag)
            state.record(value <= slo.target, value)
            alert = self._evaluate_alert(state, value)
            if alert is not None:
                alerts.append(alert)
            self._record_metrics(state)
        self.metrics.gauge(
            "repro_slo_alerts_active",
            "SLOs currently in the alerting state.",
        ).set(self.alerts_active())
        return alerts

    def _evaluate_alert(
        self, state: _SLOState, value: float
    ) -> Optional[Dict[str, object]]:
        slo = state.slo
        fast = state.burn_rate(slo.fast_window)
        slow = state.burn_rate(slo.slow_window)
        if not state.alerting:
            # Multi-window fire condition: both the fast and the slow
            # window must burn hot, and the fast window must be full —
            # a single bad first pass is signal, not an incident.
            if (
                len(state.history) >= slo.fast_window
                and fast >= slo.burn_threshold
                and slow >= slo.burn_threshold
            ):
                state.alerting = True
                return self._emit_alert("fire", state, value, fast, slow)
            return None
        if fast < slo.burn_threshold:
            state.alerting = False
            return self._emit_alert("clear", state, value, fast, slow)
        return None

    def _emit_alert(
        self,
        event: str,
        state: _SLOState,
        value: float,
        fast: float,
        slow: float,
    ) -> Dict[str, object]:
        slo = state.slo
        alert: Dict[str, object] = {
            "event": event,
            "view": slo.view,
            "objective": slo.objective,
            "target": slo.target,
            "value": value,
            "window": {"fast": slo.fast_window, "slow": slo.slow_window},
            "burn_rate": {"fast": fast, "slow": slow},
            "threshold": slo.burn_threshold,
            "budget_remaining": state.budget_remaining(),
            "pass_index": self.passes_evaluated,
        }
        if event == "fire":
            self.alerts_fired += 1
        else:
            self.alerts_cleared += 1
        self.metrics.counter(
            "repro_slo_alerts_total",
            "Burn-rate alerts emitted, by view/objective/event.",
            ("view", "objective", "event"),
        ).inc(view=slo.view, objective=slo.objective, event=event)
        for sink in self.sinks:
            self._dispatch(sink, alert)
        return alert

    def _dispatch(self, sink: object, alert: Dict[str, object]) -> None:
        """Hand ``alert`` to one sink, isolated.

        A user-supplied sink that raises (a closed file, a paging
        webhook timing out, a buggy callback) must never abort the
        maintenance pass that produced the alert — the pass already
        committed, and alerting is strictly an observer.  The drop is
        counted (``repro_alerts_dropped_total``) and logged once per
        sink so a persistently broken sink can't flood the log.
        """
        try:
            sink.emit(alert)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            self.alerts_dropped += 1
            self.metrics.counter(
                "repro_alerts_dropped_total",
                "SLO alerts dropped because an alert sink raised.",
                labels=("sink",),
            ).inc(sink=type(sink).__name__)
            if id(sink) not in self._broken_sinks:
                self._broken_sinks.add(id(sink))
                logger.warning(
                    "alert sink %s raised (%s: %s); alerts to it will be "
                    "dropped silently from now on (counted in "
                    "repro_alerts_dropped_total)",
                    type(sink).__name__, type(exc).__name__, exc,
                )

    def _record_metrics(self, state: _SLOState) -> None:
        slo = state.slo
        labels = {"view": slo.view, "objective": slo.objective}
        self.metrics.gauge(
            "repro_slo_compliance",
            "Good-pass fraction over the slow window.",
            ("view", "objective"),
        ).set(state.good_fraction(), **labels)
        self.metrics.gauge(
            "repro_slo_error_budget_remaining",
            "Unspent fraction of the slow-window error budget.",
            ("view", "objective"),
        ).set(state.budget_remaining(), **labels)
        burn = self.metrics.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate (1.0 = budget pace).",
            ("view", "objective", "window"),
        )
        burn.set(state.burn_rate(slo.fast_window), window="fast", **labels)
        burn.set(state.burn_rate(slo.slow_window), window="slow", **labels)

    # ----------------------------------------------------------- export

    def to_dict(self) -> Dict[str, object]:
        """The ``status --json`` health.slo block."""
        return {
            "enabled": True,
            "passes_evaluated": self.passes_evaluated,
            "alerts_active": self.alerts_active(),
            "alerts_fired": self.alerts_fired,
            "alerts_cleared": self.alerts_cleared,
            "alerts_dropped": self.alerts_dropped,
            "slos": [state.to_dict() for state in self._states.values()],
        }

    def states(self) -> List[Dict[str, object]]:
        """Per-SLO rolling state (the dashboard's data source)."""
        return [state.to_dict() for state in self._states.values()]

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
