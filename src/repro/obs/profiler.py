"""Continuous pass profiler: rolling quantiles per (view, strategy, phase).

The tracer (PR 3) answers "what happened in *that* pass"; this module
answers "where does time go *in general*" — the latency-attribution
question [HMH18] studies across counting/DRed/bf, readable off a live
maintainer.  Every finished pass feeds one sample per phase into a
bounded ring (``window`` samples per key), from which exact p50/p95/p99
are computed on demand — no wall-clock sampling thread, no signal
handlers, just the per-phase timings the engines already measure.

Keys are ``(view, strategy, phase)``; the pseudo-view ``"*"``
aggregates across views and the pseudo-phase ``"total"`` is the whole
pass.  Each key tracks a **span exemplar** — the span id of the worst
recent pass — so a fat tail in the profile links straight to a concrete
trace in the ring sink (``repro profile`` renders it).

Disabled-by-default discipline: an unattached maintainer pays one
``is None`` check per pass (enabled, it is part of the ``tax.obs_ms``
row in ``benchmarks/e2e/README.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

__all__ = ["ContinuousProfiler", "render_profile"]

#: Aggregate pseudo-view / whole-pass pseudo-phase.
ALL_VIEWS = "*"
TOTAL_PHASE = "total"


def _quantile(ordered: List[float], q: float) -> float:
    """Exact quantile of a sorted sample (linear interpolation)."""
    if not ordered:
        raise ValueError("quantile of empty sample")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


class _PhaseProfile:
    """Rolling samples for one (view, strategy, phase) key."""

    __slots__ = (
        "samples", "count", "total_seconds", "tuples",
        "worst_seconds", "worst_span_id",
    )

    def __init__(self, window: int) -> None:
        self.samples: deque = deque(maxlen=window)
        self.count = 0
        self.total_seconds = 0.0
        self.tuples = 0
        self.worst_seconds = -1.0
        self.worst_span_id: Optional[int] = None

    def record(
        self, seconds: float, tuples: int, span_id: Optional[int]
    ) -> None:
        self.samples.append(seconds)
        self.count += 1
        self.total_seconds += seconds
        self.tuples += tuples
        if span_id is not None and seconds > self.worst_seconds:
            self.worst_seconds = seconds
            self.worst_span_id = span_id

    def to_dict(
        self, view: str, strategy: str, phase: str
    ) -> Dict[str, object]:
        ordered = sorted(self.samples)
        exemplar = None
        if self.worst_span_id is not None:
            exemplar = {
                "span_id": self.worst_span_id,
                "seconds": self.worst_seconds,
            }
        return {
            "view": view,
            "strategy": strategy,
            "phase": phase,
            "count": self.count,
            "p50": _quantile(ordered, 0.50),
            "p95": _quantile(ordered, 0.95),
            "p99": _quantile(ordered, 0.99),
            "total_seconds": self.total_seconds,
            "max_seconds": max(self.worst_seconds, ordered[-1]),
            "tuples": self.tuples,
            "tuples_per_second": (
                self.tuples / self.total_seconds
                if self.total_seconds > 0
                else 0.0
            ),
            "exemplar": exemplar,
        }


class ContinuousProfiler:
    """Accumulates per-pass phase timings into rolling quantiles.

    Attach to a maintainer (``profiler=`` constructor argument or
    ``enable_profiler()``); the pass-completion hook calls
    :meth:`observe_pass` with each :class:`MaintenanceReport`.
    """

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.passes = 0
        self._profiles: Dict[Tuple[str, str, str], _PhaseProfile] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def _profile(self, key: Tuple[str, str, str]) -> _PhaseProfile:
        found = self._profiles.get(key)
        if found is None:
            found = _PhaseProfile(self.window)
            self._profiles[key] = found
        return found

    def observe_pass(self, report) -> None:
        """Fold one finished pass into the rolling profiles.

        Degraded zero-work passes (quarantined/skipped) carry no engine
        timings and are not profiled — they are the health engine's
        business, not a latency sample.
        """
        if report.seconds <= 0.0 and not report.view_deltas:
            return
        self.passes += 1
        strategy = report.strategy
        span_id = getattr(report, "span_id", None)
        phases: Dict[str, float] = {TOTAL_PHASE: report.seconds}
        inner = report.engine_stats()
        if inner is not None:
            phases.update(inner.phase_seconds)
        tuples = report.total_changes()
        views = report.changed_views()
        for view in views + [ALL_VIEWS]:
            for phase, seconds in phases.items():
                # Tuple throughput only makes sense for the whole pass;
                # per-phase tuple counts aren't attributed.
                phase_tuples = tuples if phase == TOTAL_PHASE else 0
                self._profile((view, strategy, phase)).record(
                    seconds, phase_tuples, span_id
                )

    # ----------------------------------------------------------- export

    def report(self, view: Optional[str] = None) -> Dict[str, object]:
        """A JSON-ready profile document (``validate_profile_report``)."""
        profiles = [
            profile.to_dict(*key)
            for key, profile in self._profiles.items()
            if view is None or key[0] == view
        ]
        profiles.sort(
            key=lambda entry: (-entry["total_seconds"], entry["view"],
                               entry["strategy"], entry["phase"])
        )
        return {
            "schema_version": 1,
            "window": self.window,
            "passes": self.passes,
            "profiles": profiles,
        }

    def summary(self) -> Dict[str, object]:
        """The compact ``status --json`` health.profiler block."""
        return {
            "enabled": True,
            "passes": self.passes,
            "keys": len(self._profiles),
            "window": self.window,
        }

    def worst_exemplar(self) -> Optional[int]:
        """The span id of the slowest profiled pass, if any."""
        worst = None
        worst_seconds = -1.0
        for profile in self._profiles.values():
            if (
                profile.worst_span_id is not None
                and profile.worst_seconds > worst_seconds
            ):
                worst = profile.worst_span_id
                worst_seconds = profile.worst_seconds
        return worst


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 0.001:
        return f"{seconds * 1e3:8.3f}ms"
    return f"{seconds * 1e6:8.1f}µs"


def render_profile(
    profiler: ContinuousProfiler,
    view: Optional[str] = None,
    ring_events: Optional[List[dict]] = None,
    limit: int = 30,
) -> str:
    """The flame-style text report behind ``repro profile [view]``.

    A bar-chart table of the hottest (view, strategy, phase) keys by
    cumulative time, and — when the ring sink's events are supplied —
    the reconstructed span tree of the worst exemplar pass, so the fat
    tail is one command away from its concrete trace.
    """
    document = profiler.report(view)
    profiles = document["profiles"][:limit]
    if not profiles:
        return "profile: no passes recorded" + (
            f" for view {view!r}" if view else ""
        )
    lines = [
        f"profile — {document['passes']} passes, "
        f"window {document['window']}, "
        f"{len(document['profiles'])} keys"
        + (f", view={view}" if view else ""),
        f"{'view':<12} {'strategy':<10} {'phase':<12} {'n':>5} "
        f"{'p50':>10} {'p95':>10} {'p99':>10} {'total':>10}  share",
    ]
    top_total = max(entry["total_seconds"] for entry in profiles) or 1.0
    for entry in profiles:
        bar = "█" * max(
            1, int(round(16 * entry["total_seconds"] / top_total))
        )
        exemplar = entry["exemplar"]
        mark = f" ⚑{exemplar['span_id']}" if exemplar else ""
        lines.append(
            f"{entry['view']:<12.12} {entry['strategy']:<10.10} "
            f"{entry['phase']:<12.12} {entry['count']:>5} "
            f"{_format_seconds(entry['p50'])} "
            f"{_format_seconds(entry['p95'])} "
            f"{_format_seconds(entry['p99'])} "
            f"{_format_seconds(entry['total_seconds'])}  {bar}{mark}"
        )
    if ring_events:
        exemplar_id = profiler.worst_exemplar()
        tree = _exemplar_tree(ring_events, exemplar_id)
        if tree is not None:
            from repro.obs.explain import render_pass

            lines.append("")
            lines.append(f"worst exemplar (span {exemplar_id}):")
            lines.append(render_pass(tree))
    return "\n".join(lines)


def _exemplar_tree(
    events: List[dict], span_id: Optional[int]
) -> Optional[dict]:
    """Rebuild the pass tree whose root is ``span_id``, if still ringed."""
    if span_id is None:
        return None
    from repro.obs.explain import pass_tree

    passes = [
        event for event in events
        if event.get("kind") == "pass"
    ]
    for index, event in enumerate(passes):
        if event.get("id") == span_id:
            return pass_tree(events, index)
    return None
