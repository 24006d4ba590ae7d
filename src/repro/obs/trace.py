"""Span tracer for maintenance passes: pass → stratum → phase → rule.

The counting algorithm (Algorithm 4.1), DRed (Section 7) and B/F are
all phase- and stratum-structured, so their execution maps naturally
onto a span tree:

* ``pass`` — one :meth:`ViewMaintainer.apply` call;
* ``stratum`` — one stratum of the stratification, bottom-up;
* ``phase`` — ``seed`` once per pass, directly under ``pass``; then
  per stratum ``propagate`` (counting, with one pass-level ``apply``
  after the strata), ``overestimate`` / ``rederive`` / ``insert``
  (DRed), or per wave ``forward`` (collect) / ``backward`` (verify) /
  ``forward`` (delete), then ``insert`` (B/F).  Every phase span comes
  from :meth:`repro.core.strategy_pass.StrategyPass.phase`, which also
  times ``phase_seconds`` (the table in ``docs/algorithms.md`` places
  each phase's fault points and guard checkpoints);
* ``rule`` — one rule's delta evaluation, carrying tuples in/out,
  variant counts, plan-cache hits/misses, and index probes;
* ``event`` — an instant marker (fault fired, dead letter, rollback,
  subscriber retry, heal).

Spans flow to a pluggable **sink**:

* :class:`NullSink` — discards everything;
* :class:`RingSink` — a bounded in-memory buffer (`cli trace` tails it);
* :class:`JsonlSink` — an append-only JSONL event log;
* :class:`TeeSink` — fan-out to several sinks.

A tracer constructed with no sink is *disabled*: every ``span()`` call
returns a shared no-op span without touching the clock, so leaving the
instrumentation hooks in hot paths is free.  ``Tracer(NullSink())`` by
contrast is *enabled-but-discarding* — the full span machinery runs and
the sink drops the events.  What tracing costs enabled is the
``tax.obs_ms`` row of the tax table in ``benchmarks/e2e/README.md``.

Event schema (one JSON object per span/event)::

    {"ts": <epoch seconds>, "kind": "pass|stratum|phase|rule|event",
     "name": str, "id": int, "parent": int|null,
     "seconds": float, "attrs": {...}}

Parent ids link children to enclosing spans; spans are emitted on
*close*, so children precede their parents in the log (the tree is
reconstructed from the ids, see :mod:`repro.obs.explain`).
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Dict, IO, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullSink",
    "RingSink",
    "JsonlSink",
    "TeeSink",
    "SPAN_KINDS",
]

#: Every span kind a tracer emits.
SPAN_KINDS = ("pass", "stratum", "phase", "rule", "event")


class NullSink:
    """Discards every event (the tracing-off sink)."""

    def emit(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


class RingSink:
    """Keeps the most recent ``capacity`` events in memory.

    Once the ring wraps, the oldest events are gone for good;
    ``dropped`` counts them and ``truncated`` flags the loss so readers
    (``cli trace tail``) can say so instead of presenting the tail as
    the whole history.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.dropped = 0

    @property
    def truncated(self) -> bool:
        """True when the ring has wrapped and evicted old events."""
        return self.dropped > 0

    def emit(self, event: dict) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def tail(self, count: int = 10) -> List[dict]:
        """The last ``count`` events, oldest first."""
        if count <= 0:
            return []
        return list(self.events)[-count:]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Appends one JSON line per event to a log file.

    Lines are flushed per event (the log is meant to be tailed live);
    durability is the journal's business, not the trace's, so there is
    no fsync.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = None

    def emit(self, event: dict) -> None:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class TeeSink:
    """Fan-out: every event goes to each of the wrapped sinks."""

    def __init__(self, sinks: Iterable) -> None:
        self.sinks = list(sinks)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class Span:
    """One timed span; a context manager that reports itself on exit."""

    __slots__ = (
        "tracer", "kind", "name", "span_id", "parent_id",
        "started_at", "_perf_start", "seconds", "attrs",
    )

    def __init__(
        self, tracer: "Tracer", kind: str, name: str, attrs: Dict[str, object]
    ) -> None:
        self.tracer = tracer
        self.kind = kind
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id: Optional[int] = None
        self.started_at = 0.0
        self._perf_start = 0.0
        self.seconds = 0.0
        self.attrs = attrs

    def set(self, **attrs: object) -> "Span":
        """Attach attributes (tuples in/out, hits, probes …)."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float = 1) -> "Span":
        """Increment a numeric attribute."""
        self.attrs[key] = self.attrs.get(key, 0) + amount
        return self

    def __enter__(self) -> "Span":
        stack = self.tracer._stack
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.started_at = time.time()
        self._perf_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.seconds = time.perf_counter() - self._perf_start
        stack = self.tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer.sink.emit(self.to_event())

    def to_event(self) -> dict:
        return {
            "ts": self.started_at,
            "kind": self.kind,
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "seconds": self.seconds,
            "attrs": self.attrs,
        }


class _NoopSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def set(self, **_attrs: object) -> "_NoopSpan":
        return self

    def add(self, _key: str, _amount: float = 1) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Builds the span tree and forwards closed spans to the sink.

    ``Tracer()`` is disabled: ``span()`` returns a shared no-op object
    and nothing ever reaches a sink.  ``Tracer(sink)`` is enabled, even
    for a :class:`NullSink` — that configuration exists so the cost of
    the full span machinery can be measured against the disabled fast
    path.
    """

    __slots__ = ("sink", "enabled", "_stack", "_id")

    def __init__(self, sink=None, enabled: Optional[bool] = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.enabled = bool(enabled) if enabled is not None else (
            sink is not None
        )
        self._stack: List[int] = []
        self._id = 0

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def span(self, kind: str, name: str, **attrs: object):
        """Open a span; use as a context manager around the timed work."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, kind, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Emit an instant (zero-duration) event under the current span."""
        if not self.enabled:
            return
        self.sink.emit(
            {
                "ts": time.time(),
                "kind": "event",
                "name": name,
                "id": self._next_id(),
                "parent": self._stack[-1] if self._stack else None,
                "seconds": 0.0,
                "attrs": attrs,
            }
        )

    def close(self) -> None:
        self.sink.close()
