"""repro.obs — maintenance telemetry: tracing, metrics, logging, explain.

The observability layer of the engine, zero-dependency and inert until
switched on:

* :mod:`repro.obs.trace` — span tracer (pass → stratum → phase → rule)
  with ring-buffer / JSONL / no-op sinks;
* :mod:`repro.obs.metrics` — counter/gauge/histogram registry with
  Prometheus text exposition, estimated quantiles, JSON snapshots, and
  a label-cardinality guard;
* :mod:`repro.obs.logconfig` — one-call logging setup for every
  ``repro`` module logger (text or JSON lines);
* :mod:`repro.obs.explain` — support trees for view tuples and
  flame-style replays of traced passes;
* :mod:`repro.obs.health` — per-view SLOs with rolling error budgets
  and multi-window burn-rate alerting;
* :mod:`repro.obs.profiler` — continuous pass profiler: rolling
  p50/p95/p99 per (view, strategy, phase) with span exemplars;
* :mod:`repro.obs.top` — the ``repro top`` ANSI dashboard renderer;
* :mod:`repro.obs.schema` — validators for the JSONL trace schema, the
  Prometheus exposition format, ``status --json``, and profiler
  reports (shared by the tests and any caller checking a document).

See ``docs/observability.md`` for the metric catalog and a walkthrough.
"""

from repro.obs.explain import (
    explain_report,
    pass_tree,
    render_pass,
    render_support,
    rule_totals,
    support_tree,
)
from repro.obs.health import (
    SLO,
    CallbackAlertSink,
    HealthEngine,
    JsonlAlertSink,
    LogAlertSink,
    load_slos,
)
from repro.obs.logconfig import JsonLogFormatter, configure_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.obs.profiler import ContinuousProfiler, render_profile
from repro.obs.schema import (
    span_tree_paths,
    validate_profile_report,
    validate_prometheus,
    validate_status,
    validate_trace_events,
    validate_trace_jsonl,
)
from repro.obs.top import top_frame
from repro.obs.trace import (
    JsonlSink,
    NullSink,
    RingSink,
    Span,
    TeeSink,
    Tracer,
)

__all__ = [
    "CallbackAlertSink",
    "ContinuousProfiler",
    "Counter",
    "Gauge",
    "HealthEngine",
    "Histogram",
    "JsonLogFormatter",
    "JsonlAlertSink",
    "JsonlSink",
    "LogAlertSink",
    "MetricsRegistry",
    "NullSink",
    "RingSink",
    "SLO",
    "Span",
    "TeeSink",
    "Tracer",
    "configure_logging",
    "explain_report",
    "get_default_registry",
    "load_slos",
    "pass_tree",
    "render_pass",
    "render_profile",
    "render_support",
    "rule_totals",
    "set_default_registry",
    "span_tree_paths",
    "support_tree",
    "top_frame",
    "validate_profile_report",
    "validate_prometheus",
    "validate_status",
    "validate_trace_events",
    "validate_trace_jsonl",
]
