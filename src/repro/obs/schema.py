"""Validators for the telemetry wire formats.

Shared by the test suite and callers: one validator for the
JSONL trace-event schema (:mod:`repro.obs.trace`), one for Prometheus
text exposition output (:meth:`repro.obs.metrics.MetricsRegistry.to_prometheus`).
Each returns a list of problem strings — empty means valid — so callers
can assert emptiness and print every violation at once.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional

from repro.obs.trace import SPAN_KINDS

__all__ = [
    "validate_trace_events",
    "validate_trace_jsonl",
    "validate_prometheus",
    "validate_status",
    "validate_profile_report",
    "validate_orchestrator",
    "span_tree_paths",
]

_REQUIRED_KEYS = {
    "ts": (int, float),
    "kind": str,
    "name": str,
    "id": int,
    "seconds": (int, float),
    "attrs": dict,
}

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SAMPLE_LINE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(\s+(?P<timestamp>-?\d+))?\s*\Z"
)
_LABEL_PAIR = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(\\.|[^"\\])*)"\s*'
)


def validate_trace_events(events: Iterable[dict]) -> List[str]:
    """Structural problems in a sequence of trace event dicts."""
    problems: List[str] = []
    seen_ids: Dict[int, dict] = {}
    events = list(events)
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        for key, types in _REQUIRED_KEYS.items():
            if key not in event:
                problems.append(f"event {index}: missing key {key!r}")
            elif not isinstance(event[key], types):
                problems.append(
                    f"event {index}: key {key!r} has type "
                    f"{type(event[key]).__name__}"
                )
        if "parent" not in event:
            problems.append(f"event {index}: missing key 'parent'")
        elif event["parent"] is not None and not isinstance(
            event["parent"], int
        ):
            problems.append(f"event {index}: 'parent' must be int or null")
        kind = event.get("kind")
        if isinstance(kind, str) and kind not in SPAN_KINDS:
            problems.append(f"event {index}: unknown kind {kind!r}")
        if isinstance(event.get("seconds"), (int, float)) and (
            event["seconds"] < 0
        ):
            problems.append(f"event {index}: negative duration")
        span_id = event.get("id")
        if isinstance(span_id, int):
            if span_id in seen_ids:
                problems.append(f"event {index}: duplicate span id {span_id}")
            seen_ids[span_id] = event
    # Every parent reference must resolve to an emitted span.
    for index, event in enumerate(events):
        parent = event.get("parent") if isinstance(event, dict) else None
        if parent is not None and parent not in seen_ids:
            problems.append(
                f"event {index}: parent {parent} never emitted"
            )
    return problems


def validate_trace_jsonl(text: str) -> List[str]:
    """Validate a JSONL trace log: parse every line, then the events."""
    problems: List[str] = []
    events: List[dict] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"line {line_number}: invalid JSON ({exc})")
    problems.extend(validate_trace_events(events))
    return problems


def span_tree_paths(events: Iterable[dict]) -> List[List[str]]:
    """Root-to-leaf kind paths of the span forest (tree well-formedness).

    Used to assert the acceptance shape: a traced pass must contain a
    ``['pass', 'stratum', 'phase', 'rule']`` path.
    """
    events = [e for e in events if isinstance(e, dict) and "id" in e]
    children: Dict[Optional[int], List[dict]] = {}
    ids = {event["id"] for event in events}
    for event in events:
        parent = event.get("parent")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(event)
    paths: List[List[str]] = []

    def walk(event: dict, prefix: List[str]) -> None:
        path = prefix + [event["kind"]]
        kids = children.get(event["id"], [])
        if not kids:
            paths.append(path)
            return
        for kid in kids:
            walk(kid, path)

    for root in children.get(None, []):
        walk(root, [])
    return paths


def validate_prometheus(text: str) -> List[str]:
    """Problems in a Prometheus text-exposition document (format 0.0.4)."""
    problems: List[str] = []
    typed: Dict[str, str] = {}
    seen_samples: set = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                problems.append(f"line {line_number}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if not _METRIC_NAME.match(name):
                problems.append(
                    f"line {line_number}: invalid metric name {name!r}"
                )
            if kind not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                problems.append(
                    f"line {line_number}: invalid metric type {kind!r}"
                )
            if name in typed:
                problems.append(
                    f"line {line_number}: duplicate TYPE for {name}"
                )
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {line_number}: unparseable sample line")
            continue
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count", "_p50", "_p95", "_p99"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            problems.append(
                f"line {line_number}: sample {name} precedes its TYPE line"
            )
        label_blob = match.group("labels")
        if label_blob:
            inner = label_blob[1:-1].strip()
            position = 0
            while position < len(inner):
                pair = _LABEL_PAIR.match(inner, position)
                if pair is None:
                    problems.append(
                        f"line {line_number}: malformed label pair in "
                        f"{label_blob!r}"
                    )
                    break
                position = pair.end()
                if position < len(inner):
                    if inner[position] != ",":
                        problems.append(
                            f"line {line_number}: expected ',' between "
                            f"labels"
                        )
                        break
                    position += 1
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {line_number}: invalid sample value {value!r}"
                )
        sample_key = (name, label_blob or "")
        if sample_key in seen_samples:
            problems.append(
                f"line {line_number}: duplicate sample {name}{label_blob or ''}"
            )
        seen_samples.add(sample_key)
    return problems


# --------------------------------------------------------------------------
# `status --json` document schema
#
# The status document is the machine-readable contract downstream
# consumers (the future O2 orchestrator, dashboards) parse; this
# validator pins its shape so a new block can't land without the schema
# — and therefore the schema test — acknowledging it.

def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Required top-level status keys → coarse type check.
_STATUS_REQUIRED = {
    "strategy": str,
    "semantics": str,
    "lifetime": dict,
    "last_pass": dict,
    "journal": dict,
    "guard": dict,
    "lag": dict,
    "health": dict,
    "consistent": bool,
}

#: Optional blocks (present only when the feature is configured).
_STATUS_OPTIONAL = {
    "mvcc": dict,
    "plan_cache": dict,
    "divergence": str,
    "orchestrator": dict,
}

#: Required top-level counts (ints, not bools).
_STATUS_COUNTS = (
    "checkpoint_errors",
    "dead_letters",
    "staged_insertions",
    "staged_deletions",
)


def validate_status(doc: object) -> List[str]:
    """Structural problems in a ``status --json`` document."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["status document is not an object"]
    for key, expected in _STATUS_REQUIRED.items():
        if key not in doc:
            problems.append(f"status: missing key {key!r}")
        elif not isinstance(doc[key], expected) or (
            expected is not bool and isinstance(doc[key], bool)
        ):
            problems.append(
                f"status: key {key!r} has type {type(doc[key]).__name__}, "
                f"expected {expected.__name__}"
            )
    for key in _STATUS_COUNTS:
        if key not in doc:
            problems.append(f"status: missing key {key!r}")
        elif not _is_int(doc[key]) or doc[key] < 0:
            problems.append(f"status: key {key!r} must be a count")
    known = (
        set(_STATUS_REQUIRED) | set(_STATUS_OPTIONAL) | set(_STATUS_COUNTS)
    )
    for key in doc:
        if key not in known:
            problems.append(
                f"status: unknown top-level key {key!r} "
                "(extend the schema in repro.obs.schema)"
            )
    for key, expected in _STATUS_OPTIONAL.items():
        if key in doc and not isinstance(doc[key], expected):
            problems.append(
                f"status: key {key!r} has type {type(doc[key]).__name__}, "
                f"expected {expected.__name__}"
            )

    journal = doc.get("journal")
    if isinstance(journal, dict):
        if not isinstance(journal.get("attached"), bool):
            problems.append("status: journal.attached must be a bool")
        elif journal["attached"]:
            for key in ("last_seq", "watermark"):
                if not _is_int(journal.get(key)):
                    problems.append(f"status: journal.{key} must be an int")

    guard = doc.get("guard")
    if isinstance(guard, dict):
        if guard.get("breaker") not in ("closed", "half_open", "open"):
            problems.append(
                f"status: guard.breaker is {guard.get('breaker')!r}"
            )
        for key in ("breaches_total", "fallback_passes", "skipped_passes"):
            if key in guard and not _is_int(guard[key]):
                problems.append(f"status: guard.{key} must be an int")

    lag = doc.get("lag")
    if isinstance(lag, dict):
        if not _is_int(lag.get("changesets")) or lag["changesets"] < 0:
            problems.append("status: lag.changesets must be a count")
        if not _is_number(lag.get("seconds")) or lag["seconds"] < 0:
            problems.append("status: lag.seconds must be a number >= 0")
        if not isinstance(lag.get("views"), dict):
            problems.append("status: lag.views must be an object")

    health = doc.get("health")
    if isinstance(health, dict):
        for block_name in ("slo", "profiler"):
            block = health.get(block_name)
            if not isinstance(block, dict):
                problems.append(
                    f"status: health.{block_name} must be an object"
                )
                continue
            if not isinstance(block.get("enabled"), bool):
                problems.append(
                    f"status: health.{block_name}.enabled must be a bool"
                )
        slo = health.get("slo")
        if isinstance(slo, dict) and slo.get("enabled") is True:
            if not isinstance(slo.get("slos"), list):
                problems.append("status: health.slo.slos must be a list")
            for key in ("alerts_active", "alerts_fired", "alerts_cleared",
                        "alerts_dropped", "passes_evaluated"):
                if not _is_int(slo.get(key)):
                    problems.append(
                        f"status: health.slo.{key} must be an int"
                    )

    orchestrator = doc.get("orchestrator")
    if orchestrator is not None:
        problems += [
            f"status: {p}" for p in validate_orchestrator(orchestrator)
        ]
    return problems


#: Every state a DAG node may report (repro.orchestrator.state.STATES).
_ORCH_NODE_STATES = (
    "DEAD", "SUSPENDED", "QUARANTINED", "REFRESHING", "FRESH"
)

#: Per-view count fields in the orchestrator block.
_ORCH_VIEW_COUNTS = (
    "pending", "refreshes", "retries", "failures", "consecutive_failures"
)

#: Per-view list-of-node-names fields.
_ORCH_VIEW_LISTS = ("quarantined_by", "suspended_by", "upstream", "exports")


def validate_orchestrator(doc: object) -> List[str]:
    """Structural problems in an ``orchestrator`` status block.

    The block is produced by
    :meth:`repro.orchestrator.scheduler.Orchestrator.status` and
    embedded under the ``orchestrator`` key of ``status --json``.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["orchestrator block is not an object"]
    if not _is_int(doc.get("ticks")) or doc["ticks"] < 0:
        problems.append("orchestrator: ticks must be a count")
    if not _is_int(doc.get("alerts_active")) or doc["alerts_active"] < 0:
        problems.append("orchestrator: alerts_active must be a count")
    views = doc.get("views")
    if not isinstance(views, dict) or not views:
        problems.append("orchestrator: views must be a non-empty object")
        views = {}
    for key in ("quarantined", "suspended", "dead"):
        names = doc.get(key)
        if not isinstance(names, list) or not all(
            isinstance(n, str) for n in names
        ):
            problems.append(
                f"orchestrator: {key} must be a list of node names"
            )
        else:
            unknown = [n for n in names if n not in views]
            if unknown:
                problems.append(
                    f"orchestrator: {key} names unknown nodes {unknown}"
                )
    known = {
        "ticks", "views", "quarantined", "suspended", "dead",
        "alerts_active",
    }
    for key in doc:
        if key not in known:
            problems.append(
                f"orchestrator: unknown key {key!r} "
                "(extend the schema in repro.obs.schema)"
            )
    for name, view in views.items():
        prefix = f"orchestrator: views.{name}"
        if not isinstance(view, dict):
            problems.append(f"{prefix} must be an object")
            continue
        if view.get("state") not in _ORCH_NODE_STATES:
            problems.append(
                f"{prefix}.state is {view.get('state')!r}; expected one "
                f"of {_ORCH_NODE_STATES}"
            )
        for key in _ORCH_VIEW_COUNTS:
            if not _is_int(view.get(key)) or view[key] < 0:
                problems.append(f"{prefix}.{key} must be a count")
        if not _is_number(view.get("lag_seconds")) or view["lag_seconds"] < 0:
            problems.append(f"{prefix}.lag_seconds must be a number >= 0")
        target = view.get("target_lag", 0)
        if target is not None and target != "downstream" and not (
            _is_number(target) and target >= 0
        ):
            problems.append(
                f"{prefix}.target_lag must be seconds, 'downstream', "
                f"or null; got {target!r}"
            )
        effective = view.get("effective_lag")
        if effective is not None and not (
            _is_number(effective) and effective >= 0
        ):
            problems.append(
                f"{prefix}.effective_lag must be seconds or null"
            )
        for key in _ORCH_VIEW_LISTS:
            value = view.get(key)
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                problems.append(f"{prefix}.{key} must be a list of names")
        error = view.get("last_error")
        if error is not None and not isinstance(error, str):
            problems.append(f"{prefix}.last_error must be a string or null")
    return problems


# --------------------------------------------------------------------------
# Profiler report schema

def validate_profile_report(doc: object) -> List[str]:
    """Structural problems in a ContinuousProfiler ``report()`` dict."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["profile report is not an object"]
    if doc.get("schema_version") != 1:
        problems.append(
            f"profile: schema_version is {doc.get('schema_version')!r}"
        )
    if not _is_int(doc.get("window")) or doc["window"] < 1:
        problems.append("profile: window must be an int >= 1")
    if not _is_int(doc.get("passes")) or doc["passes"] < 0:
        problems.append("profile: passes must be a count")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list):
        return problems + ["profile: profiles must be a list"]
    for index, entry in enumerate(profiles):
        if not isinstance(entry, dict):
            problems.append(f"profile {index}: not an object")
            continue
        for key in ("view", "strategy", "phase"):
            if not isinstance(entry.get(key), str):
                problems.append(f"profile {index}: {key} must be a string")
        if not _is_int(entry.get("count")) or entry["count"] < 1:
            problems.append(f"profile {index}: count must be an int >= 1")
        quantiles = [entry.get(q) for q in ("p50", "p95", "p99")]
        if not all(_is_number(v) for v in quantiles):
            problems.append(f"profile {index}: p50/p95/p99 must be numbers")
        elif not quantiles[0] <= quantiles[1] <= quantiles[2]:
            problems.append(f"profile {index}: quantiles not monotone")
        for key in ("total_seconds", "max_seconds", "tuples_per_second"):
            if not _is_number(entry.get(key)) or entry[key] < 0:
                problems.append(
                    f"profile {index}: {key} must be a number >= 0"
                )
        if not _is_int(entry.get("tuples")) or entry["tuples"] < 0:
            problems.append(f"profile {index}: tuples must be a count")
        exemplar = entry.get("exemplar")
        if exemplar is not None:
            if not isinstance(exemplar, dict):
                problems.append(f"profile {index}: exemplar must be object")
            else:
                if not _is_int(exemplar.get("span_id")):
                    problems.append(
                        f"profile {index}: exemplar.span_id must be an int"
                    )
                if not _is_number(exemplar.get("seconds")):
                    problems.append(
                        f"profile {index}: exemplar.seconds must be a number"
                    )
    return problems
