"""Experiment harness: result container, timing, and table rendering.

Every reproduction experiment (E1–E12 in DESIGN.md §4.2) is a function
returning an :class:`ExperimentResult`; the registry in
:mod:`repro.bench.experiments` maps ids to runners, and
``python -m repro.bench`` renders the tables that EXPERIMENTS.md records.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple


@dataclass
class ExperimentResult:
    """One experiment's reproduction table."""

    experiment_id: str
    title: str
    claim: str
    headers: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)


def timed(function: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``function`` once; return (result, wall seconds)."""
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def best_of(function: Callable[[], Any], repeats: int = 3) -> float:
    """Minimum wall time of ``repeats`` runs (for cheap, idempotent calls)."""
    best = float("inf")
    for _ in range(repeats):
        _, seconds = timed(function)
        best = min(best, seconds)
    return best


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an experiment as a GitHub-flavoured markdown section."""
    lines = [
        f"### {result.experiment_id} — {result.title}",
        "",
        f"*Claim:* {result.claim}",
        "",
    ]
    headers = list(result.headers)
    cells = [[_format_value(row.get(h, "")) for h in headers] for row in result.rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in cells:
        lines.append(
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
        )
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)


def write_bench_json(
    path: str, payload: Dict[str, Any], telemetry: Dict[str, Any] = None
) -> str:
    """Write a benchmark result document as JSON (atomic; returns path).

    The document is written via tmp + rename so a crashed benchmark run
    never leaves a truncated file behind for CI to mis-parse.  ``payload``
    must be JSON-serializable; benchmarks put their config, per-group
    measurements, and derived ratios in it.

    ``telemetry`` — an optional dict embedded under a ``"telemetry"``
    key: benchmarks pass the maintainer's stats snapshot and a metrics
    registry snapshot so every BENCH_*.json carries the engine counters
    that produced its numbers.
    """
    if telemetry is not None:
        payload = dict(payload)
        payload["telemetry"] = telemetry
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path
