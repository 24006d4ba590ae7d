"""Layer attribution from outside: timing wrappers and span arithmetic.

The program under test is not edited.  :func:`install` swaps thin
timing wrappers in front of public functions at the layer boundaries
(module attributes are patched *where the caller imported them*, class
methods on the class); :func:`uninstall` puts the originals back.  Each
call becomes one span — name, start, end, parent span, pass id — kept
in memory by the :class:`Recorder` and written out when the run ends.
A span's self time is its duration minus its direct children's (one
thread, so children never overlap).
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

#: (module, attribute path, span name).  The attribute path is either a
#: module-level name (a function the module imported) or ``Class.method``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.maintenance", "ViewMaintainer.apply", "core.maintainer.apply"),
    ("repro.core.maintenance", "ViewMaintainer.initialize", "core.maintainer.initialize"),
    ("repro.core.maintenance", "ViewMaintainer.checkpoint", "core.maintainer.checkpoint"),
    ("repro.core.maintenance", "validate_changeset", "guard.admission.validate_changeset"),
    ("repro.core.maintenance", "save_database", "storage.serialize.save_database"),
    ("repro.storage.serialize", "load_snapshot", "storage.serialize.load_snapshot"),
    ("repro.core.counting", "CountingMaintenance.run", "core.strategy.run"),
    ("repro.core.dred", "DRedMaintenance.run", "core.strategy.run"),
    ("repro.core.bf", "BFMaintenance.run", "core.strategy.run"),
    ("repro.core.counting", "evaluate_rule_into", "eval.rule_eval"),
    ("repro.eval.stratified", "evaluate_rule_into", "eval.rule_eval"),
    ("repro.eval.seminaive", "evaluate_rule", "eval.rule_eval"),
    ("repro.core.bf", "seminaive", "eval.seminaive"),
    ("repro.core.dred", "seminaive", "eval.seminaive"),
    ("repro.eval.stratified", "seminaive", "eval.seminaive"),
    ("repro.eval.plan_cache", "PlanCache.plan", "eval.plan_cache.plan"),
    ("repro.storage.relation", "CountedRelation.merge", "storage.relation.merge"),
    ("repro.storage.relation", "CountedRelation.assert_nonnegative", "storage.relation.assert_nonnegative"),
    ("repro.resilience.shadow", "UndoLog.note_count", "resilience.undo.note"),
    ("repro.resilience.shadow", "UndoLog.note_counts", "resilience.undo.note"),
    ("repro.resilience.shadow", "UndoLog.note_rows", "resilience.undo.note"),
    ("repro.resilience.shadow", "UndoLog.note_base_created", "resilience.undo.note"),
    ("repro.resilience.shadow", "UndoLog.note_group", "resilience.undo.note"),
    ("repro.resilience.shadow", "UndoLog.note_attr", "resilience.undo.note"),
    ("repro.resilience.shadow", "UndoLog.note_mapping", "resilience.undo.note"),
    ("repro.storage.journal", "Journal.append", "storage.journal.append"),
    ("repro.storage.mvcc", "VersionManager.begin", "storage.mvcc.begin"),
    ("repro.storage.mvcc", "VersionManager.commit", "storage.mvcc.commit"),
    ("repro.storage.mvcc", "VersionManager.materialize", "storage.mvcc.materialize"),
    ("repro.core.active", "SubscriptionHub.notify", "core.active.notify"),
)

#: Spans whose first argument's ``len()`` is a work count worth keeping
#: (rows scanned by the invariant check, undo entries recorded).
_SIZED = {
    "storage.relation.assert_nonnegative": "rows_scanned",
    "resilience.undo.note": "undo_entries",
}


class Recorder:
    """In-memory span store.  ``pass_id`` is set by the harness."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, pass id]`` per span.
        self.spans: List[list] = []
        self.current = -1
        self.pass_id = -1
        #: Work counts per (kind, pass id).
        self.counts: Dict[Tuple[str, int], int] = defaultdict(int)

    def wrap(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        sized = _SIZED.get(name)

        def traced(*args, **kwargs):
            parent = self.current
            span = [name, perf_counter(), 0.0, parent, self.pass_id]
            self.current = len(spans)
            spans.append(span)
            if sized == "undo_entries":
                before = len(args[0])
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.current = parent
                if sized == "rows_scanned":
                    self.counts[sized, span[4]] += len(args[0])
                elif sized == "undo_entries":
                    self.counts[sized, span[4]] += len(args[0]) - before

        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------ arithmetic

    def self_times(self) -> List[float]:
        """Self seconds per span: duration minus direct children."""
        spans = self.spans
        own = [span[2] - span[1] for span in spans]
        for span in spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def self_by_pass(
        self, root: str, passes: Iterable[int]
    ) -> Dict[str, Dict[int, float]]:
        """``{span name: {pass id: summed self seconds}}`` for the spans
        under top-level ``root`` spans of the given passes.

        Every pass gets an entry for every name (0.0 where the layer was
        not entered), so medians are over all passes, not just busy ones.
        """
        wanted = dict.fromkeys(sorted(set(passes)), 0.0)
        table: Dict[str, Dict[int, float]] = {}
        roots: List[str] = []
        for span, own in zip(self.spans, self.self_times()):
            # A parent always precedes its children in the list.
            roots.append(span[0] if span[3] < 0 else roots[span[3]])
            if roots[-1] == root and span[4] in wanted:
                cells = table.get(span[0])
                if cells is None:
                    cells = table[span[0]] = dict(wanted)
                cells[span[4]] += own
        return table

    def durations(self, name: str) -> List[float]:
        """Whole durations (children included) of every ``name`` span."""
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, pass_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None,
                    "pass": pass_id,
                }) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *holders, attribute = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attribute


def install(recorder: Recorder) -> List[Tuple[object, str, Callable]]:
    """Patch every target; returns the originals for :func:`uninstall`."""
    saved = []
    for module_name, path, span_name in TARGETS:
        owner, attribute = _resolve(module_name, path)
        original = getattr(owner, attribute)
        saved.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(span_name, original))
    return saved


def uninstall(saved: List[Tuple[object, str, Callable]]) -> None:
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)
