"""Work is Δ-bounded (ROADMAP O13): exact checks, no timings.

The paper's promise is that maintenance cost tracks ``|Δ|``, not
``|DB|``.  Here that is pinned three ways:

* the same changeset stream applied to ``DB`` and to ``DB×10`` (``DB``
  plus nine node-relabelled disjoint copies) produces the same view
  deltas from the same work, and no pass runs a whole-relation
  operation on anything larger than what it changed;
* the Lemma 4.1 sign check that used to walk every stored row is still
  made — on the rows the delta merged;
* an AST tripwire keeps whole-relation calls out of the pass modules.
"""

from __future__ import annotations

import ast
import random
import sys
from pathlib import Path

import pytest

import repro
from repro import Changeset, Database, ViewMaintainer
from repro.errors import MaintenanceError, SanitizerError
from repro.obs.metrics import MetricsRegistry
from repro.storage.mvcc import autocommit
from repro.storage.relation import CountedRelation

from conftest import indexed_reads, stored_relations

HOP_SRC = """
hop(X, Y) :- link(X, Z), link(Z, Y).
tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
"""

TC_SRC = """
tc(X, Y) :- link(X, Y).
tc(X, Y) :- tc(X, Z), link(Z, Y).
"""

SERVE_SRC = """
hop(S, D, C) :- link(S, I, C1), link(I, D, C2), C = C1 + C2.
min_cost_hop(S, D, M) :- GROUPBY(hop(S, D, C), [S, D], M = MIN(C)).
reach2(S, D) :- link(S, I, C1), link(I, D, C2).
direct(S, D) :- link(S, D, C).
only_hop(S, D) :- reach2(S, D), not direct(S, D).
"""

COPIES = 10
WARM_UP = 2
PASSES = 5


# ------------------------------------------------------------------ workloads


class Stream:
    """One component's edges and a seeded stream of changes to them.

    ``layers == 0``: a uniform random digraph on ``nodes`` nodes;
    otherwise a layered DAG (``nodes`` per layer, edges layer → next),
    so the transitive closure stays small.  ``costed`` adds a cost
    column.  Every batch deletes two live edges and inserts two fresh
    ones.
    """

    def __init__(self, nodes, edges, layers=0, costed=False, seed=7):
        self.rng = random.Random(seed)
        self.nodes, self.layers, self.costed = nodes, layers, costed
        self.live = {}
        while len(self.live) < edges:
            self._fresh()
        self.initial = [self._row(key) for key in self.live]

    def _fresh(self):
        rng = self.rng
        while True:
            if self.layers:
                layer = rng.randrange(self.layers - 1)
                key = (
                    layer * self.nodes + rng.randrange(self.nodes),
                    (layer + 1) * self.nodes + rng.randrange(self.nodes),
                )
            else:
                key = (rng.randrange(self.nodes), rng.randrange(self.nodes))
            if key not in self.live:
                self.live[key] = rng.randint(1, 10)
                return key

    def _row(self, key):
        return key + (self.live[key],) if self.costed else key

    @property
    def span(self):
        """Node ids used by one component (the relabelling offset)."""
        return self.nodes * max(self.layers, 1)

    def rows(self, copies):
        return [
            (row[0] + k * self.span, row[1] + k * self.span) + row[2:]
            for k in range(copies)
            for row in self.initial
        ]

    def batch(self):
        changes = Changeset()
        for key in self.rng.sample(sorted(self.live), 2):
            changes.delete("link", self._row(key))
            del self.live[key]
        for _ in range(2):
            changes.insert("link", self._row(self._fresh()))
        return changes


WORKLOADS = {
    "hop": (HOP_SRC, dict(nodes=300, edges=900)),
    "tc": (TC_SRC, dict(nodes=60, edges=480, layers=5)),
    "serve": (SERVE_SRC, dict(nodes=300, edges=900, costed=True)),
}

CASES = [
    (workload, strategy, mvcc)
    for workload in WORKLOADS
    for strategy in ("counting", "dred", "bf")
    if not (workload == "tc" and strategy == "counting")
    for mvcc in (True, False)
]


# ----------------------------------------------------------------- instrument

#: Every ``CountedRelation`` operation whose cost is its receiver's size.
WHOLE_RELATION_OPS = (
    "copy", "to_dict", "items", "rows", "positive_items", "negative_items",
    "assert_nonnegative", "set_view", "set_difference_delta", "replace_rows",
    "as_set", "total_count",
)


def _called_by_sanitizer() -> bool:
    """The sanitizer's commit-tail traps are where whole-view walks belong."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_globals.get("__name__") == "repro.analysis.sanitizer":
            return True
        frame = frame.f_back
    return False


class WholeRelationOps:
    """Records ``(operation, len(receiver))`` while :attr:`events` is a list."""

    def __init__(self, monkeypatch) -> None:
        self.events = None
        for name in WHOLE_RELATION_OPS:
            monkeypatch.setattr(
                CountedRelation, name,
                self._wrap(name, getattr(CountedRelation, name)),
            )
        ensure_index = CountedRelation.ensure_index

        def traced_ensure_index(relation, positions):
            if positions not in relation._indexes:  # the build branch
                self._note("index_build", relation)
            return ensure_index(relation, positions)

        monkeypatch.setattr(CountedRelation, "ensure_index", traced_ensure_index)

    def _wrap(self, name, method):
        def traced(relation, *args, **kwargs):
            self._note(name, relation)
            return method(relation, *args, **kwargs)

        return traced

    def _note(self, name, relation) -> None:
        if self.events is not None and len(relation) and not _called_by_sanitizer():
            self.events.append((name, len(relation)))

    def during(self, call):
        """``(call(), the events it caused)``."""
        self.events = []
        try:
            return call(), self.events
        finally:
            self.events = None


@pytest.fixture
def whole_relation_ops(monkeypatch):
    return WholeRelationOps(monkeypatch)


def _delta_size(changes: Changeset, report) -> int:
    """Rows the pass handled: base changes, view changes, engine deltas."""
    stats = report.engine_stats()
    return (
        sum(len(delta) for _, delta in changes)
        + report.total_changes()
        + sum(
            getattr(stats, field, 0)
            for field in (
                "delta_tuples_computed", "overestimated", "candidates",
                "inserted",
            )
        )
    )


def _maintainer(source, rows, strategy, mvcc):
    database = Database(mvcc=mvcc)
    database.insert_rows("link", rows)
    return ViewMaintainer.from_source(
        source, database, strategy=strategy
    ).initialize()


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("workload,strategy,mvcc", CASES)
def test_pass_work_is_independent_of_database_size(
    workload, strategy, mvcc, whole_relation_ops
):
    source, shape = WORKLOADS[workload]
    stream = Stream(**shape)
    small = _maintainer(source, stream.rows(1), strategy, mvcc)
    big = _maintainer(source, stream.rows(COPIES), strategy, mvcc)
    smallest_stored = min(
        len(relation)
        for relation in [small.database.relation("link"), *small.views.values()]
    )

    for index in range(WARM_UP + PASSES):
        changes = stream.batch()
        measured = []
        for maintainer in (small, big):
            probes = maintainer.plan_cache.index_probes
            report, events = whole_relation_ops.during(
                lambda: maintainer.apply(changes)
            )
            measured.append((
                {name: d.to_dict() for name, d in report.view_deltas.items()},
                report.engine_stats().rules_fired,
                maintainer.plan_cache.index_probes - probes,
                sorted(events),
                _delta_size(changes, report),
            ))
        if index < WARM_UP:
            continue  # plans compile and declare their indexes here
        (deltas, fired, probed, events, limit), at_ten_times = measured
        assert limit < smallest_stored, "workload too small to tell Δ from DB"
        assert at_ten_times == measured[0], f"pass {index}"
        assert deltas, "the stream must change the views"
        oversized = [event for event in events if event[1] > limit]
        assert not oversized, (
            f"pass {index}: whole-relation work on more than the "
            f"{limit} rows the pass changed: {oversized}"
        )

    for maintainer in (small, big):
        maintainer.consistency_check()


# -------------------------------------------------- Lemma 4.1 is still checked


def _state(maintainer):
    relations = stored_relations(maintainer)
    return (
        {name: relation.to_dict() for name, relation in relations.items()},
        {name: indexed_reads(relation) for name, relation in relations.items()},
        maintainer.database.epoch,
    )


def _over_deleting_maintainer(semantics, mvcc=True):
    """hop(1, 4) has two derivations but (planted) a stored count of 1.

    The sanitizer is held off: its commit-tail walk is a second net for
    the same invariant, and these tests are about the first.
    """
    database = Database(mvcc=mvcc, sanitize=False)
    database.insert_rows("link", [(1, 2), (2, 4), (1, 3), (3, 4), (4, 5)])
    metrics = MetricsRegistry()
    maintainer = ViewMaintainer.from_source(
        HOP_SRC, database, strategy="counting", semantics=semantics,
        metrics=metrics,
    ).initialize()
    maintainer.apply(Changeset().insert("link", (5, 6)))  # compile the plans
    assert maintainer.relation("hop").count((1, 4)) == 2
    with autocommit(database.mvcc):
        maintainer.views["hop"].add((1, 4), -1)
    over_delete = Changeset().delete("link", (1, 2)).delete("link", (1, 3))
    return maintainer, over_delete, metrics


def _rollbacks(metrics) -> float:
    return metrics.counter("repro_rollbacks_total", "").value()


@pytest.mark.parametrize("mvcc", [True, False])
@pytest.mark.parametrize("semantics", ["set", "duplicate"])
def test_over_deletion_still_raises_and_rolls_back(semantics, mvcc):
    maintainer, over_delete, metrics = _over_deleting_maintainer(semantics, mvcc)
    before, rollbacks = _state(maintainer), _rollbacks(metrics)
    with pytest.raises(MaintenanceError) as raised:
        maintainer.apply(over_delete)
    message = str(raised.value)
    assert "stored relation hop holds row (1, 4)" in message
    assert "negative count -1" in message
    assert _state(maintainer) == before
    assert _rollbacks(metrics) == rollbacks + 1


def test_mutant_without_the_delta_local_check_goes_unnoticed(monkeypatch):
    """The kill target for O11's "skip the delta-local sign check" mutant:
    with the check gone, the over-deletion above commits a negative count."""
    monkeypatch.setattr(
        CountedRelation, "check_nonnegative", lambda self, rows: None
    )
    maintainer, over_delete, _ = _over_deleting_maintainer("set")
    maintainer.apply(over_delete)  # no error: the mutant survives the pass
    assert maintainer.relation("hop").count((1, 4)) == -1


def test_whole_view_checks_still_find_a_planted_negative_count():
    database = Database(sanitize=True)
    database.insert_rows("link", [(1, 2), (2, 3), (3, 4)])
    maintainer = ViewMaintainer.from_source(
        HOP_SRC, database, strategy="counting"
    ).initialize()
    maintainer.views["tri_hop"]._rows[(1, 4)] = -1  # outside any pass
    with pytest.raises(MaintenanceError):
        maintainer.views["tri_hop"].assert_nonnegative()
    with pytest.raises(MaintenanceError):
        maintainer.consistency_check()
    # The sanitizer's commit-tail walk traps it on the next pass, even
    # though that pass's delta never touches the row.
    with pytest.raises(SanitizerError) as trapped:
        maintainer.apply(Changeset().insert("link", (7, 8)))
    assert trapped.value.invariant == "nonnegative-counts"


# ------------------------------------------------------------ static tripwire

SRC = Path(repro.__file__).resolve().parent

#: Whole-relation calls allowed in the pass modules:
#: ``(file, enclosing function, method)`` → why it is not per-pass work.
ALLOWED_WHOLE_RELATION_CALLS = {
    ("core/counting.py", "_new_relation", "copy"):
        "factored mode materializes ν-relations by design (ablation only)",
    ("core/counting.py", "_seed", "copy"):
        "copies the changeset's own delta relations, sized by the change",
}

PASS_MODULES = (
    "core/strategy_pass.py", "core/counting.py", "core/dred.py", "core/bf.py",
    "core/agg_maintenance.py", "eval/seminaive.py", "eval/rule_eval.py",
    "eval/kernel.py",
)

FORBIDDEN_CALLS = {
    "copy", "to_dict", "assert_nonnegative", "replace_rows", "set_view",
    "as_set",
}


def _whole_relation_calls(path: Path):
    """``(enclosing function, method, line)`` of every forbidden call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FORBIDDEN_CALLS
        ):
            found.append((function, node.func.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_pass_modules_make_no_whole_relation_calls():
    used = set()
    for module in PASS_MODULES:
        for function, method, line in _whole_relation_calls(SRC / module):
            key = (module, function, method)
            assert key in ALLOWED_WHOLE_RELATION_CALLS, (
                f"src/repro/{module}:{line}: .{method}() in {function}() is "
                "whole-relation work inside the pass path; make it "
                "delta-local or add it to the allow-list with a reason"
            )
            used.add(key)
    assert used == set(ALLOWED_WHOLE_RELATION_CALLS), "stale allow-list entry"
