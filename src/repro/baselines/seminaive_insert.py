"""Insertion-only semi-naive maintenance — the classic special case.

Section 7 opens: *"A semi-naive computation is sufficient to compute new
inserted tuples for a recursively defined view when insertions are made
to base relations."*  This baseline implements exactly that special case
and refuses deletions, demonstrating why DRed's extra machinery exists.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.agg_maintenance import AggregateView
from repro.core.dred import DRedMaintenance
from repro.core.normalize import normalize_program
from repro.datalog.ast import Program
from repro.datalog.parser import parse_program
from repro.datalog.stratify import stratify
from repro.errors import MaintenanceError, UnknownRelationError
from repro.eval.stratified import materialize
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation


class SemiNaiveInsertMaintainer:
    """Maintains recursive views under *insert-only* workloads."""

    def __init__(self, program: Program, database: Database) -> None:
        from repro.datalog.ast import Aggregate, Literal

        for rule in program:
            for subgoal in rule.body:
                if isinstance(subgoal, Aggregate) or (
                    isinstance(subgoal, Literal) and subgoal.negated
                ):
                    raise MaintenanceError(
                        "semi-naive insertion maintenance applies to positive "
                        "programs only — with negation or aggregation, base "
                        "insertions can delete view tuples; use DRed"
                    )
        self.normalized = normalize_program(program)
        self.database = database
        self.stratification = stratify(self.normalized.program)
        self.views: Dict[str, CountedRelation] = {}
        self.aggregate_views: Dict[str, AggregateView] = {}
        self.last_seconds = 0.0

    @classmethod
    def from_source(cls, source: str, database: Database) -> "SemiNaiveInsertMaintainer":
        return cls(parse_program(source), database)

    def initialize(self) -> "SemiNaiveInsertMaintainer":
        views = materialize(
            self.normalized.program,
            self.database,
            semantics="set",
            stratification=self.stratification,
        )
        self.views = {
            name: relation.set_view(name) for name, relation in views.items()
        }
        return self

    def apply(self, changes: Changeset) -> None:
        """Propagate insertions; raise on any deletion.

        For a positive program with no base deletions, DRed's step 1 and
        step 2 are vacuous and the run *is* the semi-naive insertion
        propagation (step 3) — so this baseline reuses that machinery
        after validating the workload (the constructor already rejected
        negation and aggregation, the constructs under which insertions
        could cascade into view deletions).
        """
        for name, delta in changes:
            for row, count in delta.negative_items():
                raise MaintenanceError(
                    f"semi-naive insertion maintenance cannot handle the "
                    f"deletion of {row!r} from {name}; use DRed"
                )
        started = time.perf_counter()
        run = DRedMaintenance(
            self.normalized,
            self.stratification,
            self.database,
            self.views,
            self.aggregate_views,
        )
        run.run(changes)
        if run.stats.overestimated:
            raise MaintenanceError(
                "internal error: insert-only maintenance produced deletions"
            )
        self.last_seconds = time.perf_counter() - started

    def relation(self, name: str) -> CountedRelation:
        found = self.views.get(name)
        if found is not None:
            return found
        found = self.database.get(name)
        if found is None:
            raise UnknownRelationError(f"no view or base relation named {name}")
        return found
