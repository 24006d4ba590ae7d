"""Incremental maintenance of GROUPBY views (Algorithm 6.1).

A normalized aggregate rule ``t(G…, M) :- GROUPBY(u(args), [G…],
M = f(expr))`` defines a relation ``T`` with one tuple per group.  Given
``Δ(U)``, Algorithm 6.1 recomputes only the *touched* groups:

    For every grouping value y ∈ Y(Δ(U)):
        incrementally compute Tyⁿ from Ty (old) and Δ(U);
        if Ty ≠ Tyⁿ:  Δ(T) ⊎= {(Ty, −1)}; Δ(T) ⊎= {(Tyⁿ, +1)}

"Incrementally compute" uses the per-group state machines of
:mod:`repro.eval.aggregates`; when a state machine signals that the
change is not incrementally computable (e.g. deleting the current MIN),
the group is recomputed from the stored grouped relation — exactly the
fallback the paper describes for non-incrementally-computable functions.

An :class:`AggregateView` owns the persistent group states, so repeated
maintenance batches never rescan untouched groups.  It is the only
GROUPBY evaluator: set-up (``materialize`` included), the lazy first
:meth:`maintain` and a group recompute share one :meth:`fold`, and a
maintainer adopts the states ``materialize`` folded instead of folding
again (:func:`adopt_views`).
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional, Tuple

from repro.datalog.ast import Aggregate, Rule
from repro.errors import EvaluationError, MaintenanceError
from repro.eval.aggregates import AggregateFunction, get_aggregate_function
from repro.eval.kernel import build_projection
from repro.storage.relation import CountedRelation, Row

logger = logging.getLogger(__name__)


class AggregateView:
    """Maintains one GROUPBY view: stored group states + Δ(T) computation."""

    def __init__(self, rule: Rule, unit_counts: bool) -> None:
        if len(rule.body) != 1 or not isinstance(rule.body[0], Aggregate):
            raise MaintenanceError(
                f"AggregateView requires a normalized aggregate rule, got {rule}"
            )
        self.rule = rule
        self.aggregate: Aggregate = rule.body[0]
        self.function: AggregateFunction = get_aggregate_function(
            self.aggregate.function
        )
        #: True under set semantics: each distinct row of U contributes once.
        self.unit_counts = unit_counts
        self._group_names = tuple(v.name for v in self.aggregate.group_by)
        self._project = build_projection(self.aggregate)
        args, group_by = self.aggregate.relation.args, self.aggregate.group_by
        #: Inner-literal positions of the grouping variables, the key a
        #: group recompute probes (None: one occurs only inside a term).
        self._positions = (
            tuple(args.index(v) for v in group_by)
            if all(v in args for v in group_by) else None
        )
        self._states: Dict[Row, tuple] = {}
        self._initialized = False
        #: Work counters (experiment E12): groups maintained purely
        #: incrementally vs. groups that needed a recompute fallback.
        self.incremental_updates = 0
        self.recomputes = 0

    # ------------------------------------------------------------------ fold

    def _triples(self, items: Iterable[Tuple[Row, int]]) -> Iterable[tuple]:
        """(group key, value, multiplicity) of each live stored row."""
        unit = self.unit_counts
        for key, value, count in self._project(items):
            if count > 0:
                yield key, value, 1 if unit else count

    def fold(self, triples: Iterable[tuple]) -> Dict[Row, tuple]:
        """Group states from ``(group key, value, multiplicity)`` triples."""
        per_group: Dict[Row, List[Tuple[object, int]]] = {}
        for key, value, multiplicity in triples:
            per_group.setdefault(key, []).append((value, multiplicity))
        compute = self.function.compute
        try:
            return {key: compute(values) for key, values in per_group.items()}
        except TypeError as exc:  # a SUM over strings, a MIN over mixed types
            raise EvaluationError(f"{self.function.name}: {exc}") from exc

    def relation(self) -> CountedRelation:
        """T read off the group states: one row per non-empty group."""
        function = self.function
        relation = CountedRelation(
            self.rule.head.predicate, len(self._group_names) + 1
        )
        relation.absorb({
            key + (function.result(state),): 1
            for key, state in self._states.items()
            if not function.is_empty(state)
        })
        return relation

    # --------------------------------------------------------------- set-up

    def initialize(self, grouped: CountedRelation) -> CountedRelation:
        """Fold the full grouped relation into group states; return T."""
        self._states = self.fold(self._triples(grouped.items()))
        self._initialized = True
        return self.relation()

    def adopt(self, folded: "AggregateView", grouped: CountedRelation) -> None:
        """Take over ``folded``'s group states; recompute from ``grouped``.

        The index a group recompute probes is declared on ``grouped``
        now, so it is built at set-up, not mid-pass.
        """
        self._states = dict(folded._states)
        self._initialized = True
        if self._positions:
            grouped.declare_index(self._positions)

    # ----------------------------------------------------------- maintenance

    def maintain(
        self,
        old_grouped: CountedRelation,
        delta: CountedRelation,
        undo=None,
    ) -> CountedRelation:
        """Algorithm 6.1: Δ(T) for the change ``delta`` to the grouped relation.

        ``old_grouped`` is the grouped relation *before* the change (used
        only for group recomputes); ``delta`` carries signed counts.
        Group states are updated in place.  With an
        :class:`~repro.resilience.shadow.UndoLog` passed as ``undo``,
        every touched group's pre-image is recorded first, so a failed
        maintenance pass can restore the states exactly (group states are
        immutable tuples, so recording the reference suffices).
        """
        if undo is not None:
            undo.note_attr(self, "incremental_updates")
            undo.note_attr(self, "recomputes")
        if not self._initialized:
            if undo is not None:
                undo.note_attr(self, "_states")
                undo.note_attr(self, "_initialized")
            self.initialize(old_grouped)

        # Collect the touched groups and their per-value changes.
        touched: Dict[Row, List[Tuple[object, int]]] = {}
        unit = self.unit_counts
        for key, value, count in self._project(delta.items()):
            signed = (1 if count > 0 else -1) if unit else count
            touched.setdefault(key, []).append((value, signed))

        function = self.function
        delta_t = CountedRelation(
            f"Δ({self.rule.head.predicate})", len(self._group_names) + 1
        )
        for key, changes in touched.items():
            if undo is not None:
                undo.note_group(self._states, key)
            old_state = self._states.get(key)
            old_tuple: Optional[Row] = None
            if old_state is not None and not function.is_empty(old_state):
                old_tuple = key + (function.result(old_state),)

            new_state = old_state if old_state is not None else function.initial()
            try:
                for value, signed in changes:
                    if signed > 0:
                        new_state = function.insert(new_state, value, signed)
                    else:
                        new_state = function.delete(new_state, value, -signed)
                    if new_state is None:
                        break
            except TypeError as exc:
                raise EvaluationError(f"{function.name}: {exc}") from exc
            if new_state is None:
                self.recomputes += 1
                logger.debug(
                    "aggregate %s: non-invertible delete, recomputing "
                    "group %r", self.rule.head.predicate, key,
                )
                new_state = self._recompute_group(key, old_grouped, changes)
            else:
                self.incremental_updates += 1

            if function.is_empty(new_state):
                self._states.pop(key, None)
                new_tuple: Optional[Row] = None
            else:
                self._states[key] = new_state
                new_tuple = key + (function.result(new_state),)

            if old_tuple != new_tuple:
                if old_tuple is not None:
                    delta_t.add(old_tuple, -1)
                if new_tuple is not None:
                    delta_t.add(new_tuple, 1)
        return delta_t

    def _recompute_group(
        self,
        key: Row,
        old_grouped: CountedRelation,
        changes: List[Tuple[object, int]],
    ) -> tuple:
        """Recompute one group from the stored relation plus the change.

        Uses an index on the grouping positions of the inner literal when
        they are bare variables; falls back to a scan otherwise.
        """
        per_value: Dict[object, int] = {}
        for row_key, value, multiplicity in self._triples(
            self._group_rows(old_grouped, key)
        ):
            if row_key == key:
                per_value[value] = per_value.get(value, 0) + multiplicity
        for value, signed in changes:
            per_value[value] = per_value.get(value, 0) + signed
        states = self.fold(
            (key, value, count) for value, count in per_value.items() if count > 0
        )
        return states.get(key, self.function.initial())

    def _group_rows(self, grouped: CountedRelation, key: Row):
        positions = self._positions
        if positions is None:
            return grouped.items()
        return [(row, grouped.count(row)) for row in grouped.lookup(positions, key)]

    # ------------------------------------------------------------ inspection

    def group_count(self) -> int:
        """Number of groups currently tracked."""
        return len(self._states)


def adopt_views(
    aggregate_rules: Dict[str, Rule], folded: Dict, resolver, unit_counts: bool
) -> Dict[str, AggregateView]:
    """A view per normalized GROUPBY rule, adopting the states ``folded``
    (``EvalContext.aggregates``) holds for its subgoal."""
    views: Dict[str, AggregateView] = {}
    for predicate, rule in aggregate_rules.items():
        aggregate = rule.body[0]
        view = views[predicate] = AggregateView(rule, unit_counts)
        view.adopt(
            folded[aggregate], resolver.relation(aggregate.relation.predicate)
        )
    return views
