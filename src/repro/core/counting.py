"""The counting algorithm (Algorithm 4.1) for nonrecursive views.

Given the stored materializations (with per-tuple derivation counts), the
old base relations, and a changeset, compute the exact signed change
``Δ(V)`` of every view, then fold the changes into the stored views —
``Vⁿ = V ⊎ Δ(V)`` (Section 3).

Rules are processed in ascending RSN order (statement (1) of
Algorithm 4.1); each rule's contribution to ``Δ(p)`` is computed from
delta rules (Definition 4.1) in either of two equivalent evaluation
modes (see :mod:`repro.core.delta_rules`):

* ``mode="expansion"`` (default): subset-expansion variants over old
  states only — nothing is copied, work scales with the change;
* ``mode="factored"``: the paper's literal formulation — new states
  ``νq = q ⊎ Δ(q)`` are materialized as the pass proceeds.

Under ``semantics="set"`` the boxed statement (2) of Algorithm 4.1 is
applied: the delta *cascaded* to higher strata is ``set(Pⁿ) − set(P)``
(only zero-crossings), while stored counts are still maintained in full,
so a tuple that merely lost some derivations stops the propagation
(Section 5.1, Example 5.1).  Under ``semantics="duplicate"`` full signed
counts cascade (SQL bag semantics).

Negated subgoals follow Section 6.1: Case 1/2 read old/ν states; Case 3
reads the ``Δ(¬q)`` relation of Definition 6.1, built here by
:func:`delta_neg_relation`.  Aggregate subgoals are handled on the
normalized program (Algorithm 6.1 via
:class:`~repro.core.agg_maintenance.AggregateView`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Literal as TypingLiteral, Optional, Set

from repro.core import names
from repro.core.agg_maintenance import AggregateView
from repro.core.delta_rules import (
    DeltaRule,
    expansion_delta_rules,
    factored_delta_rules,
)
from repro.core.normalize import NormalizedProgram
from repro.core.strategy_pass import StrategyPass
from repro.datalog.stratify import Stratification
from repro.errors import MaintenanceError
from repro.eval.rule_eval import EvalContext, Resolver, evaluate_rule_into
from repro.eval.stratified import Semantics
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation

logger = logging.getLogger(__name__)

#: Delta-rule evaluation strategies (equivalent; see module docstring).
CountingMode = TypingLiteral["expansion", "factored"]


@dataclass
class CountingStats:
    """Work counters for one maintenance run (drives experiments E3–E5)."""

    rules_fired: int = 0
    variants_evaluated: int = 0
    delta_tuples_computed: int = 0
    strata_reached: int = 0
    cascades_suppressed: int = 0
    irrelevant_skipped: int = 0  # base rows rejected by the [BCL89] filter
    seconds: float = 0.0
    #: Wall seconds per pass phase: seed / propagate / apply.
    phase_seconds: Dict[str, float] = field(default_factory=dict)


@dataclass
class CountingResult:
    """Outcome of one counting-maintenance run.

    ``view_deltas`` maps each changed view to the signed count change
    applied to its stored relation (Theorem 4.1: exactly
    ``countⁿ(t) − count(t)`` per tuple).  ``cascaded`` holds what was
    propagated to higher strata (set-level under set semantics).
    """

    view_deltas: Dict[str, CountedRelation]
    cascaded: Dict[str, CountedRelation]
    stats: CountingStats = field(default_factory=CountingStats)

    def delta(self, view: str) -> CountedRelation:
        return self.view_deltas.get(view, CountedRelation(names.delta(view)))


def delta_neg_relation(
    old: CountedRelation, delta: CountedRelation
) -> CountedRelation:
    """The ``Δ(¬q)`` relation of Definition 6.1.

    A tuple ``t ∈ Δ(Q)`` contributes ``+1`` when it left the set
    projection of Q (¬q became true) and ``−1`` when it entered it
    (¬q became false); count-only changes contribute nothing.  Only
    tuples of Δ(Q) can appear — the relation is as small as the change.
    """
    out = CountedRelation(f"Δ¬({old.name})", old.arity)
    for row, change in delta.items():
        old_present = old.contains_positive(row)
        new_present = old.count(row) + change > 0
        if old_present and not new_present:
            out.add(row, 1)
        elif not old_present and new_present:
            out.add(row, -1)
    return out


#: Override kinds in a resolver recipe (see resolver_overrides_recipe).
_OLD, _DELTA, _NEW, _DELTA_NEG = range(4)


def resolver_overrides_recipe(rule) -> tuple:
    """``(predicate, kind, base_predicate)`` per distinct body literal.

    Pure rule structure — which names resolve to old relations, cascaded
    deltas (``Δ:``), new states (``ν:``), or Δ¬ relations — extracted
    once so repeated passes skip the per-literal prefix dispatch
    (:class:`~repro.eval.plan_cache.PlanCache` memoizes it per rule).
    """
    entries = []
    seen = set()
    for subgoal in rule.body_literals():
        predicate = subgoal.predicate
        if predicate in seen:
            continue
        seen.add(predicate)
        if predicate.startswith(names.DELTA_NEG):
            entries.append(
                (predicate, _DELTA_NEG, predicate[len(names.DELTA_NEG):])
            )
        elif predicate.startswith(names.DELTA):
            entries.append((predicate, _DELTA, predicate[len(names.DELTA):]))
        elif predicate.startswith(names.NEW):
            entries.append((predicate, _NEW, predicate[len(names.NEW):]))
        else:
            entries.append((predicate, _OLD, predicate))
    return tuple(entries)


class CountingMaintenance(StrategyPass):
    """One counting pass; create per changeset and call :meth:`run`."""

    checkpoint_prefix = "counting"

    def __init__(
        self,
        normalized: NormalizedProgram,
        stratification: Stratification,
        database: Database,
        views: Dict[str, CountedRelation],
        aggregate_views: Dict[str, AggregateView],
        semantics: Semantics = "set",
        mode: CountingMode = "expansion",
        prefilter_irrelevant: bool = True,
        **plumbing,
    ) -> None:
        if stratification.is_recursive:
            from repro.analysis.checks import counting_on_recursive
            from repro.errors import StrategyError

            diagnostic = counting_on_recursive(stratification)
            raise StrategyError(
                "the counting algorithm applies to nonrecursive views only; "
                "use DRed for recursive programs (Section 7) — "
                f"[{diagnostic.code}] {diagnostic.message}",
                diagnostic=diagnostic,
            )
        super().__init__(
            normalized, stratification, database, views, aggregate_views,
            **plumbing,
        )
        self.semantics = semantics
        self.mode = mode
        self.stats = CountingStats()
        #: [BCL89]-style pre-filter: base rows that provably cannot join
        #: into any rule are kept out of the delta propagation (the full
        #: changeset is still applied to the base relations).  Disabled
        #: only by the ablation benchmark.
        if not prefilter_irrelevant:
            self._relevance = None
        elif self.plan_cache is not None:
            self._relevance = self.plan_cache.relevance_filter(
                normalized.program
            )
        else:
            from repro.core.irrelevance import RelevanceFilter

            self._relevance = RelevanceFilter(normalized.program)
        # Signed deltas applied to stored counts, per predicate.
        self._store_deltas: Dict[str, CountedRelation] = {}
        # Deltas visible to delta rules of higher strata (Δ:q bindings).
        self._cascade: Dict[str, CountedRelation] = {}
        # Lazily materialized ν-relations (factored mode only).
        self._new_states: Dict[str, CountedRelation] = {}

    # ------------------------------------------------------------ resolvers

    def _old_relation(self, predicate: str) -> CountedRelation:
        relation = self.views.get(predicate)
        if relation is not None:
            return relation
        found = self.database.get(predicate)
        return found if found is not None else CountedRelation(predicate)

    def _new_relation(self, predicate: str) -> CountedRelation:
        """νq = q ⊎ Δ(q), materialized on first use (factored mode)."""
        cached = self._new_states.get(predicate)
        if cached is None:
            cached = self._old_relation(predicate).copy(names.new(predicate))
            delta = self._store_deltas.get(predicate)
            if delta is not None:
                cached.merge(delta)
            self._new_states[predicate] = cached
        return cached

    def _unit_policy(self, name: str) -> bool:
        """Section 5.1: under set semantics, non-Δ relations count as 1."""
        return not name.startswith((names.DELTA, names.DELTA_NEG))

    def _build_resolver(self, delta_rule: DeltaRule) -> Resolver:
        if self.plan_cache is not None:
            recipe = self.plan_cache.resolver_recipe(delta_rule.rule)
        else:
            recipe = resolver_overrides_recipe(delta_rule.rule)
        overrides: Dict[str, CountedRelation] = {}
        for predicate, kind, base_pred in recipe:
            if kind == _OLD:
                overrides[predicate] = self._old_relation(base_pred)
            elif kind == _DELTA:
                overrides[predicate] = self._cascade_of(base_pred)
            elif kind == _NEW:
                overrides[predicate] = self._new_relation(base_pred)
            else:
                overrides[predicate] = self._delta_neg(base_pred)
        return Resolver(None, overrides)

    def _delta_neg(self, predicate: str) -> CountedRelation:
        """The Δ(¬q) relation for the current change to ``predicate``.

        Under set semantics the cascaded delta already encodes exactly the
        set-projection crossings, so Δ(¬q) is its sign-flip: q entering
        the set (+1) makes ¬q false (−1) and vice versa.  Under duplicate
        semantics Definition 6.1 is applied to the true counts.
        """
        cascade = self._cascade_of(predicate)
        if self.semantics == "set":
            flipped = CountedRelation(f"Δ¬({predicate})", cascade.arity)
            for row, change in cascade.items():
                flipped.add(row, -change)
            return flipped
        return delta_neg_relation(self._old_relation(predicate), cascade)

    def _cascade_of(self, predicate: str) -> CountedRelation:
        found = self._cascade.get(predicate)
        return found if found is not None else CountedRelation(
            names.delta(predicate)
        )

    # -------------------------------------------------------------- the run

    def _maintain(self, changes: Changeset) -> None:
        """Algorithm 4.1 stratum by stratum, then fold into the store."""
        # Reported even for a pass whose changes reach no stratum.
        self.stats.phase_seconds["propagate"] = 0.0
        rules_by_stratum = self.strat.rules_by_stratum()
        for stratum in range(1, self.strat.max_stratum + 1):
            stratum_rules = rules_by_stratum[stratum]
            if not stratum_rules:
                continue
            changed = {
                predicate
                for predicate, delta in self._cascade.items()
                if delta
            }
            if not changed:
                break  # nothing can change above this point
            self.checkpoint("stratum")
            pending: Dict[str, CountedRelation] = {}
            with self.tracer.span(
                "stratum", f"stratum {stratum}", stratum=stratum,
                changed_predicates=len(changed),
            ) as stratum_span, self.phase("propagate"):
                fired = self._propagate_stratum(
                    stratum_rules, changed, pending
                )
                stratum_span.set(
                    delta_tuples=sum(len(d) for d in pending.values())
                )
                self._commit_stratum(pending)
            if fired:
                self.stats.strata_reached = stratum
        with self.phase("apply"):
            self._apply_to_store(changes)

    def _result(self) -> CountingResult:
        view_deltas = {
            name: delta
            for name, delta in self._store_deltas.items()
            if name in self.normalized.program.idb_predicates and delta
        }
        cascaded = {
            name: delta for name, delta in self._cascade.items() if delta
        }
        return CountingResult(view_deltas, cascaded, self.stats)

    # ----------------------------------------------------------- sub-steps

    def _propagate_stratum(
        self,
        stratum_rules,
        changed: Set[str],
        pending: Dict[str, CountedRelation],
    ) -> bool:
        """Fire every rule of one stratum into ``pending``; True if any did."""
        fired = False
        for rule in stratum_rules:
            head = rule.head.predicate
            if head in self.aggregate_views:
                delta_t = self._maintain_aggregate(head, changed)
                if delta_t is not None:
                    pending.setdefault(
                        head, CountedRelation(names.delta(head))
                    ).merge(delta_t)
                    fired = True
                continue
            contribution = self._apply_delta_rules(rule, changed)
            if contribution is not None:
                pending.setdefault(
                    head, CountedRelation(names.delta(head))
                ).merge(contribution)
                fired = True
        return fired

    def _seed(self, changes: Changeset) -> None:
        for name, delta in changes:
            if name in self.normalized.program.idb_predicates:
                raise MaintenanceError(
                    f"cannot change derived relation {name} directly; "
                    f"change the base relations it is derived from"
                )
            stored = self.database.get(name)
            for row, count in delta.negative_items():
                held = stored.count(row) if stored is not None else 0
                if held + count < 0:
                    raise MaintenanceError(
                        f"changeset deletes {-count} copies of {row!r} from "
                        f"{name} but only {held} are stored"
                    )
            self._store_deltas[name] = delta.copy()
            if self._relevance is None:
                propagated = delta.copy()
            else:
                propagated = CountedRelation(names.delta(name))
                for row, count in delta.items():
                    if self._relevance.is_relevant(name, row):
                        propagated.add(row, count)
                    else:
                        self.stats.irrelevant_skipped += 1
            if self.semantics == "set":
                old = self._old_relation(name)
                self._cascade[name] = _crossings(old, propagated)
            else:
                self._cascade[name] = propagated

    def _apply_delta_rules(
        self, rule, changed: Set[str]
    ) -> Optional[CountedRelation]:
        cache = self.plan_cache
        if self.mode == "expansion":
            if cache is not None:
                delta_rules = cache.expansion_variants(
                    rule, frozenset(changed)
                )
            else:
                delta_rules = expansion_delta_rules(rule, changed)
        else:
            variants = (
                cache.factored_variants(rule)
                if cache is not None
                else factored_delta_rules(rule)
            )
            delta_rules = [
                delta_rule
                for delta_rule in variants
                if self._delta_position_changed(delta_rule, changed)
            ]
        if not delta_rules:
            return None
        self.stats.rules_fired += 1
        self.guard.tick(rules=1)
        out = CountedRelation(names.delta(rule.head.predicate), rule.head.arity)
        unit = self._unit_policy if self.semantics == "set" else None
        if self.tracer.enabled:
            self._evaluate_traced(rule, changed, delta_rules, out, unit)
        else:
            self._evaluate_variants(delta_rules, out, unit, cache)
        self.stats.delta_tuples_computed += len(out)
        self.guard.tick(tuples=len(out))
        self.checkpoint("rule")
        return out if out else None

    def _evaluate_traced(self, rule, changed, delta_rules, out, unit) -> None:
        """:meth:`_evaluate_variants` inside a ``rule`` span."""
        cache = self.plan_cache
        hits0, misses0, probes0 = (
            (cache.hits, cache.misses, cache.index_probes)
            if cache is not None else (0, 0, 0)
        )
        with self.tracer.span(
            "rule", rule.head.predicate, variants=len(delta_rules),
            tuples_in=sum(
                len(self._cascade_of(predicate)) for predicate in changed
            ),
        ) as span:
            self._evaluate_variants(delta_rules, out, unit, cache)
            span.set(tuples_out=len(out))
            if cache is not None:
                span.set(
                    cache_hits=cache.hits - hits0,
                    cache_misses=cache.misses - misses0,
                    index_probes=cache.index_probes - probes0,
                )

    def _evaluate_variants(self, delta_rules, out, unit, cache) -> None:
        guard = self.guard
        for delta_rule in delta_rules:
            if guard.enabled:
                self.checkpoint("variant")
            resolver = self._build_resolver(delta_rule)
            ctx = EvalContext(resolver, unit_counts=unit, plan_cache=cache)
            evaluate_rule_into(delta_rule.rule, ctx, out, seed=delta_rule.seed)
            self.stats.variants_evaluated += 1

    def _delta_position_changed(
        self, delta_rule: DeltaRule, changed: Set[str]
    ) -> bool:
        """Skip factored delta rules whose Δ-subgoal is certainly empty."""
        subgoal = delta_rule.rule.body[delta_rule.seed]
        predicate = subgoal.predicate
        for prefix in (names.DELTA_NEG, names.DELTA):
            if predicate.startswith(prefix):
                return predicate[len(prefix):] in changed
        return True

    def _maintain_aggregate(
        self, head: str, changed: Set[str]
    ) -> Optional[CountedRelation]:
        view = self.aggregate_views[head]
        grouped_pred = view.aggregate.relation.predicate
        if grouped_pred not in changed:
            return None
        self.stats.rules_fired += 1
        self.guard.tick(rules=1)
        delta = self._cascade_of(grouped_pred)
        with self.tracer.span(
            "rule", head, aggregate=True, tuples_in=len(delta)
        ) as span:
            old_grouped = self._old_relation(grouped_pred)
            delta_t = view.maintain(old_grouped, delta, undo=self.undo)
            self.faults.fire("aggregate_merge")
            span.set(tuples_out=len(delta_t) if delta_t is not None else 0)
        return delta_t

    def _commit_stratum(self, pending: Dict[str, CountedRelation]) -> None:
        """Record Δ(P) for the stratum and derive what cascades upward."""
        guard = self.guard
        for predicate, delta in pending.items():
            if not delta:
                continue
            if guard.blowup_enabled:
                # The mid-pass blowup heuristic: a pending delta far
                # larger than the view it maintains means recompute
                # would be cheaper.
                guard.observe_delta_ratio(
                    predicate, len(delta), len(self._old_relation(predicate))
                )
            self._store_deltas.setdefault(
                predicate, CountedRelation(names.delta(predicate))
            ).merge(delta)
            if self.semantics == "set":
                old = self._old_relation(predicate)
                crossings = _crossings(old, delta)
                suppressed = len(delta) - len(crossings)
                if suppressed > 0:
                    self.stats.cascades_suppressed += suppressed
                self._cascade[predicate] = crossings
            else:
                self._cascade[predicate] = delta

    def _apply_to_store(self, changes: Changeset) -> None:
        self.checkpoint("apply")
        undo = self.undo
        if undo is not None:
            for name, delta in changes:
                relation = self.database.get(name)
                if relation is None:
                    undo.note_base_created(self.database, name)
                else:
                    undo.note_counts(relation, delta)
        self.database.apply_changeset(changes)
        self.faults.fire("count_merge")
        for predicate, delta in self._store_deltas.items():
            view = self.views.get(predicate)
            if view is None:
                continue  # base predicate: already applied via the changeset
            if undo is not None:
                undo.note_counts(view, delta)
            view.merge(delta)
            # Lemma 4.1: only a row the delta merged can have gone negative.
            view.check_nonnegative(delta)


def _crossings(old: CountedRelation, delta: CountedRelation) -> CountedRelation:
    """``set(P ⊎ Δ) − set(P)`` as a signed relation (statement (2)).

    +1 for tuples whose count rises from ≤0 to >0, −1 for tuples whose
    count falls to 0; computed from the old counts and the delta without
    materializing the new state.
    """
    out = CountedRelation(f"Δset({old.name})", old.arity)
    for row, change in delta.items():
        before = old.count(row)
        after = before + change
        if before > 0 and after <= 0:
            out.add(row, -1)
        elif before <= 0 and after > 0:
            out.add(row, 1)
    return out
