"""View-redefinition maintenance: rule insertions and deletions.

Section 7: *"The algorithm [DRed] can also maintain materialized views
incrementally when rules defining derived relations are inserted or
deleted."*  The mechanics mirror tuple maintenance:

* a **deleted rule** invalidates exactly the derivations it produced, so
  its derivations (evaluated over the *old* state) seed DRed's δ⁻
  overestimate; rederivation then restores every tuple that other rules
  still derive;
* an **inserted rule** contributes exactly its own derivations, so it is
  evaluated in full during DRed's insertion step (its recursive delta
  variants then propagate the growth).

Deletion propagation follows the *old* program's rules (those are the
derivations that existed); rederivation and insertion propagation follow
the *new* program's rules.  Stratification is computed over the union of
both rule sets, so changes are still applied stratum by stratum.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core import names
from repro.core.agg_maintenance import AggregateView
from repro.core.dred import DRedMaintenance, DRedResult
from repro.core.normalize import NormalizedProgram, normalize_program
from repro.datalog.ast import Program, Rule
from repro.datalog.safety import check_program_safety
from repro.datalog.stratify import Stratification, stratify
from repro.errors import MaintenanceError
from repro.eval.rule_eval import EvalContext, Resolver, evaluate_rule
from repro.storage.changeset import Changeset
from repro.storage.relation import CountedRelation


def maintain_rule_changes(
    maintainer,
    added: List[Rule],
    removed: List[Rule],
    undo=None,
) -> Tuple[NormalizedProgram, Stratification, DRedResult]:
    """Apply rule changes to a :class:`ViewMaintainer`'s materializations.

    Mutates ``maintainer.views`` / ``maintainer.aggregate_views`` in
    place and returns the new normalized program, its stratification,
    and the DRed result describing the net view changes.  The DRed pass
    notes the pre-image of every view row it touches in ``undo``.
    """
    old_program: Program = maintainer.program
    new_program = old_program.with_rules(added=added, removed=removed)
    check_program_safety(new_program)
    old_normalized: NormalizedProgram = maintainer.normalized
    new_normalized = normalize_program(new_program)

    old_rules = list(old_normalized.program.rules)
    new_rules = list(new_normalized.program.rules)
    combined_rules = list(dict.fromkeys(old_rules + new_rules))
    combined = Program(
        combined_rules,
        tuple(
            set(old_normalized.program.edb_predicates)
            & set(new_normalized.program.edb_predicates)
        ),
    )
    combined_strat = stratify(combined)

    views: Dict[str, CountedRelation] = maintainer.views
    for predicate in combined.idb_predicates:
        if predicate not in views:
            views[predicate] = CountedRelation(
                predicate, combined.arity_of(predicate)
            )

    # Aggregate views for synthetic predicates introduced by the change.
    for predicate, rule in new_normalized.aggregate_rules.items():
        if predicate in maintainer.aggregate_views:
            continue
        view = AggregateView(rule, unit_counts=True)
        grouped = Resolver(maintainer.database, views).relation(
            rule.body[0].relation.predicate
        )
        # The stored extent of a freshly-added aggregate view is its
        # old-state groups; DRed then maintains it as lower strata change.
        views[predicate] = view.initialize(grouped)
        maintainer.aggregate_views[predicate] = view

    removed_set = set(old_rules) - set(new_rules)
    added_set = frozenset(set(new_rules) - set(old_rules))
    aggregate_preds = set(old_normalized.aggregate_rules) | set(
        new_normalized.aggregate_rules
    )
    for rule in removed_set | set(added_set):
        if rule.head.predicate in aggregate_preds and rule.head.predicate in (
            set(old_normalized.aggregate_rules) & set(new_normalized.aggregate_rules)
        ):
            raise MaintenanceError(
                f"cannot change the definition of aggregate view "
                f"{rule.head.predicate} incrementally; rebuild the maintainer"
            )

    # Derivations of removed rules over the OLD state seed the δ⁻ pass.
    seeds: Dict[str, CountedRelation] = {}
    old_resolver = Resolver(maintainer.database, views)
    for rule in removed_set:
        ctx = EvalContext(old_resolver, unit_counts=lambda _n: True)
        derived = evaluate_rule(rule, ctx)
        if not derived:
            continue
        seed = seeds.setdefault(
            rule.head.predicate,
            CountedRelation(names.source("seed", rule.head.predicate),
                            rule.head.arity),
        )
        for row in derived.rows():
            seed.set_count(row, 1)

    run = DRedMaintenance(
        new_normalized,
        combined_strat,
        maintainer.database,
        views,
        maintainer.aggregate_views,
        old_rules=old_rules,
        full_round0_rules=added_set,
        deletion_seeds=seeds,
        undo=undo,
        plan_cache=maintainer.plan_cache,
    )
    result = run.run(Changeset())

    # Drop views for predicates no longer defined by any rule.
    for predicate in list(views):
        if (
            predicate not in new_normalized.program.idb_predicates
            and predicate in combined.idb_predicates
        ):
            del views[predicate]
            maintainer.aggregate_views.pop(predicate, None)

    new_strat = stratify(new_normalized.program)
    return new_normalized, new_strat, result
