"""Stratum-by-stratum program evaluation (the full materialization path).

Evaluates a stratified program bottom-up, one stratum at a time, under
either count semantics (Section 5):

* ``semantics="set"`` — the Section 5.1 scheme: within each
  *nonrecursive* stratum the engine computes full duplicate semantics
  (each derivation contributes 1, derivations sum), while every relation
  of a lower stratum is read with count 1.  The stored counts therefore
  equal "number of derivations assuming lower-strata tuples have
  count 1", exactly what Algorithm 4.1 consumes.  Recursive strata are
  computed by semi-naive set evaluation with all counts 1 (counting does
  not apply; DRed maintains them).

* ``semantics="duplicate"`` — SQL bag semantics ([Mum91]): stored counts
  multiply through strata; base-relation multiplicities are honoured.
  Only nonrecursive programs are supported (recursive duplicate counts
  may be infinite — Section 8).

The result is a dict of freshly materialized idb relations; the input
database is never mutated.
"""

from __future__ import annotations

from typing import Dict, Literal as TypingLiteral, Optional

from repro.datalog.ast import Program
from repro.datalog.safety import check_program_safety
from repro.datalog.stratify import Stratification, stratify
from repro.errors import MaintenanceError
from repro.eval.rule_eval import EvalContext, Resolver, evaluate_rule_into
from repro.eval.seminaive import seminaive
from repro.storage.database import Database
from repro.storage.relation import CountedRelation

#: The two count semantics of Section 5.
Semantics = TypingLiteral["set", "duplicate"]


def materialize(
    program: Program,
    database: Database,
    semantics: Semantics = "set",
    stratification: Optional[Stratification] = None,
    aggregates: Optional[Dict] = None,
) -> Dict[str, CountedRelation]:
    """Materialize every idb predicate of ``program`` over ``database``.

    Returns ``{predicate: relation}`` for the derived predicates; base
    relations are read from ``database`` and left untouched.  A dict
    passed as ``aggregates`` receives the view each GROUPBY folded
    through (:attr:`EvalContext.aggregates`), for a maintainer to adopt.
    """
    check_program_safety(program)
    strat = stratification if stratification is not None else stratify(program)
    if semantics == "duplicate" and strat.is_recursive:
        raise MaintenanceError(
            "duplicate semantics over a recursive program may yield "
            "infinite counts (Section 8); use set semantics"
        )

    results: Dict[str, CountedRelation] = {}
    resolver = Resolver(database, results)
    unit_policy = (lambda _name: True) if semantics == "set" else None
    rules_by_stratum = strat.rules_by_stratum()

    for stratum in range(1, strat.max_stratum + 1):
        stratum_rules = rules_by_stratum[stratum]
        if not stratum_rules:
            continue
        recursive_rules = [
            rule for rule in stratum_rules if strat.is_recursive_rule(rule)
        ]
        flat_rules = [
            rule for rule in stratum_rules if not strat.is_recursive_rule(rule)
        ]

        # Nonrecursive predicates: one pass per rule; derivations sum, so
        # stored counts are per-stratum duplicate counts (Section 5.1).
        ctx = EvalContext(resolver, unit_counts=unit_policy, aggregates=aggregates)
        for rule in flat_rules:
            head = rule.head.predicate
            out = results.get(head)
            if out is None:
                out = CountedRelation(head, rule.head.arity)
                results[head] = out
            evaluate_rule_into(rule, ctx, out)

        # Recursive predicates: semi-naive set fixpoint (all counts 1).
        if recursive_rules:
            targets = {}
            for rule in recursive_rules:
                head = rule.head.predicate
                if head not in targets:
                    relation = results.get(head)
                    if relation is None:
                        relation = CountedRelation(head, rule.head.arity)
                        results[head] = relation
                    targets[head] = relation
            seminaive(recursive_rules, targets, resolver)

    # Predicates defined only by rules in stratum 0 cannot exist; ensure
    # every idb predicate has a (possibly empty) relation for uniformity.
    for predicate in program.idb_predicates:
        if predicate not in results:
            results[predicate] = CountedRelation(
                predicate, program.arity_of(predicate)
            )
    return results


def materialize_into(
    program: Program,
    database: Database,
    semantics: Semantics = "set",
    stratification: Optional[Stratification] = None,
) -> Database:
    """Like :func:`materialize`, but store results into ``database``.

    Convenience for the recompute baseline and the examples: after the
    call, ``database.relation(view)`` holds the view's extent.
    """
    results = materialize(program, database, semantics, stratification)
    for name, relation in results.items():
        existing = database.get(name)
        if existing is None:
            database.ensure_relation(name, relation.arity)
            existing = database.relation(name)
        existing.clear()
        existing.merge(relation)
    return database
