"""Semi-naive fixpoint evaluation (set semantics).

The paper leans on semi-naive evaluation ([Ull89]) in three places: the
initial materialization of recursive views, the δ⁻ overestimate loop of
DRed step 1, and the δ⁺ insertion loop of DRed step 3.  All three share
the same differential skeleton, implemented here once:

* a set of *target* predicates is computed into caller-supplied
  relations (which may be pre-initialized — DRed's rederivation step
  starts from the pruned materialization);
* round 0 evaluates every rule over the current contents;
* each later round re-fires only rule *variants* in which one body
  occurrence of a target predicate is restricted to the last round's
  newly-derived rows (the classic one-delta-subgoal rewrite, which the
  paper reuses syntactically for its Δ-, δ⁻- and δ⁺-rules);
* rows already present are never re-added (set semantics; every stored
  count is 1).

The delta subgoal is pinned first in the join order (Section 6.1 notes
the delta is usually the most restrictive subgoal).
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datalog.ast import Literal, Rule
from repro.eval.rule_eval import EvalContext, Resolver, evaluate_rule
from repro.guard.budget import NOOP_METER
from repro.obs.trace import Tracer
from repro.storage.relation import CountedRelation

logger = logging.getLogger(__name__)

#: Namespace prefix for the per-round delta relations.
DELTA_PREFIX = "Δ⟲:"


def _unit(_: str) -> bool:
    return True


def _delta_variants(rule: Rule, targets: Iterable[str]) -> List[Tuple[Rule, int]]:
    """All one-delta-subgoal rewrites of ``rule`` w.r.t. ``targets``.

    Returns ``(variant, seed_index)`` pairs; the subgoal at ``seed_index``
    reads the delta relation ``Δ⟲:p`` instead of ``p``.
    """
    target_set = set(targets)
    variants: List[Tuple[Rule, int]] = []
    for index, subgoal in enumerate(rule.body):
        if (
            isinstance(subgoal, Literal)
            and not subgoal.negated
            and subgoal.predicate in target_set
        ):
            body = list(rule.body)
            body[index] = subgoal.with_predicate(DELTA_PREFIX + subgoal.predicate)
            variants.append((Rule(rule.head, tuple(body)), index))
    return variants


def _collect_new(
    derived: CountedRelation, target: CountedRelation, delta: CountedRelation
) -> None:
    """Add to ``delta`` (count 1) each derived row ``target`` lacks."""
    delta.absorb({
        row: 1
        for row in derived.rows()
        if not target.contains_positive(row) and row not in delta
    })


def seminaive(
    rules: Sequence[Rule],
    targets: Dict[str, CountedRelation],
    base: Resolver,
    max_rounds: Optional[int] = None,
    fire_round0: Optional[Sequence[bool]] = None,
    plan_cache=None,
    tracer=None,
    guard=None,
) -> Dict[str, CountedRelation]:
    """Run the differential fixpoint; mutate ``targets`` in place.

    ``targets`` maps every head predicate of ``rules`` to its output
    relation (possibly pre-populated; the fixpoint only adds rows, each
    with count 1).  ``base`` resolves every other predicate.  Returns the
    newly-added rows per predicate.

    ``max_rounds`` bounds the number of delta rounds (used by the
    recursive-counting divergence guard); ``None`` means run to fixpoint.

    ``fire_round0[k]`` — evaluate ``rules[k]`` fully in round 0 (default:
    all).  DRed's insertion step passes ``False`` for the plain recursive
    rules: they exist only to propagate target growth through their delta
    variants, and a full round-0 evaluation would amount to recomputing
    the view from scratch.

    ``plan_cache`` — an optional
    :class:`~repro.eval.plan_cache.PlanCache`; join plans and the
    one-delta-subgoal variant rewrites are then compiled once and reused
    across rounds *and* across maintenance passes (DRed rebuilds
    structurally-equal rules each pass, which hit the same entries).

    ``tracer`` — an optional :class:`~repro.obs.trace.Tracer` (default:
    a disabled one); each rule evaluation is wrapped in a ``rule`` span
    carrying the fixpoint round and the number of rows it contributed.

    ``guard`` — an optional :class:`~repro.guard.budget.BudgetMeter`;
    enabled meters get a cooperative cancellation checkpoint per
    fixpoint round (and per variant evaluation), so a budget breach
    interrupts a diverging fixpoint instead of waiting it out.
    """
    resolver = Resolver(base, dict(targets))
    ctx = EvalContext(resolver, unit_counts=_unit, plan_cache=plan_cache)
    target_names = frozenset(targets)
    if tracer is None:
        tracer = Tracer()
    if guard is None:
        guard = NOOP_METER

    added: Dict[str, CountedRelation] = {
        name: CountedRelation(f"added({name})", relation.arity)
        for name, relation in targets.items()
    }

    # Round 0: full evaluation over the current contents.
    last_delta: Dict[str, CountedRelation] = {
        name: CountedRelation(DELTA_PREFIX + name) for name in targets
    }
    for index, rule in enumerate(rules):
        if fire_round0 is not None and not fire_round0[index]:
            continue
        head = rule.head.predicate
        with tracer.span("rule", head, round=0) as span:
            derived = evaluate_rule(rule, ctx)
            span.set(tuples_out=len(derived))
        _collect_new(derived, targets[head], last_delta[head])

    rounds = 0
    while any(delta for delta in last_delta.values()):
        for name, delta in last_delta.items():
            targets[name].merge(delta)
            added[name].merge(delta)
        if max_rounds is not None and rounds >= max_rounds:
            break
        rounds += 1
        if guard.enabled:
            guard.tick(
                tuples=sum(len(delta) for delta in last_delta.values())
            )
        guard.checkpoint("seminaive.round")
        next_delta: Dict[str, CountedRelation] = {
            name: CountedRelation(DELTA_PREFIX + name) for name in targets
        }
        round_resolver = Resolver(
            resolver,
            {DELTA_PREFIX + name: delta for name, delta in last_delta.items()},
        )
        round_ctx = EvalContext(
            round_resolver, unit_counts=_unit, plan_cache=plan_cache
        )
        for rule in rules:
            head = rule.head.predicate
            if plan_cache is not None:
                variants = plan_cache.seminaive_variants(rule, target_names)
            else:
                variants = _delta_variants(rule, targets)
            for variant, seed in variants:
                if guard.enabled:
                    guard.checkpoint("seminaive.variant")
                with tracer.span("rule", head, round=rounds) as span:
                    derived = evaluate_rule(variant, round_ctx, seed=seed)
                    span.set(tuples_out=len(derived))
                _collect_new(derived, targets[head], next_delta[head])
        last_delta = next_delta
    tracer.event("seminaive_fixpoint", rounds=rounds, rules=len(rules))
    return added
