"""The maintenance-strategy advisor: counting vs B/F, per stratum.

The paper proposes "the counting algorithm for nonrecursive views, and
the DRed algorithm for recursive views" (Section 1); related systems
show the choice is a *static* property of the program (Hu, Motik &
Horrocks pick B/F vs DRed per rule).  :func:`advise` reproduces exactly
the dispatch :class:`~repro.core.maintenance.ViewMaintainer` applies
under ``strategy="auto"`` — so a lint run predicts what the engine will
do — and refines it per stratum: a recursive stratum needs a
delete/rederive fixpoint (B/F, subsuming DRed), a nonrecursive stratum
could be maintained by counting even inside an otherwise-recursive
program.  When a recursive predicate is derived by two or more rules —
the alternative-derivation fan-in that makes DRed's overestimate
pathological — the advisor additionally emits ``RV203`` naming the B/F
upgrade explicitly.

On top of the recommendation the advisor predicts which guard limits
(:class:`~repro.guard.MaintenanceBudget`) a program is likely to trip.
The prediction uses each engine's *actual* metering (see
:func:`metered_firings`): the counting engine ticks the budget once per
maintained rule per pass, DRed once per Definition 4.1 factored delta
rule in its delete and insertion phases — so a ``max_rule_firings``
below that static total breaches on any pass touching every rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.checks import deltable_subgoals
from repro.datalog.ast import Aggregate, Program, Rule
from repro.datalog.stratify import Stratification


@dataclass(frozen=True)
class StratumAdvice:
    """The recommendation for one stratum."""

    stratum: int
    predicates: Tuple[str, ...]
    recursive: bool
    strategy: str  # "counting" | "bf"

    def to_dict(self) -> Dict[str, object]:
        return {
            "stratum": self.stratum,
            "predicates": list(self.predicates),
            "recursive": self.recursive,
            "strategy": self.strategy,
        }


@dataclass(frozen=True)
class StrategyAdvice:
    """The advisor's full output.

    ``overall`` matches ``ViewMaintainer``'s own ``strategy="auto"``
    resolution on the same program (asserted over every example program
    by ``tests/test_analysis.py``).
    """

    overall: str  # "counting" | "bf"
    per_stratum: Tuple[StratumAdvice, ...]
    #: Definition 4.1 variant totals: worst-case delta-rule firings one
    #: maintenance pass can attempt, in factored and expansion mode.
    factored_variants: int
    expansion_variants: int
    diagnostics: Tuple[Diagnostic, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        return {
            "overall": self.overall,
            "per_stratum": [advice.to_dict() for advice in self.per_stratum],
            "factored_variants": self.factored_variants,
            "expansion_variants": self.expansion_variants,
        }


def variant_counts(program: Program) -> Tuple[int, int]:
    """Worst-case delta-variant totals per pass (Definition 4.1).

    Returns ``(factored, expansion)``: the factored rewrite yields one
    delta rule per deltable subgoal; the expansion rewrite enumerates
    every nonempty subset, ``2^n - 1`` variants.  Aggregate rules are
    maintained by Algorithm 6.1 and count as a single group update.
    """
    factored = 0
    expansion = 0
    for rule in program:
        if rule.is_fact:
            continue
        if any(isinstance(s, Aggregate) for s in rule.body):
            factored += 1
            expansion += 1
            continue
        n = deltable_subgoals(rule)
        factored += n
        expansion += (2 ** n - 1) if n else 0
    return factored, expansion


def advise(
    stratification: Stratification,
    *,
    counting_mode: str = "expansion",
    budget: Optional[object] = None,
) -> StrategyAdvice:
    """Recommend a maintenance strategy for the stratified program.

    ``budget`` is duck-typed against
    :class:`~repro.guard.MaintenanceBudget` (``max_rule_firings``,
    ``max_delta_tuples``, ``deadline_seconds``); when given, limits the
    program's static variant count alone could trip produce ``RV202``
    warnings.
    """
    program = stratification.program
    overall = "bf" if stratification.is_recursive else "counting"

    per_stratum: List[StratumAdvice] = []
    for number, predicates in enumerate(stratification.strata):
        if number == 0:
            continue  # the base stratum is not maintained
        derived = tuple(sorted(predicates & program.idb_predicates))
        if not derived:
            continue
        recursive = any(
            predicate in stratification.recursive_predicates
            for predicate in derived
        )
        per_stratum.append(
            StratumAdvice(
                stratum=number,
                predicates=derived,
                recursive=recursive,
                strategy="bf" if recursive else "counting",
            )
        )

    factored, expansion = variant_counts(program)

    diagnostics: List[Diagnostic] = [
        make_diagnostic(
            "RV201",
            _recommendation_message(overall, per_stratum),
            data={
                "overall": overall,
                "per_stratum": [a.to_dict() for a in per_stratum],
                "factored_variants": factored,
                "expansion_variants": expansion,
            },
        )
    ]
    diagnostics.extend(_bf_fan_in(stratification))
    diagnostics.extend(_budget_risks(program, overall, budget))
    return StrategyAdvice(
        overall=overall,
        per_stratum=tuple(per_stratum),
        factored_variants=factored,
        expansion_variants=expansion,
        diagnostics=tuple(diagnostics),
    )


def _recommendation_message(
    overall: str, per_stratum: List[StratumAdvice]
) -> str:
    if overall == "counting":
        return (
            "recommend strategy='counting': the program is nonrecursive "
            "(Section 1 proposes counting for nonrecursive views)"
        )
    counting_strata = [a for a in per_stratum if a.strategy == "counting"]
    message = (
        "recommend strategy='bf': the program is recursive (Section 1 "
        "proposes DRed for recursive views; Backward/Forward subsumes "
        "it by checking for alternative derivations before deleting)"
    )
    if counting_strata:
        listed = ", ".join(
            f"stratum {a.stratum} ({', '.join(a.predicates)})"
            for a in counting_strata
        )
        message += (
            f"; nonrecursive strata could use counting if maintained "
            f"separately: {listed}"
        )
    return message


def _bf_fan_in(stratification: Stratification) -> List[Diagnostic]:
    """RV203: recursive predicates with alternative-derivation fan-in.

    The static proxy for "dense in alternative derivations" is a
    recursive predicate derived by two or more rules — every tuple can
    then have derivations through distinct rules, exactly the shape on
    which DRed's overestimate explodes and B/F's backward check pays
    off (Hu, Motik & Horrocks).
    """
    if not stratification.is_recursive:
        return []
    fan_in: Dict[str, int] = {}
    for rule in stratification.program:
        if rule.is_fact:
            continue
        predicate = rule.head.predicate
        if predicate in stratification.recursive_predicates:
            fan_in[predicate] = fan_in.get(predicate, 0) + 1
    dense = {name: n for name, n in sorted(fan_in.items()) if n >= 2}
    if not dense:
        return []
    listed = ", ".join(f"{name} ({n} rules)" for name, n in dense.items())
    return [
        make_diagnostic(
            "RV203",
            "recursive predicates with alternative-derivation fan-in: "
            f"{listed} — the B/F backward check avoids DRed's "
            "overdeletion here (strategy='auto' already selects it)",
            predicate=next(iter(dense)),
            data={"fan_in": dense},
        )
    ]


def metered_firings(program: Program, strategy: str) -> int:
    """Worst-case rule firings one pass meters against the guard budget.

    Mirrors how each engine actually ticks its
    :class:`~repro.guard.budget.BudgetMeter` (verified against
    ``BudgetExceeded`` behavior): the counting engine meters **one
    firing per maintained rule** per pass (its Definition 4.1 variants
    ride inside that single firing), while DRed and B/F meter one
    firing per factored delta rule in their delete and insertion phases
    plus one per rule rederived (for B/F this is the first-wave total;
    later waves only fire when deletions actually cascade).
    """
    rules = sum(1 for rule in program if not rule.is_fact)
    if strategy == "counting":
        return rules
    factored, _ = variant_counts(program)
    return 2 * factored + rules


def _budget_risks(
    program: Program,
    overall: str,
    budget: Optional[object],
) -> List[Diagnostic]:
    """RV202: guard limits the program's static shape alone can trip."""
    if budget is None:
        return []
    max_firings = getattr(budget, "max_rule_firings", None)
    diagnostics: List[Diagnostic] = []
    per_pass = metered_firings(program, overall)
    if max_firings is not None and per_pass > max_firings:
        worst: Optional[Rule] = max(
            (r for r in program if not r.is_fact),
            key=deltable_subgoals,
            default=None,
        )
        message = (
            f"one full maintenance pass meters up to {per_pass} "
            f"delta-rule firings under strategy='{overall}', above the "
            f"guard budget of {max_firings} — a worst-case pass "
            "(touching every rule) could breach and fall back"
        )
        diagnostics.append(
            make_diagnostic(
                "RV202",
                message,
                span=worst.span if worst is not None else None,
                rule=worst,
                predicate=(
                    worst.head.predicate if worst is not None else None
                ),
                data={
                    "per_pass_firings": per_pass,
                    "max_rule_firings": max_firings,
                    "strategy": overall,
                },
            )
        )
    return diagnostics
