"""Evaluation substrate: count-aware joins, aggregates, and fixpoints."""

from repro.eval.aggregates import AGGREGATE_REGISTRY, get_aggregate_function
from repro.eval.naive import naive_materialize
from repro.eval.rule_eval import (
    EvalContext,
    Resolver,
    evaluate_rule,
    evaluate_rule_into,
    plan_body,
    solutions,
)
from repro.eval.seminaive import seminaive
from repro.eval.stratified import Semantics, materialize, materialize_into

__all__ = [
    "AGGREGATE_REGISTRY",
    "EvalContext",
    "Resolver",
    "Semantics",
    "evaluate_rule",
    "evaluate_rule_into",
    "get_aggregate_function",
    "materialize",
    "materialize_into",
    "naive_materialize",
    "plan_body",
    "seminaive",
    "solutions",
]
