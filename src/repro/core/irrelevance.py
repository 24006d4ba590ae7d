"""Irrelevant-update detection ([BCL89], discussed in the paper's §2).

Blakeley, Coburn & Larson's "Updating Derived Relations: Detecting
Irrelevant and Autonomously Computable Updates" observed that many base
updates provably cannot affect a view — e.g. inserting
``link(x, y, 50)`` is irrelevant to ``cheap(X,Y,C) :- link(X,Y,C),
C < 5``.  The counting algorithm would discover that at delta-rule
evaluation time (the Δ-subgoal joins to nothing); this module rejects
such rows *before* any delta rule runs, with a purely syntactic test:

a changed row of relation ``q`` is **relevant** iff some rule has a
(possibly negated) body literal over ``q`` that the row *matches* —
constant arguments and repeated variables agree — and no comparison of
that rule over that literal's own bound variables evaluates to false.

The test is conservative, so filtering never changes results — only
work: an argument naming a variable the literal does not bind (``p(X +
1)`` with ``X`` bound elsewhere) matches anything, a comparison that
raises an :class:`~repro.errors.EvaluationError` keeps the row,
comparisons involving other subgoals' variables are not tested, and
aggregate-grouped relations use the inner literal's pattern.  The test
of each relation is compiled into one row filter
(:func:`~repro.eval.kernel.build_relevance_filter`) that runs over a
whole base delta per call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.datalog.ast import Aggregate, Comparison, Literal, Program
from repro.eval.kernel import Occurrence, build_relevance_filter
from repro.storage.relation import CountedRelation, Row


class RelevanceFilter:
    """One compiled row filter per relation the program reads."""

    def __init__(self, program: Program) -> None:
        occurrences: Dict[str, List[Occurrence]] = {}
        for rule in program:
            comparisons = tuple(
                subgoal
                for subgoal in rule.body
                if isinstance(subgoal, Comparison)
                and subgoal.op != "="  # '=' may be an assignment
            )
            for subgoal in rule.body:
                if isinstance(subgoal, Literal):
                    literal = subgoal
                elif isinstance(subgoal, Aggregate):
                    literal = subgoal.relation
                else:
                    continue
                occurrences.setdefault(literal.predicate, []).append(
                    (literal.args, comparisons)
                )
        self._filters: Dict[str, Callable] = {
            predicate: build_relevance_filter(tuple(found))
            for predicate, found in occurrences.items()
        }

    def relevant_part(
        self, relation: str, delta: CountedRelation
    ) -> Tuple[Dict[Row, int], int]:
        """``({row: count} of the relevant rows, #rows dropped)``."""
        keep = self._filters.get(relation)
        if keep is None:
            return {}, len(delta)  # no rule references the relation
        kept: Dict[Row, int] = {}
        return kept, keep(delta.items(), kept)

    def is_relevant(self, relation: str, row: Row) -> bool:
        """Can a change to ``relation(row)`` possibly affect any view?"""
        keep = self._filters.get(relation)
        return keep is not None and not keep(((row, 1),), {})
