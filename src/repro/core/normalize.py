"""Program normalization: isolate GROUPBY subgoals into their own rules.

Both maintenance algorithms become simpler (and match the paper's own
usage — Example 6.2 defines ``min_cost_hop`` by a rule whose body is a
single GROUPBY) when every aggregate subgoal is the *sole* body subgoal
of a dedicated rule.  Normalization rewrites::

    p(X, M) :- q(X), GROUPBY(u(X2, C), [X2], M = MIN(C)), M < 7.

into::

    $agg:p#0(X2, M) :- GROUPBY(u(X2, C), [X2], M = MIN(C)).
    p(X, M)         :- q(X), $agg:p#0(X, M), M < 7.

The synthetic predicate is materialized and maintained like any other
view; Algorithm 6.1 applies to the synthetic rule directly.  The
rewrite preserves semantics: the GROUPBY subgoal already denoted a
duplicate-free relation over ``group_by + (result,)`` (Section 6.2), and
the replacement literal reads exactly that relation.

Variable hygiene: the synthetic rule reuses the aggregate's own
variables, and the replacement literal uses the aggregate's *exported*
variables, so no renaming is needed (the subgoal's other inner variables
were local to it by safety).  A rule whose body is a single GROUPBY is
already normal only when its head is exactly ``group_by + (result,)``;
any other head (``t(M, R)``, ``t(M)``) reads a synthetic rule too, since
Algorithm 6.1 emits group tuples in that one shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core import names
from repro.datalog.ast import Aggregate, Literal, Program, Rule, Subgoal


@dataclass(frozen=True)
class NormalizedProgram:
    """A normalization result.

    Attributes:
        program: the rewritten program (no aggregate appears in a rule
            with more than one body subgoal).
        aggregate_rules: synthetic-predicate → its single GROUPBY rule.
        original: the program before rewriting.
    """

    program: Program
    aggregate_rules: Dict[str, Rule]
    original: Program

    @property
    def synthetic_predicates(self) -> Tuple[str, ...]:
        return tuple(self.aggregate_rules)

    def is_synthetic(self, predicate: str) -> bool:
        return predicate in self.aggregate_rules


def _exported(aggregate: Aggregate) -> Tuple:
    return tuple(aggregate.group_by) + (aggregate.result,)


def normalize_program(program: Program) -> NormalizedProgram:
    """Extract every non-solitary GROUPBY subgoal into a synthetic rule."""
    rewritten: List[Rule] = []
    aggregate_rules: Dict[str, Rule] = {}

    counter = 0
    for rule in program:
        solitary = len(rule.body) == 1 and isinstance(rule.body[0], Aggregate)
        if solitary and rule.head.args == _exported(rule.body[0]):
            # Already in normal form; keep as-is and index it.
            rewritten.append(rule)
            aggregate_rules.setdefault(rule.head.predicate, rule)
            continue
        body: List[Subgoal] = []
        for subgoal in rule.body:
            if not isinstance(subgoal, Aggregate):
                body.append(subgoal)
                continue
            synthetic = names.aggregate_predicate(rule.head.predicate, counter)
            counter += 1
            exported = _exported(subgoal)
            synthetic_head = Literal(synthetic, exported)
            synthetic_rule = Rule(synthetic_head, (subgoal,))
            aggregate_rules[synthetic] = synthetic_rule
            rewritten.append(synthetic_rule)
            body.append(Literal(synthetic, exported))
        rewritten.append(Rule(rule.head, tuple(body)))

    # Base declarations carry over: the original edb is still the edb.
    normalized = Program(rewritten, tuple(program.edb_predicates))
    return NormalizedProgram(normalized, aggregate_rules, program)
