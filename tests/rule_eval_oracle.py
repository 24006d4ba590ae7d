"""The row-at-a-time rule interpreter, kept as a test oracle.

This is how rules were evaluated before plans were compiled into join
kernels (:mod:`repro.eval.kernel`): one recursive generator per join
depth, a fresh binding dict per matched row, an ``isinstance`` dispatch
per subgoal per row.  It is slow and obviously faithful to Section 3
(a join multiplies counts, ⊎ sums them), which is what an oracle should
be.  ``tests/test_join_kernel.py`` checks the kernels against it: rows,
counts, bindings and index probes.

Planning is shared with the engine (:func:`plan_body`, ``_key_spec``);
what is under test is how a plan is *run*.  Pass ``plan`` (a compiled
plan's ``order``/``specs``) to interpret exactly the plan a kernel ran,
and ``counter`` (anything with an ``index_probes`` attribute) to count
the indexed probes the way the kernels count them.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.ast import Aggregate, Comparison, Literal, Rule, Subgoal
from repro.datalog.safety import directly_bound_variables
from repro.datalog.terms import Constant, Term, Variable
from repro.errors import EvaluationError
from repro.eval.aggregates import get_aggregate_function
from repro.eval.rule_eval import EvalContext, _key_spec, plan_body
from repro.storage.relation import CountedRelation, Row

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_UNBOUND = object()


def match_args(
    args: Sequence[Term], row: Row, binding: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Extend ``binding`` so that ``args`` matches ``row``; None on failure."""
    if len(args) != len(row):
        return None
    extended: Optional[Dict[str, object]] = None
    deferred: List[Tuple[Term, object]] = []
    for arg, value in zip(args, row):
        if isinstance(arg, Variable):
            current = binding if extended is None else extended
            bound = current.get(arg.name, _UNBOUND)
            if bound is _UNBOUND:
                if extended is None:
                    extended = dict(binding)
                extended[arg.name] = value
            elif bound != value:
                return None
        elif isinstance(arg, Constant):
            if arg.value != value:
                return None
        else:
            deferred.append((arg, value))
    final = extended if extended is not None else binding
    for term, value in deferred:
        if term.evaluate(final) != value:
            return None
    return final if extended is not None else dict(binding)


def _positive(literal, binding, ctx, key_positions, key_terms, counter):
    relation = ctx.resolver.relation(literal.predicate)
    if key_positions:
        key = tuple(term.evaluate(binding) for term in key_terms)
        rows = relation.lookup(key_positions, key)
        if counter is not None:
            counter.index_probes += 1
    else:
        rows = relation.rows()
    for row in rows:
        extended = match_args(literal.args, row, binding)
        if extended is None:
            continue
        count = _row_count(ctx, literal.predicate, relation, row)
        if count:
            yield extended, count


def _negated(literal, binding, ctx):
    relation = ctx.resolver.relation(literal.predicate)
    row = tuple(arg.evaluate(binding) for arg in literal.args)
    if not relation.contains_positive(row):
        yield binding, 1


def _comparison(comparison, binding):
    if comparison.op == "=":
        left_ready = comparison.left.variables() <= binding.keys()
        right_ready = comparison.right.variables() <= binding.keys()
        if left_ready and not right_ready and isinstance(comparison.right, Variable):
            extended = dict(binding)
            extended[comparison.right.name] = comparison.left.evaluate(binding)
            yield extended, 1
            return
        if right_ready and not left_ready and isinstance(comparison.left, Variable):
            extended = dict(binding)
            extended[comparison.left.name] = comparison.right.evaluate(binding)
            yield extended, 1
            return
    left = comparison.left.evaluate(binding)
    right = comparison.right.evaluate(binding)
    try:
        ok = _COMPARE[comparison.op](left, right)
    except TypeError as exc:
        raise EvaluationError(
            f"cannot compare {left!r} {comparison.op} {right!r}: {exc}"
        ) from exc
    if ok:
        yield binding, 1


def _row_count(ctx, predicate: str, relation, row: Row) -> int:
    if ctx.unit_counts is not None and ctx.unit_counts(predicate):
        return 1
    return relation.count(row)


def aggregate_relation(aggregate: Aggregate, ctx: EvalContext) -> CountedRelation:
    """The oracle's own GROUPBY fold: group the matched rows, fold each
    group with the registered function (a domain error escapes raw)."""
    function = get_aggregate_function(aggregate.function)
    inner = aggregate.relation
    relation = ctx.resolver.relation(inner.predicate)
    groups: Dict[Row, List[Tuple[object, int]]] = {}
    for row, stored in relation.items():
        binding = match_args(inner.args, row, {})
        if stored <= 0 or binding is None:
            continue
        key = tuple(binding[v.name] for v in aggregate.group_by)
        value = aggregate.argument.evaluate(binding)
        count = _row_count(ctx, inner.predicate, relation, row)
        groups.setdefault(key, []).append((value, count))
    out = CountedRelation(str(aggregate), len(aggregate.group_by) + 1)
    for key, values in groups.items():
        state = function.compute(values)
        if not function.is_empty(state):
            out.add(key + (function.result(state),), 1)
    return out


def _aggregate(aggregate, binding, ctx, folded):
    relation = folded.get(aggregate)
    if relation is None:
        relation = folded[aggregate] = aggregate_relation(aggregate, ctx)
    exported: Tuple[Term, ...] = tuple(aggregate.group_by) + (aggregate.result,)
    key_positions, key_terms = _key_spec(Literal("", exported), set(binding))
    if key_positions:
        key = tuple(term.evaluate(binding) for term in key_terms)
        rows = relation.lookup(key_positions, key)
    else:
        rows = relation.rows()
    for row in rows:
        extended = match_args(exported, row, binding)
        if extended is not None:
            yield extended, relation.count(row)


def solutions(
    rule: Rule,
    ctx: EvalContext,
    seed: Optional[int] = None,
    initial_binding: Optional[Dict[str, object]] = None,
    plan=None,
    counter=None,
) -> Iterator[Tuple[Dict[str, object], int]]:
    """All body solutions of ``rule`` as ``(binding, count)`` pairs."""
    start = initial_binding if initial_binding is not None else {}
    if plan is not None:
        order: Sequence[Subgoal] = plan.order
        specs = plan.specs
    else:
        order = plan_body(rule.body, seed, ctx)
        bound: set = set(start)
        specs = []
        for subgoal in order:
            if isinstance(subgoal, Literal) and not subgoal.negated:
                specs.append(_key_spec(subgoal, bound))
            else:
                specs.append(((), ()))
            bound |= directly_bound_variables(subgoal, bound)
    folded: Dict[Aggregate, CountedRelation] = {}

    def extend(depth, binding, count):
        if depth == len(order):
            yield binding, count
            return
        subgoal = order[depth]
        if isinstance(subgoal, Literal):
            if subgoal.negated:
                stream = _negated(subgoal, binding, ctx)
            else:
                key_positions, key_terms = specs[depth]
                stream = _positive(
                    subgoal, binding, ctx, key_positions, key_terms, counter
                )
        elif isinstance(subgoal, Comparison):
            stream = _comparison(subgoal, binding)
        else:
            assert isinstance(subgoal, Aggregate)
            stream = _aggregate(subgoal, binding, ctx, folded)
        for extended, sub_count in stream:
            yield from extend(depth + 1, extended, count * sub_count)

    yield from extend(0, start, 1)


def evaluate_rule(
    rule: Rule, ctx: EvalContext, seed: Optional[int] = None, plan=None,
    counter=None,
) -> CountedRelation:
    """The counted relation of head rows derived by ``rule``."""
    out = CountedRelation(rule.head.predicate, rule.head.arity)
    for binding, count in solutions(
        rule, ctx, seed, plan=plan, counter=counter
    ):
        if count == 0:
            continue
        out.add(tuple(arg.evaluate(binding) for arg in rule.head.args), count)
    return out
