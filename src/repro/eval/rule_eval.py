"""Count-aware evaluation of a single rule.

This is the substrate both maintenance algorithms stand on: given a rule
and a *resolver* (anything mapping relation names to
:class:`~repro.storage.relation.CountedRelation`), produce the head rows
the rule derives, with counts.  Per Section 3, the count of a derived row
is the *product* of the counts of the joined body rows, and rows derived
by multiple bindings (or multiple rules) accumulate by ⊎.

Key properties:

* **Signed counts flow through.**  Delta relations with negative counts
  participate in joins like any other relation, so a single evaluation of
  a delta rule emits both insertions and deletions (Definition 3.2).
* **Count policy is pluggable.**  ``unit_counts(predicate)`` → True makes
  rows of that predicate count as 1 regardless of stored multiplicity —
  this implements the Section 5.1 convention that tuples of lower strata
  have count 1 under set semantics, while Δ-relations keep their stored
  signed counts.
* **Join order is planned.**  Subgoals are greedily reordered so that
  every subgoal's requirements (safety) are met, filters run early, and
  the caller can pin a *seed* subgoal (the Δ-subgoal of a delta rule,
  "usually the most restrictive subgoal … used first in the join order",
  Section 6.1) to the front.
* **Index-backed lookups.**  Positive literals probe hash indexes on the
  statically-known bound positions instead of scanning; a literal whose
  every position is known is a membership probe of the row store.
* **Compiled.**  A plan runs as a generated straight-line function
  (:mod:`repro.eval.kernel`), either ⊎-ing head rows into a dict
  (:func:`evaluate_rule_into`) or yielding bindings (:func:`solutions`).
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple,
)

from repro.datalog.ast import Aggregate, Comparison, Literal, Rule, Subgoal
from repro.datalog.safety import directly_bound_variables
from repro.datalog.terms import Term, Variable
from repro.errors import EvaluationError
from repro.eval.kernel import EMPTY as _EMPTY
from repro.eval.kernel import KeySpec, build_kernel
from repro.storage.database import Database
from repro.storage.relation import CountedRelation, Row

#: Signature of the per-predicate count policy; True → each row counts 1.
UnitCountPolicy = Callable[[str], bool]


class Resolver:
    """Maps relation names to relations; missing names resolve to empty.

    ``overrides`` shadow the ``base`` store — the maintenance algorithms
    use this to graft Δ- and new-state relations over the database
    without copying it.
    """

    __slots__ = ("base", "overrides")

    def __init__(
        self,
        base: "Database | Resolver | Dict[str, CountedRelation] | None" = None,
        overrides: Optional[Dict[str, CountedRelation]] = None,
    ) -> None:
        self.base = base
        self.overrides = overrides if overrides is not None else {}

    def relation(self, name: str) -> CountedRelation:
        found = self.overrides.get(name)
        if found is not None:
            return found
        base = self.base
        if base is None:
            return _EMPTY
        if isinstance(base, Resolver):
            return base.relation(name)
        found = base.get(name)
        return _EMPTY if found is None else found

    def bind(self, name: str, relation: CountedRelation) -> None:
        self.overrides[name] = relation


class EvalContext:
    """Shared evaluation state: resolver, count policy, aggregate views.

    ``plan_cache`` (optional) is a
    :class:`~repro.eval.plan_cache.PlanCache`: when set,
    :func:`solutions` reuses compiled plans instead of re-planning, and
    indexed probes are counted on the cache's ``index_probes`` counter.
    ``aggregates`` maps each GROUPBY subgoal evaluated so far to the
    :class:`~repro.core.agg_maintenance.AggregateView` it folded through.
    """

    __slots__ = ("resolver", "unit_counts", "aggregates", "plan_cache")

    def __init__(
        self,
        resolver: "Resolver | Database | Dict[str, CountedRelation]",
        unit_counts: Optional[UnitCountPolicy] = None,
        plan_cache=None,
        aggregates: Optional[Dict] = None,
    ) -> None:
        if not isinstance(resolver, Resolver):
            resolver = Resolver(resolver)
        self.resolver = resolver
        self.unit_counts = unit_counts
        self.plan_cache = plan_cache
        self.aggregates = aggregates if aggregates is not None else {}

    def aggregate_relation(self, aggregate: Aggregate) -> CountedRelation:
        """The relation denoted by a GROUPBY subgoal, read off its groups.

        One row per distinct group: ``group values + (aggregate value,)``,
        each with count 1 (aggregate subgoals are duplicate-free,
        Section 6.2).  The first use folds the grouped relation.
        """
        view = self.aggregates.get(aggregate)
        if view is not None:
            return view.relation()
        from repro.core.agg_maintenance import AggregateView

        predicate = aggregate.relation.predicate
        exported = tuple(aggregate.group_by) + (aggregate.result,)
        view = AggregateView(
            Rule(Literal(str(aggregate), exported), (aggregate,)),
            unit_counts=self.unit_counts is not None
            and bool(self.unit_counts(predicate)),
        )
        self.aggregates[aggregate] = view
        return view.initialize(self.resolver.relation(predicate))


#: Shared empty adornment (frozenset hashes are cached per object, so a
#: singleton keeps the common no-initial-binding plan lookups cheap).
_EMPTY_ADORNMENT: frozenset = frozenset()


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------


def _requirements(subgoal: Subgoal) -> frozenset:
    """Variables that must be bound before the subgoal can evaluate."""
    if isinstance(subgoal, Literal):
        if subgoal.negated:
            return subgoal.variables()
        needed: set = set()
        for arg in subgoal.args:
            if not isinstance(arg, Variable):
                needed |= arg.variables()
        return frozenset(needed)
    if isinstance(subgoal, Comparison):
        if subgoal.op == "=":
            # An assignment can run once either side is fully bound.
            left, right = subgoal.left.variables(), subgoal.right.variables()
            return min(left, right, key=len) if left and right else frozenset()
        return subgoal.variables()
    return frozenset()  # aggregates are self-contained


def _is_evaluable(subgoal: Subgoal, bound: set) -> bool:
    if isinstance(subgoal, Comparison) and subgoal.op == "=":
        left_ready = subgoal.left.variables() <= bound
        right_ready = subgoal.right.variables() <= bound
        if left_ready and right_ready:
            return True
        if left_ready and isinstance(subgoal.right, Variable):
            return True
        if right_ready and isinstance(subgoal.left, Variable):
            return True
        return False
    return _requirements(subgoal) <= bound


def _binder_score(
    subgoal: Subgoal, bound: set, ctx: Optional["EvalContext"]
) -> Tuple[int, int, int]:
    """Higher = run earlier among evaluable binder subgoals."""
    if isinstance(subgoal, Literal):
        known = 0
        for arg in subgoal.args:
            if isinstance(arg, Variable):
                if arg.name in bound:
                    known += 1
            else:
                known += 1
        size = (
            len(ctx.resolver.relation(subgoal.predicate))
            if ctx is not None
            else 0
        )
        # Fully-keyed probes first, then by fraction of known positions,
        # then smallest relation (delta relations win automatically).
        return (2, known * 100 // max(len(subgoal.args), 1), -size)
    # Aggregates scan their grouped relation: run them late.
    size = (
        len(ctx.resolver.relation(subgoal.relation.predicate))
        if ctx is not None and isinstance(subgoal, Aggregate)
        else 0
    )
    return (1, 0, -size)


def plan_body(
    body: Sequence[Subgoal],
    seed: Optional[int] = None,
    ctx: Optional["EvalContext"] = None,
) -> List[Subgoal]:
    """Order body subgoals for evaluation.

    Filters (ground comparisons, negations) run as soon as their inputs
    are bound; binder subgoals are chosen by boundness and (when ``ctx``
    is given) relation size; ``seed`` pins one subgoal (the Δ-subgoal)
    to the very front unless an argument needs a variable bound first
    (``Δp(X + 1)`` waits for ``X``).  Raises
    :class:`~repro.errors.EvaluationError` when no safe order exists
    (i.e. the rule is unsafe).
    """
    remaining = list(range(len(body)))
    bound: set = set()
    ordered: List[Subgoal] = []

    if seed is not None and _is_evaluable(body[seed], bound):
        remaining.remove(seed)
        subgoal = body[seed]
        ordered.append(subgoal)
        bound |= directly_bound_variables(subgoal, bound)

    while remaining:
        # 1. run every evaluable pure filter immediately
        progressed = True
        while progressed:
            progressed = False
            for index in list(remaining):
                subgoal = body[index]
                is_filter = (
                    isinstance(subgoal, Literal)
                    and subgoal.negated
                    and _is_evaluable(subgoal, bound)
                ) or (
                    isinstance(subgoal, Comparison)
                    and _is_evaluable(subgoal, bound)
                )
                if is_filter:
                    ordered.append(subgoal)
                    bound |= directly_bound_variables(subgoal, bound)
                    remaining.remove(index)
                    progressed = True
        if not remaining:
            break
        # 2. pick the best evaluable binder
        candidates = [
            index
            for index in remaining
            if not (isinstance(body[index], Literal) and body[index].negated)
            and not isinstance(body[index], Comparison)
            and _is_evaluable(body[index], bound)
        ]
        if not candidates:
            unplanned = [str(body[i]) for i in remaining]
            raise EvaluationError(
                f"no safe evaluation order: cannot schedule {unplanned} "
                f"with bound variables {sorted(bound)}"
            )
        best = max(
            candidates, key=lambda i: (_binder_score(body[i], bound, ctx), -i)
        )
        subgoal = body[best]
        ordered.append(subgoal)
        bound |= directly_bound_variables(subgoal, bound)
        remaining.remove(best)
    return ordered


# --------------------------------------------------------------------------
# Compiled plans
# --------------------------------------------------------------------------


def _key_spec(literal: Literal, bound: set) -> KeySpec:
    """Positions/terms usable as an index key given bound variables."""
    positions: List[int] = []
    terms: List[Term] = []
    for position, arg in enumerate(literal.args):
        if isinstance(arg, Variable):
            if arg.name in bound:
                positions.append(position)
                terms.append(arg)
        else:
            positions.append(position)
            terms.append(arg)
    return tuple(positions), tuple(terms)


def unit_signature(rule: Rule, ctx: EvalContext) -> Optional[Tuple[bool, ...]]:
    """The count policy of each positive body literal, in body order."""
    policy = ctx.unit_counts
    if policy is None:
        return None
    return tuple(
        bool(policy(subgoal.predicate))
        for subgoal in rule.body
        if type(subgoal) is Literal and not subgoal.negated
    )


class CompiledPlan:
    """An evaluation-ready rule body and its join kernels.

    ``order`` is the planned body, ``specs`` the static index key spec
    of each positive literal in it (``((), ())`` elsewhere), ``units``
    each subgoal's unit-count flag, ``adornment`` the variables bound
    before the body runs.  The two kernels (head rows, bindings) are
    generated on first use.
    """

    __slots__ = (
        "order", "specs", "seed", "adornment", "units", "_head", "_bindings",
    )

    def __init__(
        self,
        order: Tuple[Subgoal, ...],
        specs: Tuple[KeySpec, ...],
        seed: Optional[int],
        adornment: FrozenSet[str],
        units: Tuple[bool, ...],
    ) -> None:
        self.order = order
        self.specs = specs
        self.seed = seed
        self.adornment = adornment
        self.units = units
        self._head = None
        self._bindings = None

    def head_kernel(self, head: Tuple[Term, ...]):
        """``kernel(ctx, acc) -> probes`` ⊎-ing head rows into ``acc``."""
        kernel = self._head
        if kernel is None:
            kernel = self._head = build_kernel(
                self.order, self.specs, self.adornment, self.units, head
            )
        return kernel

    def bindings_kernel(self):
        """``kernel(ctx, binding, counter)``: a generator of solutions."""
        kernel = self._bindings
        if kernel is None:
            kernel = self._bindings = build_kernel(
                self.order, self.specs, self.adornment, self.units, None
            )
        return kernel


def compile_plan(
    rule: Rule,
    seed: Optional[int],
    adornment: FrozenSet[str],
    ctx: EvalContext,
    declare: bool = False,
) -> CompiledPlan:
    """Plan ``rule``'s body and derive each literal's key spec.

    With ``declare`` the partial key specs are declared on their
    relations (built now, maintained by every mutation after).  A
    literal keyed on every position needs no index: it is a membership
    probe of the row store.
    """
    order = plan_body(rule.body, seed, ctx)
    policy = ctx.unit_counts
    bound = set(adornment)
    specs: List[KeySpec] = []
    units: List[bool] = []
    for subgoal in order:
        positive = type(subgoal) is Literal and not subgoal.negated
        if positive:
            spec = _key_spec(subgoal, bound)
            if declare and spec[0] and len(spec[0]) < len(subgoal.args):
                relation = ctx.resolver.relation(subgoal.predicate)
                if relation is not _EMPTY:
                    relation.declare_index(spec[0])
            specs.append(spec)
        else:
            specs.append(((), ()))
        units.append(
            positive and policy is not None and bool(policy(subgoal.predicate))
        )
        bound |= directly_bound_variables(subgoal, bound)
    return CompiledPlan(tuple(order), tuple(specs), seed, adornment, tuple(units))


def _plan(
    rule: Rule, seed: Optional[int], adornment: FrozenSet[str], ctx: EvalContext,
) -> CompiledPlan:
    if ctx.plan_cache is not None:
        return ctx.plan_cache.plan(rule, seed, adornment, ctx)
    return compile_plan(rule, seed, adornment, ctx)


class _Uncounted:
    """Probe counter for evaluations run without a plan cache."""

    __slots__ = ("index_probes",)

    def __init__(self) -> None:
        self.index_probes = 0


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


def solutions(
    rule: Rule,
    ctx: EvalContext,
    seed: Optional[int] = None,
    initial_binding: Optional[Dict[str, object]] = None,
    compiled: Optional[CompiledPlan] = None,
) -> Iterator[Tuple[Dict[str, object], int]]:
    """All body solutions of ``rule`` as ``(binding, count)`` pairs.

    ``seed`` pins the body subgoal at that index to the front of the join
    order (used for Δ-subgoals).  Counts are products of per-subgoal
    counts and may be negative when delta relations participate.

    With ``ctx.plan_cache`` set, the plan (and its kernel) comes from
    the cache, planned once per (rule, seed, adornment); otherwise it is
    planned per call.  Callers issuing many point-queries against one
    rule (e.g. the B/F backward check) can pass a ``compiled`` plan made
    with the adornment of ``initial_binding`` and skip even the cache
    lookup.
    """
    start = initial_binding if initial_binding is not None else {}
    if compiled is None:
        compiled = _plan(
            rule, seed, _EMPTY_ADORNMENT if not start else frozenset(start), ctx
        )
    counter = ctx.plan_cache if ctx.plan_cache is not None else _Uncounted()
    return compiled.bindings_kernel()(ctx, start, counter)


def evaluate_rule_into(
    rule: Rule,
    ctx: EvalContext,
    out: CountedRelation,
    seed: Optional[int] = None,
) -> None:
    """⊎ every head row derived by ``rule`` into ``out``."""
    compiled = _plan(rule, seed, _EMPTY_ADORNMENT, ctx)
    derived: Dict[Row, int] = {}
    probes = compiled.head_kernel(rule.head.args)(ctx, derived)
    if ctx.plan_cache is not None:
        ctx.plan_cache.index_probes += probes
    if not derived:
        return
    if out.arity is not None and out.arity != len(rule.head.args):
        out.merge(derived)  # raises the arity error
    out.absorb(derived)


def evaluate_rule(
    rule: Rule, ctx: EvalContext, seed: Optional[int] = None
) -> CountedRelation:
    """The counted relation of head rows derived by ``rule``."""
    out = CountedRelation(rule.head.predicate, rule.head.arity)
    evaluate_rule_into(rule, ctx, out, seed)
    return out
