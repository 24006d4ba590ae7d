"""Compiled join kernels ≡ the row-at-a-time interpreter they replaced.

A derandomized hypothesis property over generated rules and data: for
every case the kernel and the interpreter oracle (``rule_eval_oracle``)
must agree on the derived rows and counts, on the bindings ``solutions``
yields, and on the number of index probes, when both run the same plan.
The generator covers negation, comparisons, assignment (``C = X + Y``),
constants, repeated variables (``p(X, X)``), GROUPBY subgoals, signed
counts, the unit-count policy, non-empty adornments and a
``PreImageView`` old state.  A kernel compiler that drops the
repeated-variable test must fail the property.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import rule_eval_oracle as oracle
from repro.datalog.parser import parse_rule
from repro.datalog.safety import bound_variables, check_rule_safety
from repro.errors import EvaluationError, SafetyError
from repro.eval import kernel
from repro.eval.plan_cache import PlanCache
from repro.eval.rule_eval import (
    EvalContext,
    Resolver,
    evaluate_rule,
    solutions,
)
from repro.storage.relation import CountedRelation, PreImageView

ARITY = {"p": 2, "q": 2, "r": 3, "s": 1}
VARIABLES = ("X", "Y", "Z", "W")
#: Each case draws its values from one domain; strings make hash order
#: matter, so CI runs this file under two ``PYTHONHASHSEED`` values.
DOMAINS = ((0, 1, 2), ("a", "b", "c"))

PROPERTY = settings(
    max_examples=300, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class Probes:
    index_probes = 0


# ----------------------------------------------------------------- cases


def _term(draw, values, constant_weight=4):
    if draw(st.integers(0, constant_weight)) == 0:
        return str(draw(st.sampled_from(values)))
    return draw(st.sampled_from(VARIABLES))


def _literal(draw, values):
    predicate = draw(st.sampled_from(sorted(ARITY)))
    args = [_term(draw, values) for _ in range(ARITY[predicate])]
    return f"{predicate}({', '.join(args)})"


@st.composite
def cases(draw):
    """``(rule, relations, unit predicates, seed, binding, old-state name)``."""
    values = draw(st.sampled_from(DOMAINS))
    body = [_literal(draw, values) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        body.append("not " + _literal(draw, values))
    if draw(st.booleans()):
        left = _term(draw, values, 2)
        # A constant of the other domain makes an order test raise.
        right = draw(st.sampled_from(["a", "0", _term(draw, values, 2)]))
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        body.append(f"{left} {op} {right}")
    if draw(st.booleans()):
        op = draw(st.sampled_from(["+", "-", "*"]))
        body.append(
            f"C = {draw(st.sampled_from(VARIABLES))} {op} "
            f"{draw(st.sampled_from(VARIABLES + ('1',)))}"
        )
    if draw(st.booleans()):
        functions = ["COUNT", "MIN", "MAX"] + ["SUM"] * (values[0] == 0)
        function = draw(st.sampled_from(functions))
        group = draw(st.sampled_from(VARIABLES))
        inner = draw(st.sampled_from(["p", "q"]))
        body.append(f"GROUPBY({inner}({group}, B), [{group}], M = {function}(B))")
    body = draw(st.permutations(body))
    text = f"h(H) :- {', '.join(body)}."
    rule = parse_rule(text)
    bound = sorted(bound_variables(rule) - {"B"})
    head = draw(st.lists(st.sampled_from(bound or ["0"]), min_size=1, max_size=3))
    if draw(st.booleans()):
        head.append(draw(st.sampled_from(["7", f"{head[0]} + 1"])))
    rule = parse_rule(f"h({', '.join(head)}) :- {', '.join(body)}.")

    relations = {
        name: draw(st.dictionaries(
            st.tuples(*[st.sampled_from(values)] * arity),
            st.integers(-2, 3).filter(bool), max_size=8,
        ))
        for name, arity in ARITY.items()
    }
    units = draw(st.one_of(st.none(), st.sets(st.sampled_from(sorted(ARITY)))))
    positives = [
        index for index, subgoal in enumerate(rule.body)
        if getattr(subgoal, "negated", True) is False
    ]
    seed = draw(st.one_of(st.none(), st.sampled_from(positives or [None])))
    binding = {
        name: draw(st.sampled_from(values))
        for name in draw(st.lists(st.sampled_from(bound or ["X"]), max_size=2))
    }
    old = draw(st.one_of(st.none(), st.sampled_from(sorted(ARITY))))
    pre_images = draw(st.dictionaries(
        st.tuples(*[st.sampled_from(values)] * ARITY[old or "p"]),
        st.integers(-1, 2), max_size=4,
    ))
    return rule, relations, units, seed, binding, old, pre_images


def _context(case, plan_cache=None):
    """A fresh resolver over the case's relations (one per side)."""
    _rule, relations, units, _seed, _binding, old, pre_images = case
    overrides = {}
    for name, rows in relations.items():
        relation = CountedRelation(name, ARITY[name])
        relation.merge(rows)
        overrides[name] = relation
    if old is not None:
        overrides[old] = PreImageView(overrides[old], dict(pre_images))
    policy = None if units is None else (lambda name: name in units)
    return EvalContext(Resolver(None, overrides), policy, plan_cache=plan_cache)


def _outcome(call):
    try:
        return call()
    except EvaluationError:
        return "EvaluationError"


def _bag(pairs):
    return Counter((frozenset(binding.items()), count) for binding, count in pairs)


def check_kernel_matches_oracle(case):
    rule, _relations, _units, seed, binding, _old, _pre = case
    try:
        check_rule_safety(rule)
    except SafetyError:
        return

    # Head rows, through a plan cache: the oracle interprets the same plan.
    cache = PlanCache()
    ctx = _context(case, cache)
    derived = _outcome(lambda: evaluate_rule(rule, ctx, seed).to_dict())
    probes = cache.index_probes
    counter = Probes()
    expected = _outcome(lambda: oracle.evaluate_rule(
        rule, _context(case), seed,
        plan=cache.plan(rule, seed, frozenset(), ctx), counter=counter,
    ).to_dict())
    assert derived == expected
    if expected != "EvaluationError":
        assert probes == counter.index_probes

    # Head rows, planned per call.
    assert _outcome(
        lambda: evaluate_rule(rule, _context(case), seed).to_dict()
    ) == _outcome(
        lambda: oracle.evaluate_rule(rule, _context(case), seed).to_dict()
    )

    # Bindings from an adorned plan.
    cache = PlanCache()
    ctx = _context(case, cache)
    found = _outcome(lambda: _bag(solutions(
        rule, ctx, seed, initial_binding=dict(binding),
    )))
    probes = cache.index_probes
    counter = Probes()
    adorned = cache.plan(rule, seed, frozenset(binding), ctx)
    assert found == _outcome(lambda: _bag(oracle.solutions(
        rule, _context(case), seed, initial_binding=dict(binding),
        plan=adorned, counter=counter,
    )))
    if found != "EvaluationError":
        assert probes == counter.index_probes


@PROPERTY
@given(cases())
def test_kernel_matches_the_interpreter(case):
    check_kernel_matches_oracle(case)


def test_a_kernel_without_the_repeated_variable_check_fails(monkeypatch):
    monkeypatch.setattr(
        kernel._Compiler, "repeat_check", lambda self, bound, value: None
    )
    unshrunk = settings(
        PROPERTY, phases=[Phase.generate], report_multiple_bugs=False
    )
    kernel.build_kernel.cache_clear()
    try:
        with pytest.raises(AssertionError):
            unshrunk(given(cases())(check_kernel_matches_oracle))()
    finally:
        kernel.build_kernel.cache_clear()


# ------------------------------------------------------------- examples


def _ctx(**relations):
    overrides = {}
    for name, rows in relations.items():
        relation = CountedRelation(name)
        relation.merge(rows)
        overrides[name] = relation
    return EvalContext(Resolver(None, overrides), plan_cache=PlanCache())


def test_repeated_variable_must_agree():
    ctx = _ctx(p={(1, 1): 1, (1, 2): 1})
    rule = parse_rule("h(X) :- p(X, X).")
    assert evaluate_rule(rule, ctx).to_dict() == {(1,): 1}


def test_fully_bound_literal_is_a_membership_probe():
    ctx = _ctx(p={(1, 2): 3, (2, 3): 1}, q={(1, 2): 2})
    rule = parse_rule("h(X, Y) :- p(X, Y), q(X, Y).")
    assert evaluate_rule(rule, ctx, seed=0).to_dict() == {(1, 2): 6}
    assert ctx.plan_cache.index_probes == 2  # one probe per p row
    assert ctx.resolver.relation("q").declared_indexes() == ()


def test_generated_source_names_no_program_value():
    rule = parse_rule("h(X, 'q') :- p(X, Y), Y > 41, not s(X).")
    ctx = _ctx(p={(1, 42): 1}, s={})
    assert evaluate_rule(rule, ctx).to_dict() == {(1, "q"): 1}
    compiled = ctx.plan_cache.plan(rule, None, frozenset(), ctx)
    source = compiled.head_kernel(rule.head.args).source
    for text in ("41", "'q'", '"q"', "'p'", "'s'", "X", "Y"):
        assert text not in source


def test_rows_of_another_length_match_nothing():
    """A relation with no declared arity may hold rows of any length."""
    p = CountedRelation("p")
    for row in [(1, 2), (1, 2, 3), (2,), (2, 2)]:
        p.add(row, 1)
    for text in ("h(X) :- p(X, Y).", "h(X) :- p(X, X).", "h(Y) :- p(2, Y)."):
        rule = parse_rule(text)
        ctx = EvalContext(Resolver(None, {"p": p}), plan_cache=PlanCache())
        assert evaluate_rule(rule, ctx).to_dict() == oracle.evaluate_rule(
            rule, EvalContext(Resolver(None, {"p": p}))
        ).to_dict()


@pytest.mark.parametrize("function", ["SUM", "MIN"])
def test_a_fold_domain_error_is_typed(function):
    """Where the oracle's fold raises on a mixed-type group, so does the
    kernel's, as an EvaluationError."""
    rule = parse_rule(f"h(S, M) :- GROUPBY(p(S, B), [S], M = {function}(B)).")
    rows = {("a", 1): 1, ("a", "b"): 1}
    with pytest.raises(TypeError):
        oracle.evaluate_rule(rule, _ctx(p=rows))
    with pytest.raises(EvaluationError):
        evaluate_rule(rule, _ctx(p=rows))
