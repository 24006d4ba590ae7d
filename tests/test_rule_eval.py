"""Tests for count-aware rule evaluation: joins, negation, aggregates."""

import pytest

from repro.datalog.ast import Comparison, atom, rule
from repro.datalog.parser import parse_rule
from repro.errors import EvaluationError
from repro.eval.rule_eval import EvalContext, Resolver, evaluate_rule, plan_body
from repro.storage.database import Database
from repro.storage.relation import CountedRelation, relation_from_rows

from rule_eval_oracle import match_args


def _context(relations, unit_counts=None):
    return EvalContext(Resolver(None, dict(relations)), unit_counts)


class TestMatchArgs:
    """The oracle's matcher, which the kernel property compares against."""

    def test_binds_bare_variables(self):
        binding = match_args(atom("p", "X", "Y").args, ("a", "b"), {})
        assert binding == {"X": "a", "Y": "b"}

    def test_repeated_variable_must_agree(self):
        args = atom("p", "X", "X").args
        assert match_args(args, ("a", "a"), {}) == {"X": "a"}
        assert match_args(args, ("a", "b"), {}) is None

    def test_existing_binding_checked(self):
        args = atom("p", "X").args
        assert match_args(args, ("a",), {"X": "b"}) is None
        assert match_args(args, ("a",), {"X": "a"}) == {"X": "a"}

    def test_constant_mismatch(self):
        args = atom("p", "a").args
        assert match_args(args, ("b",), {}) is None

    def test_expression_argument_evaluated(self):
        args = parse_rule("h(Y) :- p(X + 1), q(X).").body[0].args
        assert match_args(args, (6,), {"X": 5}) is not None
        assert match_args(args, (7,), {"X": 5}) is None

    def test_length_mismatch(self):
        assert match_args(atom("p", "X").args, ("a", "b"), {}) is None


class TestJoins:
    def test_counts_multiply_and_sum(self):
        """Section 3: join multiplies counts; ⊎ accumulates per head row."""
        link = CountedRelation("link")
        link.add(("a", "b"), 2)
        link.add(("b", "c"), 3)
        hop_rule = parse_rule("hop(X, Y) :- link(X, Z), link(Z, Y).")
        result = evaluate_rule(hop_rule, _context({"link": link}))
        assert result.count(("a", "c")) == 6

    def test_unit_count_policy(self):
        link = CountedRelation("link")
        link.add(("a", "b"), 2)
        link.add(("b", "c"), 3)
        hop_rule = parse_rule("hop(X, Y) :- link(X, Z), link(Z, Y).")
        result = evaluate_rule(
            hop_rule, _context({"link": link}, unit_counts=lambda _n: True)
        )
        assert result.count(("a", "c")) == 1

    def test_negative_counts_flow_through(self):
        link = relation_from_rows("link", [("a", "b"), ("b", "c")])
        delta = CountedRelation("Δ")
        delta.add(("a", "b"), -1)
        variant = parse_rule("hop(X, Y) :- delta(X, Z), link(Z, Y).")
        result = evaluate_rule(variant, _context({"delta": delta, "link": link}))
        assert result.count(("a", "c")) == -1

    def test_multiple_derivations_counted(self):
        """Example 1.1: hop(a, c) has two derivations."""
        link = relation_from_rows(
            "link", [("a", "b"), ("b", "c"), ("b", "e"), ("a", "d"), ("d", "c")]
        )
        hop_rule = parse_rule("hop(X, Y) :- link(X, Z), link(Z, Y).")
        result = evaluate_rule(hop_rule, _context({"link": link}))
        assert result.to_dict() == {("a", "c"): 2, ("a", "e"): 1}

    def test_missing_relation_is_empty(self):
        hop_rule = parse_rule("hop(X, Y) :- nothing(X, Y).")
        assert len(evaluate_rule(hop_rule, _context({}))) == 0

    def test_constant_argument_filters(self):
        link = relation_from_rows("link", [("a", "b"), ("c", "d")])
        r = parse_rule("from_a(Y) :- link(a, Y).")
        result = evaluate_rule(r, _context({"link": link}))
        assert result.to_dict() == {("b",): 1}

    def test_head_expression_computed(self):
        link = relation_from_rows("link", [("a", "b", 1), ("b", "c", 2)])
        r = parse_rule("hop(X, Y, C1 + C2) :- link(X, Z, C1), link(Z, Y, C2).")
        result = evaluate_rule(r, _context({"link": link}))
        assert result.to_dict() == {("a", "c", 3): 1}

    def test_fact_rule(self):
        result = evaluate_rule(parse_rule("p(1, 2)."), _context({}))
        assert result.to_dict() == {(1, 2): 1}


class TestNegation:
    def test_negated_literal_filters(self):
        t = relation_from_rows("t", [("a", "b"), ("c", "d")])
        h = relation_from_rows("h", [("a", "b")])
        r = parse_rule("only(X, Y) :- t(X, Y), not h(X, Y).")
        result = evaluate_rule(r, _context({"t": t, "h": h}))
        assert result.to_dict() == {("c", "d"): 1}

    def test_negation_is_set_based(self):
        """A positive count of any size means 'present' (Example 6.1)."""
        t = relation_from_rows("t", [("a", "b")])
        h = CountedRelation("h")
        h.add(("a", "b"), 5)
        r = parse_rule("only(X, Y) :- t(X, Y), not h(X, Y).")
        assert len(evaluate_rule(r, _context({"t": t, "h": h}))) == 0

    def test_negation_contributes_count_one(self):
        t = CountedRelation("t")
        t.add(("a", "b"), 3)
        r = parse_rule("only(X, Y) :- t(X, Y), not h(X, Y).")
        result = evaluate_rule(r, _context({"t": t}))
        assert result.count(("a", "b")) == 3  # 3 × 1


class TestComparisons:
    def test_filter(self):
        q = relation_from_rows("q", [("a", 1), ("b", 9)])
        r = parse_rule("small(X) :- q(X, N), N < 5.")
        result = evaluate_rule(r, _context({"q": q}))
        assert result.to_dict() == {("a",): 1}

    def test_assignment_binds(self):
        q = relation_from_rows("q", [(3,)])
        r = parse_rule("p(X, Y) :- q(X), Y = X * 10.")
        result = evaluate_rule(r, _context({"q": q}))
        assert result.to_dict() == {(3, 30): 1}

    def test_assignment_reversed_sides(self):
        q = relation_from_rows("q", [(3,)])
        r = parse_rule("p(X, Y) :- q(X), X * 10 = Y.")
        result = evaluate_rule(r, _context({"q": q}))
        assert result.to_dict() == {(3, 30): 1}

    def test_equality_check_both_bound(self):
        q = relation_from_rows("q", [(3, 3), (3, 4)])
        r = parse_rule("p(X) :- q(X, Y), X = Y.")
        result = evaluate_rule(r, _context({"q": q}))
        assert result.to_dict() == {(3,): 1}

    def test_incomparable_types_raise(self):
        q = relation_from_rows("q", [("a",)])
        r = parse_rule("p(X) :- q(X), X < 5.")
        with pytest.raises(EvaluationError):
            evaluate_rule(r, _context({"q": q}))


class TestAggregateSubgoal:
    def test_min_groupby(self):
        hop = relation_from_rows(
            "hop", [("a", "c", 3), ("a", "c", 5), ("a", "e", 6)]
        )
        r = parse_rule(
            "m(S, D, M) :- GROUPBY(hop(S, D, C), [S, D], M = MIN(C))."
        )
        result = evaluate_rule(r, _context({"hop": hop}))
        assert result.to_dict() == {("a", "c", 3): 1, ("a", "e", 6): 1}

    def test_sum_respects_multiplicities(self):
        sales = CountedRelation("sales")
        sales.add(("east", 10), 2)  # two copies
        r = parse_rule("t(R, M) :- GROUPBY(sales(R, C), [R], M = SUM(C)).")
        result = evaluate_rule(r, _context({"sales": sales}))
        assert result.to_dict() == {("east", 20): 1}

    def test_sum_unit_policy_treats_rows_once(self):
        sales = CountedRelation("sales")
        sales.add(("east", 10), 2)
        r = parse_rule("t(R, M) :- GROUPBY(sales(R, C), [R], M = SUM(C)).")
        result = evaluate_rule(
            r, _context({"sales": sales}, unit_counts=lambda _n: True)
        )
        assert result.to_dict() == {("east", 10): 1}

    def test_aggregate_joined_with_other_subgoals(self):
        hop = relation_from_rows("hop", [("a", "c", 3), ("b", "c", 9)])
        keep = relation_from_rows("keep", [("a",)])
        r = parse_rule(
            "m(S, M) :- keep(S), GROUPBY(hop(S2, D, C), [S2], M = MIN(C)), "
            "S = S2."
        )
        result = evaluate_rule(r, _context({"hop": hop, "keep": keep}))
        assert result.to_dict() == {("a", 3): 1}

    def test_empty_group_relation(self):
        r = parse_rule("m(S, M) :- GROUPBY(hop(S, C), [S], M = SUM(C)).")
        assert len(evaluate_rule(r, _context({}))) == 0


class TestPlanner:
    def test_filters_scheduled_after_binders(self):
        body = parse_rule("p(X) :- q(X, Y), Y < 3.").body
        plan = plan_body(body)
        assert isinstance(plan[0], type(body[0]))
        assert isinstance(plan[1], Comparison)

    def test_seed_pinned_first(self):
        body = parse_rule("p(X, Y) :- a(X, Z), b(Z, Y).").body
        plan = plan_body(body, seed=1)
        assert plan[0].predicate == "b"

    def test_negation_waits_for_bindings(self):
        body = parse_rule("p(X) :- not bad(X), q(X).").body
        plan = plan_body(body)
        assert plan[0].predicate == "q"
        assert plan[1].negated

    def test_smaller_relation_preferred_with_context(self):
        big = relation_from_rows("big", [(i, i + 1) for i in range(100)])
        small = relation_from_rows("small", [(1, 2)])
        ctx = _context({"big": big, "small": small})
        body = parse_rule("p(X, Y) :- big(X, Z), small(Z, Y).").body
        plan = plan_body(body, ctx=ctx)
        assert plan[0].predicate == "small"

    def test_unschedulable_body_raises(self):
        body = parse_rule("p(X) :- q(X), not r(X, Y), s(Y + 1).").body
        with pytest.raises(EvaluationError, match="no safe evaluation order"):
            plan_body(body)


class TestResolver:
    def test_overrides_shadow_base(self):
        db = Database()
        db.insert("p", ("base",))
        override = relation_from_rows("p", [("over",)])
        resolver = Resolver(db, {"p": override})
        assert resolver.relation("p").as_set() == {("over",)}

    def test_layered_resolution(self):
        inner = Resolver(None, {"p": relation_from_rows("p", [("x",)])})
        outer = Resolver(inner)
        assert outer.relation("p").as_set() == {("x",)}

    def test_missing_resolves_empty(self):
        assert len(Resolver(None).relation("ghost")) == 0

    def test_existing_empty_relation_is_not_treated_as_missing(self):
        db = Database()
        db.ensure_relation("link", 2)
        link = db.relation("link")
        assert len(link) == 0
        assert Resolver(db).relation("link") is link
        assert Resolver({"link": link}).relation("link") is link

    def test_bind(self):
        resolver = Resolver(None)
        resolver.bind("p", relation_from_rows("p", [("a",)]))
        assert resolver.relation("p").as_set() == {("a",)}
