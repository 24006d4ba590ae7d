"""Tests for the Datalog lexer and parser."""

import pytest

from repro.datalog.ast import Aggregate, Comparison
from repro.datalog.lexer import tokenize
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.terms import BinaryOp, Constant, Variable
from repro.errors import ParseError


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("p(X, 1).")]
        assert kinds == ["IDENT", "PUNCT", "VARIABLE", "PUNCT", "NUMBER",
                         "PUNCT", "PUNCT", "EOF"]

    def test_comments_ignored(self):
        tokens = tokenize("% a comment\np(a). # another\n")
        assert [t.text for t in tokens if t.kind == "IDENT"] == ["p", "a"]

    def test_multi_char_punct(self):
        texts = [t.text for t in tokenize(":- != <= >= //")]
        assert texts[:-1] == [":-", "!=", "<=", ">=", "//"]

    def test_float_vs_rule_dot(self):
        tokens = tokenize("p(1.5).")
        numbers = [t for t in tokens if t.kind == "NUMBER"]
        assert numbers[0].value == 1.5
        assert tokens[-2].text == "."

    def test_string_with_escape(self):
        tokens = tokenize(r"p('it\'s').")
        strings = [t for t in tokens if t.kind == "STRING"]
        assert strings[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            tokenize("p('oops).")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected"):
            tokenize("p(@).")

    def test_positions_tracked(self):
        token = tokenize("p(a).\nq(b).")[5]
        assert token.line == 2
        assert token.column == 1


class TestParseRule:
    def test_simple_rule(self):
        rule = parse_rule("hop(X, Y) :- link(X, Z), link(Z, Y).")
        assert rule.head.predicate == "hop"
        assert len(rule.body) == 2

    def test_fact(self):
        rule = parse_rule("link(a, b).")
        assert rule.is_fact
        assert rule.head.args == (Constant("a"), Constant("b"))

    def test_ampersand_conjunction(self):
        rule = parse_rule("p(X) :- q(X) & r(X).")
        assert len(rule.body) == 2

    def test_negation_keyword(self):
        rule = parse_rule("p(X, Y) :- t(X, Y), not h(X, Y).")
        assert rule.body[1].negated

    def test_negation_bang(self):
        rule = parse_rule("p(X) :- q(X), ! h(X).")
        assert rule.body[1].negated

    def test_comparison_subgoal(self):
        rule = parse_rule("p(X) :- q(X, Y), Y < 10.")
        comparison = rule.body[1]
        assert isinstance(comparison, Comparison)
        assert comparison.op == "<"

    def test_head_arithmetic(self):
        rule = parse_rule("hop(S, D, C1 + C2) :- link(S, I, C1), link(I, D, C2).")
        assert isinstance(rule.head.args[2], BinaryOp)

    def test_groupby_subgoal(self):
        rule = parse_rule(
            "m(S, D, M) :- GROUPBY(hop(S, D, C), [S, D], M = MIN(C))."
        )
        aggregate = rule.body[0]
        assert isinstance(aggregate, Aggregate)
        assert aggregate.function == "MIN"
        assert aggregate.group_by == (Variable("S"), Variable("D"))
        assert aggregate.result == Variable("M")

    def test_groupby_case_insensitive(self):
        rule = parse_rule("m(S, M) :- groupby(h(S, C), [S], M = sum(C)).")
        assert rule.body[0].function == "SUM"

    def test_groupby_empty_groups(self):
        rule = parse_rule("total(M) :- GROUPBY(sales(X, C), [], M = SUM(C)).")
        assert rule.body[0].group_by == ()

    def test_unknown_aggregate_function(self):
        with pytest.raises(ParseError, match="unknown aggregate"):
            parse_rule("m(S, M) :- GROUPBY(h(S, C), [S], M = MEDIAN(C)).")

    def test_lowercase_ident_as_constant_argument(self):
        rule = parse_rule("p(X) :- q(X, abc).")
        assert rule.body[0].args[1] == Constant("abc")

    def test_negative_number(self):
        rule = parse_rule("p(X) :- q(X, Y), Y > -5.")
        comparison = rule.body[1]
        assert comparison.right.evaluate({}) == -5

    def test_parenthesized_expression(self):
        rule = parse_rule("p((X + 1) * 2) :- q(X).")
        assert rule.head.args[0].evaluate({"X": 2}) == 6

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_rule("p(X) :- q(X). extra")

    def test_missing_period_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) :- q(X)")

    def test_equality_assignment(self):
        rule = parse_rule("p(X, Y) :- q(X), Y = X + 1.")
        assert isinstance(rule.body[1], Comparison)
        assert rule.body[1].op == "="


class TestParseProgram:
    def test_multiple_rules(self):
        program = parse_program(
            "hop(X, Y) :- link(X, Z), link(Z, Y).\n"
            "tri(X, Y) :- hop(X, Z), link(Z, Y).\n"
        )
        assert len(program) == 2
        assert program.idb_predicates == {"hop", "tri"}

    def test_base_declaration(self):
        program = parse_program("base extra/2.\np(X) :- q(X).")
        assert "extra" in program.edb_predicates

    def test_base_declaration_multiple(self):
        program = parse_program("base a/1, b/2.\np(X) :- q(X).")
        assert {"a", "b"} <= program.edb_predicates

    def test_declared_base_parameter(self):
        program = parse_program("p(X) :- q(X).", declared_base=("zed",))
        assert "zed" in program.edb_predicates

    def test_empty_program(self):
        assert len(parse_program("")) == 0

    def test_facts_and_rules_mix(self):
        program = parse_program("p(1).\nq(X) :- p(X).")
        assert program.rules[0].is_fact

    def test_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_program("p(X) :- q(X)\nr(Y).")
        assert info.value.line >= 1
