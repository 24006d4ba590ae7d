"""Unit tests for the Datalog AST: literals, rules, programs."""

import pytest

from repro.datalog.ast import (
    Aggregate,
    Comparison,
    Program,
    Rule,
    atom,
    fact,
    rule,
)
from repro.datalog.terms import Constant, Variable
from repro.errors import SchemaError


class TestLiteral:
    def test_atom_builder_coerces(self):
        literal = atom("link", "X", "b")
        assert literal.args == (Variable("X"), Constant("b"))

    def test_negate_flips(self):
        literal = atom("p", "X")
        assert literal.negate().negated
        assert literal.negate().negate() == literal

    def test_variables(self):
        literal = atom("p", "X", "Y", "c")
        assert literal.variables() == frozenset({"X", "Y"})

    def test_with_predicate_keeps_args_and_sign(self):
        literal = atom("p", "X", negated=True)
        renamed = literal.with_predicate("Δ:p")
        assert renamed.predicate == "Δ:p"
        assert renamed.negated
        assert renamed.args == literal.args

    def test_substitute(self):
        literal = atom("p", "X", "Y")
        result = literal.substitute({"X": Constant(1)})
        assert result.args == (Constant(1), Variable("Y"))

    def test_str_forms(self):
        assert str(atom("p", "X")) == "p(X)"
        assert str(atom("p", "X", negated=True)) == "not p(X)"


class TestComparison:
    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            Comparison("~", Variable("X"), Constant(1))

    def test_variables(self):
        comparison = Comparison("<", Variable("X"), Variable("Y"))
        assert comparison.variables() == frozenset({"X", "Y"})

    def test_substitute(self):
        comparison = Comparison("=", Variable("X"), Constant(1))
        assert comparison.substitute({"X": "Z"}).left == Variable("Z")


class TestAggregate:
    def _aggregate(self):
        return Aggregate(
            atom("hop", "S", "D", "C"),
            (Variable("S"), Variable("D")),
            Variable("M"),
            "MIN",
            Variable("C"),
        )

    def test_exported_variables(self):
        assert self._aggregate().variables() == frozenset({"S", "D", "M"})

    def test_negated_inner_rejected(self):
        with pytest.raises(SchemaError):
            Aggregate(
                atom("hop", "S", "C", negated=True),
                (Variable("S"),),
                Variable("M"),
                "MIN",
                Variable("C"),
            )

    def test_unknown_function_rejected(self):
        with pytest.raises(SchemaError):
            Aggregate(
                atom("hop", "S", "C"),
                (Variable("S"),),
                Variable("M"),
                "MEDIAN",
                Variable("C"),
            )

    def test_group_var_must_occur_in_relation(self):
        with pytest.raises(SchemaError):
            Aggregate(
                atom("hop", "S", "C"),
                (Variable("Q"),),
                Variable("M"),
                "MIN",
                Variable("C"),
            )

    def test_argument_vars_must_occur_in_relation(self):
        with pytest.raises(SchemaError):
            Aggregate(
                atom("hop", "S", "C"),
                (Variable("S"),),
                Variable("M"),
                "MIN",
                Variable("Z"),
            )

    def test_grouped_predicate(self):
        assert self._aggregate().predicate == "hop"

    def test_str_mentions_groupby(self):
        assert "GROUPBY" in str(self._aggregate())


class TestRule:
    def test_negated_head_rejected(self):
        with pytest.raises(SchemaError):
            Rule(atom("p", "X", negated=True), (atom("q", "X"),))

    def test_fact_detection(self):
        assert fact("p", 1, 2).is_fact
        assert not rule(atom("p", "X"), atom("q", "X")).is_fact

    def test_body_literals_includes_negated(self):
        r = rule(atom("p", "X"), atom("q", "X"), atom("r", "X", negated=True))
        assert [l.predicate for l in r.body_literals()] == ["q", "r"]

    def test_referenced_predicates_includes_aggregate_relation(self):
        aggregate = Aggregate(
            atom("u", "S", "C"),
            (Variable("S"),),
            Variable("M"),
            "SUM",
            Variable("C"),
        )
        r = Rule(atom("p", "S", "M"), (aggregate,))
        assert r.referenced_predicates() == frozenset({"u"})

    def test_str_roundtrippable_shape(self):
        r = rule(atom("p", "X"), atom("q", "X", "Y"), Comparison(
            "<", Variable("Y"), Constant(3)))
        assert str(r) == "p(X) :- q(X, Y), Y < 3."


class TestProgram:
    def test_idb_edb_split(self):
        program = Program([rule(atom("p", "X"), atom("q", "X"))])
        assert program.idb_predicates == frozenset({"p"})
        assert program.edb_predicates == frozenset({"q"})

    def test_declared_base_included(self):
        program = Program(
            [rule(atom("p", "X"), atom("q", "X"))], declared_base=["extra"]
        )
        assert "extra" in program.edb_predicates

    def test_declared_base_conflicting_with_idb_rejected(self):
        with pytest.raises(SchemaError):
            Program(
                [rule(atom("p", "X"), atom("q", "X"))], declared_base=["p"]
            )

    def test_arity_conflict_rejected(self):
        with pytest.raises(SchemaError, match="arity"):
            Program(
                [
                    rule(atom("p", "X"), atom("q", "X")),
                    rule(atom("r", "X"), atom("q", "X", "Y")),
                ]
            )

    def test_rules_for(self):
        r1 = rule(atom("p", "X"), atom("q", "X"))
        r2 = rule(atom("p", "X"), atom("s", "X"))
        program = Program([r1, r2])
        assert program.rules_for("p") == (r1, r2)
        assert program.rules_for("missing") == ()

    def test_with_rules_adds_and_removes(self):
        r1 = rule(atom("p", "X"), atom("q", "X"))
        r2 = rule(atom("p", "X"), atom("s", "X"))
        program = Program([r1])
        changed = program.with_rules(added=[r2], removed=[r1])
        assert list(changed) == [r2]

    def test_with_rules_missing_removal_rejected(self):
        r1 = rule(atom("p", "X"), atom("q", "X"))
        r2 = rule(atom("p", "X"), atom("s", "X"))
        with pytest.raises(SchemaError):
            Program([r1]).with_rules(removed=[r2])

    def test_arity_of(self):
        program = Program([rule(atom("p", "X", "Y"), atom("q", "X", "Y"))])
        assert program.arity_of("p") == 2
        assert program.arity_of("nope") is None

    def test_equality_and_hash(self):
        r1 = rule(atom("p", "X"), atom("q", "X"))
        assert Program([r1]) == Program([r1])
        assert hash(Program([r1])) == hash(Program([r1]))
