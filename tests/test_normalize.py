"""Tests for program normalization (aggregate isolation)."""

from repro.core import names
from repro.core.normalize import normalize_program
from repro.datalog.ast import Aggregate, Literal
from repro.datalog.parser import parse_program


class TestNormalization:
    def test_solo_groupby_rule_kept_as_is(self):
        program = parse_program(
            "m(S, D, M) :- GROUPBY(hop(S, D, C), [S, D], M = MIN(C))."
        )
        normalized = normalize_program(program)
        assert normalized.program.rules == program.rules
        assert "m" in normalized.aggregate_rules

    def test_inline_aggregate_extracted(self):
        program = parse_program(
            "p(S, M) :- keep(S), GROUPBY(u(S2, C), [S2], M = MIN(C)), S = S2."
        )
        normalized = normalize_program(program)
        assert len(normalized.program) == 2
        synthetic = normalized.synthetic_predicates[0]
        assert synthetic.startswith(names.AGG)
        # The synthetic rule is a solo GROUPBY.
        synthetic_rule = normalized.aggregate_rules[synthetic]
        assert len(synthetic_rule.body) == 1
        assert isinstance(synthetic_rule.body[0], Aggregate)
        # The original rule now references the synthetic predicate.
        rewritten = normalized.program.rules_for("p")[0]
        replaced = [
            s for s in rewritten.body
            if isinstance(s, Literal) and s.predicate == synthetic
        ]
        assert len(replaced) == 1
        # Exported variables carried over: group var + result.
        assert {str(a) for a in replaced[0].args} == {"S2", "M"}

    def test_two_aggregates_in_one_rule(self):
        program = parse_program(
            "p(S, M1, M2) :- GROUPBY(u(S, C), [S], M1 = MIN(C)), "
            "GROUPBY(u(S, C2), [S], M2 = MAX(C2))."
        )
        normalized = normalize_program(program)
        assert len(normalized.synthetic_predicates) == 2
        assert len(normalized.program) == 3

    def test_unique_names_across_rules(self):
        program = parse_program(
            "p(S, M) :- q(S), GROUPBY(u(S2, C), [S2], M = MIN(C)), S = S2.\n"
            "p(S, M) :- r(S), GROUPBY(u(S2, C), [S2], M = MAX(C)), S = S2."
        )
        normalized = normalize_program(program)
        assert len(set(normalized.synthetic_predicates)) == 2

    def test_semantics_preserved(self):
        from repro.eval.stratified import materialize
        from repro.storage.database import Database

        source = (
            "p(S, M) :- keep(S), GROUPBY(u(S2, C), [S2], M = MIN(C)), S = S2."
        )
        db = Database()
        db.insert_rows("u", [("a", 5), ("a", 2), ("b", 9)])
        db.insert_rows("keep", [("a",)])
        original = materialize(parse_program(source), db)
        normalized = normalize_program(parse_program(source))
        rewritten = materialize(normalized.program, db)
        assert original["p"].as_set() == rewritten["p"].as_set() == {("a", 2)}

    def test_plain_program_untouched(self):
        program = parse_program("hop(X,Y) :- link(X,Z), link(Z,Y).")
        normalized = normalize_program(program)
        assert normalized.program.rules == program.rules
        assert normalized.aggregate_rules == {}

    def test_is_synthetic(self):
        program = parse_program(
            "p(S, M) :- q(S), GROUPBY(u(S2, C), [S2], M = MIN(C)), S = S2."
        )
        normalized = normalize_program(program)
        synthetic = normalized.synthetic_predicates[0]
        assert normalized.is_synthetic(synthetic)
        assert not normalized.is_synthetic("p")

    def test_original_preserved(self):
        program = parse_program(
            "p(S, M) :- q(S), GROUPBY(u(S2, C), [S2], M = MIN(C)), S = S2."
        )
        normalized = normalize_program(program)
        assert normalized.original is program


class TestNames:
    def test_prefixes_distinct(self):
        assert len({
            names.delta("p"), names.new("p"), names.delta_neg("p"),
            names.overestimate("p"), names.source("del", "p"),
            names.aggregate_predicate("p", 0),
        }) == 6

    def test_is_internal(self):
        assert names.is_internal(names.delta("p"))
        assert names.is_internal(names.new("p"))
        assert names.is_internal(names.overestimate("p"))
        assert names.is_internal(names.source("add", "p"))
        assert names.is_internal(names.aggregate_predicate("p", 1))
        assert not names.is_internal("p")
        assert not names.is_internal("link")

    def test_is_synthetic_aggregate(self):
        assert names.is_synthetic_aggregate(names.aggregate_predicate("p", 0))
        assert not names.is_synthetic_aggregate(names.delta("p"))
