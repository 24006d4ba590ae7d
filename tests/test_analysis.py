"""The static analyzer: diagnostics framework, checks, advisor, CLI.

Organized bottom-up, mirroring ``src/repro/analysis``:

* the diagnostics framework — the stable-code catalogue, severities,
  suppression, the text/JSON renderers and the v1 schema validator;
* one trigger case per check, ``RV001`` … ``RV202``, asserting the code
  and (where the source carries one) the position;
* the strategy advisor — Definition 4.1 variant counts, per-stratum
  recommendations, and the guard-budget risk prediction;
* :func:`repro.analysis.analyze` over every accepted target shape
  (source text, ``Program``, live maintainer) and both failure modes
  (parse and schema errors);
* the engine integration — strategy mismatches raise ``StrategyError``
  carrying the analyzer diagnostic;
* the ``repro lint`` CLI — formats, ``--fail-on``, ``--suppress``,
  stdin, and exit codes.
"""

import ast as python_ast
import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.analysis import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze,
    advise,
)
from repro.analysis.advisor import variant_counts
from repro.analysis.diagnostics import (
    count_by_severity,
    make_diagnostic,
    max_severity,
    render_json,
    render_text,
    suppress,
    validate_document,
)
from repro.cli import lint_main
from repro.core.maintenance import ViewMaintainer
from repro.datalog.ast import Span
from repro.datalog.parser import parse_program
from repro.datalog.safety import check_rule_safety, rule_safety_issues
from repro.datalog.stratify import stratify
from repro.errors import (
    MaintenanceError,
    ReproError,
    SafetyError,
    StrategyError,
)
from repro.storage.database import Database

from conftest import TC_SRC, database_with

GOOD_SRC = "hop(X, Y) :- link(X, Z), link(Z, Y).\n"
EDGES = [(1, 2), (2, 3)]


# ----------------------------------------------------------- the framework


class TestCatalogue:
    def test_every_code_is_fully_documented(self):
        for code, info in CODES.items():
            assert code == info.code
            assert code.startswith("RV") and len(code) == 5, code
            assert info.title and info.paper and info.hint, code

    def test_code_bands_match_severities(self):
        # RV0xx are errors; RV1xx advisory warnings or infos; RV2xx
        # advisory except the structural spec error RV210; RV3xx
        # (concurrency discipline) spans all three severities — the
        # bands are a stable part of the contract (docs/analysis.md).
        for code, info in CODES.items():
            band = code[2]
            if band == "0":
                assert info.severity is Severity.ERROR, code
            elif band == "1":
                assert info.severity in (Severity.WARNING, Severity.INFO), code
            elif band == "2":
                expected = (
                    (Severity.ERROR,)
                    if code == "RV210"
                    else (Severity.WARNING, Severity.INFO)
                )
                assert info.severity in expected, code
            else:
                assert band == "3", code
                assert info.severity in (
                    Severity.ERROR, Severity.WARNING, Severity.INFO
                ), code

    def test_severity_ordering_and_labels(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.from_name("Warning") is Severity.WARNING
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.from_name("fatal")

    def test_make_diagnostic_defaults_from_catalogue(self):
        d = make_diagnostic("RV101", "lonely X")
        assert d.severity is Severity.WARNING
        assert d.hint == CODES["RV101"].hint
        assert d.paper == CODES["RV101"].paper
        demoted = make_diagnostic("RV101", "x", severity=Severity.INFO)
        assert demoted.severity is Severity.INFO

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            make_diagnostic("RV999", "nope")


class TestFiltering:
    def _diags(self):
        return [
            make_diagnostic("RV001", "e"),
            make_diagnostic("RV101", "w"),
            make_diagnostic("RV201", "i"),
        ]

    def test_suppress_is_case_insensitive_and_trims(self):
        kept = suppress(self._diags(), [" rv001 ", "RV201"])
        assert [d.code for d in kept] == ["RV101"]

    def test_max_severity_and_counts(self):
        diags = self._diags()
        assert max_severity(diags) is Severity.ERROR
        assert max_severity([]) is None
        assert count_by_severity(diags) == {
            "errors": 1, "warnings": 1, "infos": 1,
        }


class TestRenderers:
    def test_text_includes_location_code_and_hint(self):
        d = make_diagnostic("RV001", "X is unbound", span=Span(3, 7))
        text = render_text([d], "views.dl")
        assert "views.dl:3:7: error[RV001]: X is unbound" in text
        assert "hint:" in text and CODES["RV001"].paper in text
        assert "hint:" not in render_text([d], show_hints=False)

    def test_json_document_validates(self):
        d = make_diagnostic("RV101", "lonely", span=Span(1, 4))
        document = json.loads(render_json([d], "views.dl"))
        validate_document(document)
        (entry,) = document["diagnostics"]
        assert entry["code"] == "RV101"
        assert entry["line"] == 1 and entry["column"] == 4
        assert document["summary"]["warnings"] == 1

    def test_validator_rejects_malformed_documents(self):
        good = json.loads(render_json([make_diagnostic("RV101", "w")]))
        missing = dict(good)
        del missing["summary"]
        with pytest.raises(ValueError, match="missing key"):
            validate_document(missing)
        bad_code = json.loads(json.dumps(good))
        bad_code["diagnostics"][0]["code"] = "RV999"
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            validate_document(bad_code)
        skewed = json.loads(json.dumps(good))
        skewed["summary"]["warnings"] = 5
        with pytest.raises(ValueError, match="disagrees"):
            validate_document(skewed)


# ------------------------------------------------- one trigger per check


def codes_of(source, **kwargs):
    return analyze(source, **kwargs).codes()


class TestSafetyChecks:
    def test_rv001_unbound_head_variable(self):
        report = analyze("p(X, Y) :- q(X).")
        (d,) = report.errors()
        assert d.code == "RV001" and "Y" in d.message
        assert d.span is not None

    def test_rv002_unsafe_negation(self):
        assert "RV002" in codes_of("p(X) :- q(X), not r(X, W).")

    def test_rv003_unsafe_comparison(self):
        assert "RV003" in codes_of("p(X) :- q(X), Y < 3.")

    def test_rv004_unsafe_expression_argument(self):
        assert "RV004" in codes_of("p(X) :- q(X), r(Y + 1).")

    def test_rv005_non_ground_fact(self):
        assert "RV005" in codes_of("p(X).")
        assert "RV005" not in codes_of("p(1, 2).")

    def test_rv006_aggregate_leak(self):
        src = "p(X, Y) :- GROUPBY(q(X, Y), [X], M = COUNT(Y))."
        assert "RV006" in codes_of(src)

    def test_satellite_all_unsafe_variables_in_one_error(self):
        # One rule, three distinct safety violations: check_rule_safety
        # must report them all in a single exception, with positions.
        (rule,) = parse_program("p(X, W) :- q(X), not r(Z), Y < 3.")
        issues = rule_safety_issues(rule)
        assert {i.kind for i in issues} == {"head", "negation", "comparison"}
        assert all(i.span is not None for i in issues)
        with pytest.raises(SafetyError) as excinfo:
            check_rule_safety(rule)
        message = str(excinfo.value)
        for variable in ("W", "Z", "Y"):
            assert variable in message
        assert len(excinfo.value.issues) == 3


class TestStratificationCheck:
    def test_rv007_reports_the_offending_cycle(self):
        report = analyze("s(X) :- q(X), not s(X).")
        (d,) = [d for d in report.errors() if d.code == "RV007"]
        assert tuple(d.data["cycle"]) == ("s", "s")
        assert report.stratification is None and report.advice is None

    def test_rv007_longer_cycle_through_negation(self):
        src = "a(X) :- c(X).\nb(X) :- a(X).\nc(X) :- q(X), not b(X).\n"
        (d,) = [d for d in analyze(src).errors() if d.code == "RV007"]
        cycle = list(d.data["cycle"])
        assert cycle[0] == cycle[-1] and len(cycle) == 4
        assert set(cycle) == {"a", "b", "c"}


class TestStructuralChecks:
    def test_rv101_singleton_but_not_underscore(self):
        assert "RV101" in codes_of("p(X) :- q(X, Y).")
        assert "RV101" not in codes_of("p(X) :- q(X, _).")

    def test_rv102_cartesian_product(self):
        assert "RV102" in codes_of("p(X, Y) :- q(X), r(Y).")
        assert "RV102" not in codes_of("p(X, Y) :- q(X), r(X, Y).")

    def test_rv103_duplicate_subgoal(self):
        assert "RV103" in codes_of("p(X) :- q(X), q(X).")

    def test_rv104_duplicate_rule(self):
        assert "RV104" in codes_of("p(X) :- q(X).\np(X) :- q(X).\n")
        assert "RV104" not in codes_of("p(X) :- q(X).\np(X) :- r(X).\n")

    def test_rv105_min_max_but_not_count(self):
        aggregate = "a(G, M) :- GROUPBY(q(G, V), [G], M = {fn}(V))."
        assert "RV105" in codes_of(aggregate.format(fn="MIN"))
        assert "RV105" in codes_of(aggregate.format(fn="MAX"))
        assert "RV105" not in codes_of(aggregate.format(fn="COUNT"))
        assert "RV105" not in codes_of(aggregate.format(fn="SUM"))

    def test_rv106_recursion_without_base_case(self):
        assert "RV106" in codes_of("u(X) :- u(X).")

    def test_rv107_rule_over_always_empty_predicate(self):
        src = "u(X) :- u(X).\nw(X) :- q(X).\nw(X) :- u(X), q(X).\n"
        report = analyze(src)
        dead = [d for d in report.diagnostics if d.code == "RV107"]
        assert len(dead) == 1 and "u" in dead[0].message

    def test_rv108_delta_rule_fanout(self):
        body = ", ".join(f"q(X{i}, X{i + 1})" for i in range(8))
        src = f"p(X0, X8) :- {body}."
        (d,) = [d for d in analyze(src).diagnostics if d.code == "RV108"]
        assert d.data["subgoals"] == 8
        assert d.data["expansion_variants"] == 2 ** 8 - 1
        assert "RV108" not in codes_of(GOOD_SRC)

    def test_rv109_undefined_predicate_with_declarations(self):
        src = "base link/2.\nhop(X, Y) :- link(X, Z), mystery(Z, Y).\n"
        (d,) = [d for d in analyze(src).diagnostics if d.code == "RV109"]
        assert d.predicate == "mystery"
        # Without any `base` declaration the check stays silent: the
        # program has no declared vocabulary to validate against.
        assert "RV109" not in codes_of(GOOD_SRC)

    def test_rv110_unused_base_declaration(self):
        src = "base link/2.\nbase spare/3.\nhop(X, Y) :- link(X, Y).\n"
        (d,) = [d for d in analyze(src).diagnostics if d.code == "RV110"]
        assert d.predicate == "spare"
        assert d.severity is Severity.INFO


# ------------------------------------------------------------ the advisor


class TestAdvisor:
    def test_variant_counts_definition_4_1(self):
        # 3 deltable subgoals: 3 factored delta rules, 2^3 - 1 expansion
        # variants; the comparison subgoal is not deltable.
        program = parse_program(
            "p(X, W) :- q(X, Y), r(Y, Z), s(Z, W), X < W."
        )
        assert variant_counts(program) == (3, 7)

    def test_variant_counts_aggregate_rule_counts_once(self):
        program = parse_program(
            "a(G, M) :- GROUPBY(q(G, V), [G], M = COUNT(V))."
        )
        assert variant_counts(program) == (1, 1)

    def test_overall_matches_auto_selection(self):
        for src, expected in [(GOOD_SRC, "counting"), (TC_SRC, "bf")]:
            advice = advise(stratify(parse_program(src)))
            maintainer = ViewMaintainer.from_source(
                src, database_with(EDGES)
            )
            assert advice.overall == expected == maintainer.strategy

    def test_per_stratum_refinement_on_mixed_program(self):
        # tc is recursive (B/F stratum); the negation view above it is
        # nonrecursive and could be maintained by counting on its own.
        src = TC_SRC + "miss(X, Y) :- link(X, Y), not tc(Y, X).\n"
        advice = advise(stratify(parse_program(src)))
        assert advice.overall == "bf"
        by_predicate = {
            p: a for a in advice.per_stratum for p in a.predicates
        }
        assert by_predicate["tc"].strategy == "bf"
        assert by_predicate["miss"].strategy == "counting"
        (rv201,) = [
            d for d in advice.diagnostics if d.code == "RV201"
        ]
        assert "counting" in rv201.message  # mentions the refinement

    def test_rv202_matches_counting_engine_metering(self):
        # The counting engine meters ONE firing per maintained rule per
        # pass (not one per Definition 4.1 variant), so a single-rule
        # program trips a zero budget but not a budget of 1.
        zero = type("B", (), {"max_rule_firings": 0})()
        report = analyze(GOOD_SRC, budget=zero)
        (d,) = [d for d in report.diagnostics if d.code == "RV202"]
        assert d.data["per_pass_firings"] == 1
        assert d.data["strategy"] == "counting"
        one = type("B", (), {"max_rule_firings": 1})()
        assert "RV202" not in codes_of(GOOD_SRC, budget=one)
        # Per-rule, not per-variant: 3 subgoals still meter 1 firing.
        wide = "p(X, W) :- q(X, Y), r(Y, Z), s(Z, W).\n"
        assert "RV202" not in codes_of(wide, budget=one)

    def test_rv202_dred_meters_factored_variants(self):
        # DRed ticks per factored delta rule in delete + insert, plus
        # one per rule rederived: TC has 2 rules / 3 factored variants,
        # so a full pass meters 2*3 + 2 = 8 firings.
        tight = type("B", (), {"max_rule_firings": 7})()
        report = analyze(TC_SRC, budget=tight)
        (d,) = [d for d in report.diagnostics if d.code == "RV202"]
        assert d.data["per_pass_firings"] == 8
        roomy = type("B", (), {"max_rule_firings": 8})()
        assert "RV202" not in codes_of(TC_SRC, budget=roomy)

    def test_rv202_prediction_agrees_with_real_guard(self):
        # The whole point of the prediction: RV202 present ⟺ the live
        # engine breaches on a pass that touches every rule.
        from repro.errors import BudgetExceeded
        from repro.guard import GuardPolicy, MaintenanceBudget
        from repro.storage.changeset import Changeset

        for firings, predicted in [(0, True), (1, False)]:
            budget = MaintenanceBudget(max_rule_firings=firings)
            assert (
                "RV202" in codes_of(GOOD_SRC, budget=budget)
            ) is predicted
            maintainer = ViewMaintainer.from_source(
                GOOD_SRC, database_with(EDGES),
                guard=GuardPolicy(budget=budget, fallback="raise"),
            ).initialize()
            changes = Changeset().insert("link", (3, 4))
            if predicted:
                with pytest.raises(BudgetExceeded):
                    maintainer.apply(changes)
            else:
                maintainer.apply(changes)


# ---------------------------------------------------------- analyze() API


class TestAnalyze:
    def test_clean_program_report(self):
        report = analyze(GOOD_SRC, path="views.dl")
        assert report.ok and not report.errors()
        assert report.codes() == ["RV201"]
        assert report.program is not None
        assert report.stratification is not None
        assert report.advice.overall == "counting"
        assert report.path == "views.dl"

    def test_accepts_parsed_program(self):
        report = analyze(parse_program(GOOD_SRC))
        assert report.ok and report.advice.overall == "counting"

    def test_accepts_live_maintainer_and_reads_its_config(self):
        maintainer = ViewMaintainer.from_source(
            GOOD_SRC, database_with(EDGES), semantics="duplicate",
            strategy="counting",
        )
        report = analyze(maintainer)
        assert report.ok
        # A duplicate-semantics maintainer forced onto DRed would be a
        # mismatch; read from the maintainer, semantics='duplicate' with
        # counting is fine, so no RV009 appears.
        assert "RV009" not in report.codes()

    def test_rejects_unknown_targets(self):
        with pytest.raises(TypeError, match="expects Datalog source"):
            analyze(42)

    def test_parse_error_becomes_rv000_with_position(self):
        report = analyze("p(X :- q(X).")
        (d,) = report.diagnostics
        assert d.code == "RV000" and d.span is not None
        assert report.program is None and report.advice is None
        assert report.exit_code() == 1

    def test_schema_error_becomes_rv010(self):
        report = analyze("p(X) :- q(X).\np(X, Y) :- q(X), q(Y).\n")
        (d,) = report.diagnostics
        assert d.code == "RV010"

    def test_forced_counting_on_recursive_is_rv008(self):
        report = analyze(TC_SRC, strategy="counting")
        (d,) = report.errors()
        assert d.code == "RV008"
        assert tuple(d.data["cycle"]) == ("tc", "tc")
        # auto (and dred) stay clean: the advisor handles the dispatch.
        assert analyze(TC_SRC).ok
        assert analyze(TC_SRC, strategy="dred").ok

    def test_forced_dred_under_duplicates_is_rv009(self):
        report = analyze(GOOD_SRC, strategy="dred", semantics="duplicate")
        (d,) = report.errors()
        assert d.code == "RV009"

    def test_suppression_and_exit_codes(self):
        noisy = "p(X) :- q(X, Y).\n"  # RV101 warning + RV201 info
        report = analyze(noisy)
        assert report.exit_code() == 0
        assert report.exit_code("warning") == 1
        assert report.exit_code(Severity.INFO) == 1
        quiet = analyze(noisy, suppress_codes=["RV101"])
        assert quiet.exit_code("warning") == 0

    def test_diagnostics_sorted_errors_first_then_position(self):
        src = "p(X) :- q(X, Y).\nbad(X, W) :- q(X, V).\n"
        report = analyze(src)
        severities = [int(d.severity) for d in report.diagnostics]
        assert severities == sorted(severities, reverse=True)

    def test_report_render_text_has_summary_and_advice(self):
        text = analyze(GOOD_SRC).render_text()
        assert "0 error(s)" in text
        assert "strategy advisor: counting" in text

    def test_report_to_dict_validates_and_carries_advice(self):
        document = analyze(GOOD_SRC).to_dict()
        validate_document(document)
        assert document["advice"]["overall"] == "counting"
        round_trip = json.loads(analyze(GOOD_SRC).to_json())
        validate_document(round_trip)


# ------------------------------------------------- engine integration


class TestStrategyErrors:
    def test_counting_on_recursive_raises_typed_error(self):
        with pytest.raises(StrategyError) as excinfo:
            ViewMaintainer.from_source(
                TC_SRC, database_with(EDGES), strategy="counting"
            )
        error = excinfo.value
        assert isinstance(error, MaintenanceError)  # old handlers survive
        assert error.diagnostic is not None
        assert error.diagnostic.code == "RV008"
        assert tuple(error.diagnostic.data["cycle"]) == ("tc", "tc")
        assert "RV008" in str(error)

    def test_dred_under_duplicates_raises_typed_error(self):
        with pytest.raises(StrategyError) as excinfo:
            ViewMaintainer.from_source(
                GOOD_SRC, database_with(EDGES), strategy="dred",
                semantics="duplicate",
            )
        assert excinfo.value.diagnostic.code == "RV009"


# --------------------------------------------------------------- the CLI


def run_lint(tmp_path, source, *argv):
    path = tmp_path / "views.dl"
    path.write_text(source)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = lint_main([str(path), *argv])
    return code, stdout.getvalue()


class TestLintCli:
    def test_text_output_and_exit_zero(self, tmp_path):
        code, out = run_lint(tmp_path, GOOD_SRC)
        assert code == 0
        assert "info[RV201]" in out
        assert "0 error(s)" in out

    def test_error_exit_and_position(self, tmp_path):
        code, out = run_lint(tmp_path, "p(X, Y) :- q(X).")
        assert code == 1
        assert "error[RV001]" in out
        assert "views.dl:1:1" in out

    def test_json_document_validates(self, tmp_path):
        code, out = run_lint(tmp_path, GOOD_SRC, "--format", "json")
        assert code == 0
        document = json.loads(out)
        validate_document(document)
        assert document["advice"]["overall"] == "counting"
        assert document["path"].endswith("views.dl")

    def test_fail_on_warning_and_suppress(self, tmp_path):
        noisy = "p(X) :- q(X, Y).\n"
        code, _ = run_lint(tmp_path, noisy, "--fail-on", "warning")
        assert code == 1
        code, out = run_lint(
            tmp_path, noisy, "--fail-on", "warning",
            "--suppress", "RV101,RV110",
        )
        assert code == 0 and "RV101" not in out

    def test_forced_strategy_flags_mismatch(self, tmp_path):
        code, out = run_lint(tmp_path, TC_SRC, "--strategy", "counting")
        assert code == 1 and "RV008" in out

    def test_no_hints_drops_hint_lines(self, tmp_path):
        _, out = run_lint(tmp_path, "p(X) :- q(X, Y).\n")
        assert "hint:" in out
        _, out = run_lint(tmp_path, "p(X) :- q(X, Y).\n", "--no-hints")
        assert "hint:" not in out

    def test_reads_stdin_dash(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(GOOD_SRC))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = lint_main(["-", "--format", "json"])
        assert code == 0
        assert json.loads(stdout.getvalue())["path"] == "<stdin>"

    def test_missing_file_exits_2(self, capsys):
        assert lint_main(["/nonexistent/views.dl"]) == 2
        assert "views.dl" in capsys.readouterr().err

    def test_main_dispatches_lint_subcommand(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "views.dl"
        path.write_text(GOOD_SRC)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["lint", str(path)])
        assert code == 0 and "RV201" in stdout.getvalue()


# ------------------------------------------------- the shipped examples

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: One program tripping a spread of checks: exactly these codes, no more.
BAD_FIXTURE = """\
p(X, Y) :- q(X), r(Z).
s(X) :- q(X), not s(X).
t(X) :- q(X), q(X).
u(X) :- u(X).
w(X) :- q(X).
w(X) :- u(X), q(X).
m(G, M) :- GROUPBY(q2(G, V), [G], M = MIN(V)).
"""


def example_programs():
    """The Datalog sources embedded as string literals in examples/*.py.

    A literal counts when it parses with at least one proper rule; SQL
    sources and prose fail to parse and are skipped.
    """
    found = []
    for path in sorted(EXAMPLES.glob("*.py")):
        tree = python_ast.parse(path.read_text(encoding="utf-8"))
        for node in python_ast.walk(tree):
            text = getattr(node, "value", None)
            if not isinstance(text, str) or ":-" not in text:
                continue
            try:
                program = parse_program(text)
            except ReproError:
                continue
            if any(not rule.is_fact for rule in program):
                found.append((path.name, text))
    return found


class TestExamples:
    def test_every_example_lints_clean_and_advice_matches_auto(
        self, tmp_path
    ):
        programs = example_programs()
        assert len(programs) >= 5
        for name, source in programs:
            report = analyze(source)
            assert [d.code for d in report.errors()] == [], name
            maintainer = ViewMaintainer.from_source(source, Database())
            assert report.advice.overall == maintainer.strategy, name
            code, out = run_lint(tmp_path, source, "--format", "json")
            validate_document(json.loads(out))
            assert code == 0, name

    def test_bad_fixture_yields_exactly_its_codes(self, tmp_path):
        report = analyze(BAD_FIXTURE)
        assert {d.code for d in report.errors()} == {"RV001", "RV007"}
        assert {d.code for d in report.warnings()} == {
            "RV101", "RV102", "RV103", "RV105", "RV106", "RV107",
        }
        assert all(d.span is not None for d in report.errors())
        code, out = run_lint(
            tmp_path, BAD_FIXTURE, "--format", "json", "--fail-on", "warning"
        )
        validate_document(json.loads(out))
        assert code == 1
        code, out = run_lint(
            tmp_path, BAD_FIXTURE, "--format", "json",
            "--suppress", "RV001,RV007",
        )
        codes = {d["code"] for d in json.loads(out)["diagnostics"]}
        assert code == 0 and not codes & {"RV001", "RV007"}


# ------------------------------------------------------- report structure


def test_analysis_report_is_immutable():
    report = analyze(GOOD_SRC)
    assert isinstance(report, AnalysisReport)
    with pytest.raises(Exception):
        report.diagnostics = ()
    assert all(isinstance(d, Diagnostic) for d in report.diagnostics)
