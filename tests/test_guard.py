"""Guarded maintenance: budgets, fallback controller, quarantine.

The contract under test (docs/operations.md): a maintenance pass that
breaches its :class:`MaintenanceBudget` rolls back to the bit-identical
pre-pass state and then — per :class:`GuardPolicy` — reroutes to the
full-recompute baseline, parks the changeset, or raises; repeated
breaches trip a circuit breaker that routes whole passes to the
baseline; poison changesets quarantine to a dead-letter file instead of
failing the stream; and strict reads refuse to serve views that lag it.
"""

import json

import pytest

from repro.cli import Shell
from repro.core.maintenance import ViewMaintainer
from repro.errors import (
    BudgetExceeded,
    MaintenanceError,
    PoisonChangesetError,
    StaleViewError,
)
from repro.guard import (
    GuardPolicy,
    MaintenanceBudget,
    BudgetMeter,
    DeadLetterQueue,
    NOOP_METER,
)
from repro.storage.changeset import Changeset
from repro.storage.journal import Journal

from conftest import EXAMPLE_1_1_LINKS, HOP_TRI_SRC, TC_SRC, database_with

MIXED = Changeset().delete("link", ("a", "b")).insert("link", ("e", "a"))

STRATEGIES = [("counting", HOP_TRI_SRC), ("dred", TC_SRC)]


def build(source, strategy, guard=None, links=EXAMPLE_1_1_LINKS, **kwargs):
    maintainer = ViewMaintainer.from_source(
        source, database_with(links), strategy=strategy, guard=guard, **kwargs
    )
    return maintainer.initialize()


def fingerprint(maintainer):
    return {
        "base": {
            name: maintainer.database.relation(name).to_dict()
            for name in sorted(maintainer.database.names())
        },
        "views": {
            name: relation.to_dict()
            for name, relation in sorted(maintainer.views.items())
        },
        "agg": {
            name: dict(view._states)
            for name, view in sorted(maintainer.aggregate_views.items())
        },
    }


class TestBudgetMeter:
    def test_unbounded_budget_is_disabled(self):
        meter = BudgetMeter(MaintenanceBudget())
        assert not meter.enabled
        meter.checkpoint("anywhere")  # no-op, never raises

    def test_noop_meter_is_inert(self):
        assert not NOOP_METER.enabled
        NOOP_METER.reset()
        NOOP_METER.tick(rules=5, tuples=5)
        NOOP_METER.checkpoint("anywhere")
        NOOP_METER.observe_delta_ratio("v", 10**6, 1)

    def test_rule_firing_limit(self):
        meter = BudgetMeter(MaintenanceBudget(max_rule_firings=2))
        meter.reset()
        meter.tick(rules=3)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.checkpoint("here")
        assert excinfo.value.kind == "rule_firings"
        assert excinfo.value.phase == "here"

    def test_delta_tuple_limit(self):
        meter = BudgetMeter(MaintenanceBudget(max_delta_tuples=10))
        meter.reset()
        meter.tick(tuples=11)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.checkpoint("there")
        assert excinfo.value.kind == "delta_tuples"

    def test_deadline(self):
        meter = BudgetMeter(MaintenanceBudget(deadline_seconds=0.0))
        meter.reset()
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.checkpoint("slow")
        assert excinfo.value.kind == "deadline"

    def test_reset_zeroes_counters(self):
        meter = BudgetMeter(MaintenanceBudget(max_rule_firings=2))
        meter.reset()
        meter.tick(rules=3)
        meter.reset()
        meter.checkpoint("fresh")  # counters are back to zero

    def test_blowup_trips_above_ratio(self):
        meter = BudgetMeter(blowup_ratio=2.0, blowup_min_view=0)
        assert meter.enabled and meter.blowup_enabled
        meter.observe_delta_ratio("hop", 4, 10)  # 4 <= 2.0 * 10: fine
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.observe_delta_ratio("hop", 21, 10)
        assert excinfo.value.kind == "delta_blowup"

    def test_blowup_ignores_small_deltas(self):
        meter = BudgetMeter(blowup_ratio=0.1, blowup_min_view=64)
        meter.observe_delta_ratio("hop", 64, 1)  # under min_view: skipped


class TestGuardPolicy:
    def test_default_policy_is_inert(self):
        maintainer = build(HOP_TRI_SRC, "counting")
        assert not maintainer.guard.active
        assert maintainer.guard.meter is not NOOP_METER
        assert not maintainer.guard.meter.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fallback": "retry"},
            {"breaker_threshold": 0},
            {"breaker_cooldown_passes": 0},
            {"journal_retry_attempts": 0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuardPolicy(**kwargs)

    def test_quarantine_path_enables_admission(self, tmp_path):
        on = GuardPolicy(quarantine_path=str(tmp_path / "q.dlq"))
        assert on.admission_enabled
        assert not GuardPolicy().admission_enabled
        off = GuardPolicy(
            quarantine_path=str(tmp_path / "q.dlq"), admission=False
        )
        assert not off.admission_enabled


class TestBudgetBreach:
    @pytest.mark.parametrize("strategy, source", STRATEGIES)
    def test_raise_mode_rolls_back_bit_identical(self, strategy, source):
        guard = GuardPolicy(
            budget=MaintenanceBudget(max_rule_firings=0), fallback="raise"
        )
        maintainer = build(source, strategy, guard)
        before = fingerprint(maintainer)
        with pytest.raises(BudgetExceeded) as excinfo:
            maintainer.apply(MIXED)
        assert excinfo.value.kind == "rule_firings"
        assert fingerprint(maintainer) == before
        assert maintainer.lifetime.passes == 0
        maintainer.consistency_check()

    @pytest.mark.parametrize("strategy, source", STRATEGIES)
    def test_recompute_fallback_matches_incremental(self, strategy, source):
        guard = GuardPolicy(budget=MaintenanceBudget(max_rule_firings=0))
        maintainer = build(source, strategy, guard)
        control = build(source, strategy)

        report = maintainer.apply(MIXED)
        control.apply(MIXED)

        assert report.strategy == "recompute"
        assert fingerprint(maintainer) == fingerprint(control)
        assert maintainer.guard.fallback_passes == 1
        assert maintainer.lifetime.passes == 1
        maintainer.consistency_check()

    @pytest.mark.parametrize("strategy, source", STRATEGIES)
    def test_forced_fallback_matches_incremental(self, strategy, source):
        maintainer = build(source, strategy, GuardPolicy(force_fallback=True))
        control = build(source, strategy)
        report = maintainer.apply(MIXED)
        control.apply(MIXED)
        assert report.strategy == "recompute"
        assert fingerprint(maintainer) == fingerprint(control)
        assert maintainer.guard.fallback_passes == 1
        maintainer.consistency_check()

    def test_fallback_report_carries_view_deltas(self):
        maintainer = build(
            HOP_TRI_SRC, "counting", GuardPolicy(force_fallback=True)
        )
        control = build(HOP_TRI_SRC, "counting")
        report = maintainer.apply(MIXED)
        expected = control.apply(MIXED)
        assert {
            name: delta.to_dict() for name, delta in report.view_deltas.items()
        } == {
            name: delta.to_dict()
            for name, delta in expected.view_deltas.items()
        }

    def test_fallback_notifies_subscribers(self):
        maintainer = build(
            HOP_TRI_SRC, "counting", GuardPolicy(force_fallback=True)
        )
        seen = []
        maintainer.subscribe("hop", lambda view, delta: seen.append(view))
        maintainer.apply(MIXED)
        assert seen == ["hop"]

    def test_skip_mode_parks_changeset_and_reports_lag(self, tmp_path):
        guard = GuardPolicy(
            budget=MaintenanceBudget(max_rule_firings=0),
            fallback="skip",
            quarantine_path=str(tmp_path / "q.dlq"),
        )
        maintainer = build(HOP_TRI_SRC, "counting", guard)
        before = fingerprint(maintainer)

        report = maintainer.apply(MIXED)

        assert report.strategy == "skipped"
        assert fingerprint(maintainer) == before
        assert maintainer.guard.skipped_passes == 1
        assert maintainer.lag()["changesets"] == 1
        assert len(maintainer.quarantine) == 1
        [entry] = maintainer.quarantine.entries()
        assert entry["reason"] == "budget"

    def test_blowup_heuristic_reroutes_to_recompute(self):
        guard = GuardPolicy(blowup_ratio=0.5, blowup_min_view=1)
        maintainer = build(HOP_TRI_SRC, "counting", guard)
        control = build(HOP_TRI_SRC, "counting")

        # One dense changeset: the hop delta dwarfs the stored view.
        burst = Changeset()
        for i in range(12):
            burst.insert("link", ("b", f"n{i}"))
        report = maintainer.apply(burst)
        control.apply(burst)

        assert report.strategy == "recompute"
        assert maintainer.guard.breaches == 1
        assert fingerprint(maintainer) == fingerprint(control)
        maintainer.consistency_check()

    def test_journal_survives_fallback_pass(self, tmp_path):
        maintainer = build(
            HOP_TRI_SRC, "counting", GuardPolicy(force_fallback=True)
        )
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal)
        maintainer.apply(MIXED)
        replayed = list(journal.replay())
        assert len(replayed) == 1


INJECTED = BudgetExceeded("injected breach", kind="injected")


def breach_policy(**kwargs):
    """An enabled-but-unreachable budget: checkpoints run, never trip."""
    return GuardPolicy(
        budget=MaintenanceBudget(max_rule_firings=10**9), **kwargs
    )


class TestCircuitBreaker:
    def test_breaker_opens_after_threshold_and_recovers(self):
        maintainer = build(
            HOP_TRI_SRC,
            "counting",
            breach_policy(breaker_threshold=2, breaker_cooldown_passes=1),
        )
        guard = maintainer.guard

        # Two breaching passes (the injected fault fires once per pass,
        # at the first checkpoint) open the breaker.
        maintainer.faults.arm(
            "budget_check", first_k=2, exception=INJECTED
        )
        assert maintainer.apply(MIXED).strategy == "recompute"
        assert guard.state == "closed" and guard.consecutive_breaches == 1
        undo = Changeset().insert("link", ("a", "b")).delete("link", ("e", "a"))
        assert maintainer.apply(undo).strategy == "recompute"
        assert guard.state == "open"
        assert guard.breaches == 2

        # Cooldown of 1: the next pass is the half-open probe; the
        # fault plan is exhausted, so it succeeds and closes the breaker.
        assert maintainer.apply(MIXED).strategy == "counting"
        assert guard.state == "closed"
        assert guard.consecutive_breaches == 0
        maintainer.consistency_check()

    def test_open_breaker_routes_without_incremental_attempt(self):
        maintainer = build(
            HOP_TRI_SRC,
            "counting",
            breach_policy(breaker_threshold=1, breaker_cooldown_passes=3),
        )
        guard = maintainer.guard
        maintainer.faults.arm("budget_check", exception=INJECTED)
        maintainer.apply(MIXED)
        assert guard.state == "open"

        # While open, passes run as recompute and never hit a checkpoint:
        # the re-armed fault stays un-fired until the half-open probe.
        maintainer.faults.arm("budget_check", exception=INJECTED)
        undo = Changeset().insert("link", ("a", "b")).delete("link", ("e", "a"))
        assert maintainer.apply(undo).strategy == "recompute"
        assert maintainer.apply(MIXED).strategy == "recompute"
        assert maintainer.faults.fired == ["budget_check"]  # opener only
        # Third routed pass exhausts the cooldown: the half-open probe
        # runs incrementally, hits the armed fault, and falls back.
        assert maintainer.apply(undo).strategy == "recompute"
        assert maintainer.faults.fired == ["budget_check"] * 2
        assert guard.state == "open"
        maintainer.consistency_check()

    def test_failed_probe_reopens_for_fresh_cooldown(self):
        maintainer = build(
            HOP_TRI_SRC,
            "counting",
            breach_policy(
                breaker_threshold=1,
                breaker_cooldown_passes=1,
                fallback="recompute",
            ),
        )
        guard = maintainer.guard
        maintainer.faults.arm("budget_check", first_k=2, exception=INJECTED)
        maintainer.apply(MIXED)  # breach 1: opens
        assert guard.state == "open"
        undo = Changeset().insert("link", ("a", "b")).delete("link", ("e", "a"))
        maintainer.apply(undo)  # half-open probe, breach 2: reopens
        assert guard.state == "open"
        assert guard.passes_until_probe == 1
        maintainer.apply(MIXED)  # probe again; plan exhausted: closes
        assert guard.state == "closed"
        maintainer.consistency_check()

    def test_breaker_metrics_and_status(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        maintainer = build(
            HOP_TRI_SRC,
            "counting",
            breach_policy(breaker_threshold=1),
            metrics=registry,
        )
        maintainer.faults.arm("budget_check", exception=INJECTED)
        maintainer.apply(MIXED)
        status = maintainer.guard.to_dict()
        assert status["breaker"] == "open"
        assert status["breaches_total"] == 1
        assert status["fallback_passes"] == 1
        exposition = registry.to_prometheus()
        assert "repro_guard_budget_breaches_total" in exposition
        assert "repro_guard_fallback_passes_total" in exposition
        assert "repro_guard_breaker_transitions_total" in exposition
        assert "repro_guard_breaker_state" in exposition


class TestAdmissionAndQuarantine:
    def poisoned(self, tmp_path, metrics=None, **kwargs):
        guard = GuardPolicy(
            quarantine_path=str(tmp_path / "q.dlq"), **kwargs
        )
        return build(HOP_TRI_SRC, "counting", guard, metrics=metrics)

    def test_idb_write_quarantined(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        maintainer = self.poisoned(tmp_path, metrics=registry)
        before = fingerprint(maintainer)
        report = maintainer.apply(Changeset().insert("hop", ("x", "y")))
        assert report.strategy == "quarantined"
        assert fingerprint(maintainer) == before
        [entry] = maintainer.quarantine.entries()
        assert entry["reason"] == "admission"
        assert "derived relation" in entry["error"]
        assert "repro_guard_quarantined_total" in registry.to_prometheus()

    def test_arity_mismatch_quarantined(self, tmp_path):
        maintainer = self.poisoned(tmp_path)
        report = maintainer.apply(Changeset().insert("link", ("x",)))
        assert report.strategy == "quarantined"
        assert "arity" in maintainer.quarantine.entries()[0]["error"]

    def test_non_tuple_row_quarantined(self, tmp_path):
        maintainer = self.poisoned(tmp_path)
        changes = Changeset()
        changes.insert("link", ("x", "y"))
        # Corrupt the staged delta the way a buggy producer would.
        delta = next(iter(changes))[1]
        delta._rows["not-a-tuple"] = 1
        report = maintainer.apply(changes)
        assert report.strategy == "quarantined"

    def test_over_deletion_quarantined(self, tmp_path):
        maintainer = self.poisoned(tmp_path)
        report = maintainer.apply(
            Changeset().delete("link", ("nope", "nope"))
        )
        assert report.strategy == "quarantined"
        assert "stored" in maintainer.quarantine.entries()[0]["error"]

    def test_admission_without_quarantine_raises(self):
        maintainer = build(
            HOP_TRI_SRC, "counting", GuardPolicy(admission=True)
        )
        with pytest.raises(PoisonChangesetError):
            maintainer.apply(Changeset().insert("hop", ("x", "y")))

    def test_strict_reads_refuse_stale_views(self, tmp_path):
        maintainer = self.poisoned(tmp_path, strict_reads=True)
        maintainer.apply(Changeset().insert("hop", ("x", "y")))
        with pytest.raises(StaleViewError, match="behind the stream"):
            maintainer.relation("hop")
        # Degraded reads stay available on request.
        assert maintainer.relation("hop", strict=False)
        # Draining the queue makes strict reads legal again.
        maintainer.purge_quarantined()
        maintainer.relation("hop")

    def test_requeue_still_poison_requarantines(self, tmp_path):
        maintainer = self.poisoned(tmp_path)
        maintainer.apply(Changeset().insert("hop", ("x", "y")))
        reports = maintainer.requeue_quarantined()
        assert [r.strategy for r in reports] == ["quarantined"]
        assert len(maintainer.quarantine) == 1
        assert maintainer.lag()["changesets"] == 1

    def test_requeue_healed_changeset_applies(self, tmp_path):
        maintainer = self.poisoned(tmp_path)
        control = build(HOP_TRI_SRC, "counting")
        # Over-deletion quarantines...
        maintainer.apply(Changeset().delete("link", ("e", "a")))
        assert maintainer.lag()["changesets"] == 1
        # ...the missing row arrives...
        maintainer.apply(Changeset().insert("link", ("e", "a")))
        control.apply(Changeset().insert("link", ("e", "a")))
        # ...and the requeue now commits cleanly.
        reports = maintainer.requeue_quarantined()
        control.apply(Changeset().delete("link", ("e", "a")))
        assert [r.strategy for r in reports] == ["counting"]
        assert maintainer.lag()["changesets"] == 0
        assert len(maintainer.quarantine) == 0
        assert fingerprint(maintainer) == fingerprint(control)

    def test_requeue_single_entry_by_id(self, tmp_path):
        maintainer = self.poisoned(tmp_path)
        maintainer.apply(Changeset().insert("hop", ("x", "y")))
        maintainer.apply(Changeset().insert("tri_hop", ("x", "y")))
        assert len(maintainer.quarantine) == 2
        reports = maintainer.requeue_quarantined(2)
        assert len(reports) == 1
        remaining = maintainer.quarantine.entries()
        assert {e["id"] for e in remaining} >= {1}

    def test_purge_clears_queue_and_lag(self, tmp_path):
        maintainer = self.poisoned(tmp_path)
        maintainer.apply(Changeset().insert("hop", ("x", "y")))
        maintainer.apply(Changeset().insert("hop", ("y", "z")))
        assert maintainer.purge_quarantined() == 2
        assert len(maintainer.quarantine) == 0
        assert maintainer.lag()["changesets"] == 0

    def test_requeue_without_queue_raises(self):
        maintainer = build(HOP_TRI_SRC, "counting")
        with pytest.raises(MaintenanceError, match="no quarantine"):
            maintainer.requeue_quarantined()

    def test_dead_letter_queue_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "q.dlq")
        queue = DeadLetterQueue(path)
        queue.append(Changeset().insert("link", ("a", "b")), "admission")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 2, "reason": "tor')  # crash mid-append
        assert len(queue.entries()) == 1


class TestJournalRetry:
    def retrying(self, tmp_path, **kwargs):
        guard = GuardPolicy(
            journal_retry_attempts=3,
            journal_retry_base_seconds=0.0,
            **kwargs,
        )
        maintainer = build(HOP_TRI_SRC, "counting", guard)
        journal = Journal(str(tmp_path / "log.jsonl"))
        maintainer.attach_journal(journal)
        return maintainer, journal

    def test_transient_oserror_retried_to_success(self, tmp_path):
        maintainer, journal = self.retrying(tmp_path)
        maintainer.faults.arm(
            "journal_append", first_k=2, exception=OSError("disk wobble")
        )
        report = maintainer.apply(MIXED)
        assert report.strategy == "counting"
        assert maintainer.guard.journal_retries == 2
        assert len(list(journal.replay())) == 1
        maintainer.consistency_check()

    def test_persistent_oserror_exhausts_and_rolls_back(self, tmp_path):
        maintainer, journal = self.retrying(tmp_path)
        before = fingerprint(maintainer)
        maintainer.faults.arm(
            "journal_append", every_n=1, exception=OSError("disk gone")
        )
        with pytest.raises(OSError, match="disk gone"):
            maintainer.apply(MIXED)
        assert len(maintainer.faults.fired) == 3  # one per attempt
        assert fingerprint(maintainer) == before
        assert len(list(journal.replay())) == 0

    def test_non_oserror_is_not_retried(self, tmp_path):
        maintainer, journal = self.retrying(tmp_path)
        maintainer.faults.arm("journal_append")  # default InjectedFault
        from repro.resilience import InjectedFault

        with pytest.raises(InjectedFault):
            maintainer.apply(MIXED)
        assert maintainer.guard.journal_retries == 0


class TestShellIntegration:
    SRC = "\n".join(
        [
            "link(a, b).",
            "link(b, c).",
            "hop(X, Y) :- link(X, Z), link(Z, Y).",
        ]
    )

    def shell(self, tmp_path, **kwargs):
        guard = GuardPolicy(
            quarantine_path=str(tmp_path / "q.dlq"), **kwargs
        )
        return Shell(self.SRC, guard=guard)

    def test_status_json_reports_guard_and_lag(self, tmp_path):
        shell = self.shell(tmp_path)
        shell.execute("+ hop(x, y)")
        shell.execute("commit")
        status = json.loads(shell.execute("status --json"))
        assert status["guard"]["breaker"] == "closed"
        assert status["guard"]["admission"] is True
        assert status["guard"]["quarantine"]["depth"] == 1
        assert status["lag"]["changesets"] == 1
        assert status["lag"]["views"]["hop"]["changesets"] == 1

    def test_quarantine_commands_round_trip(self, tmp_path):
        shell = self.shell(tmp_path)
        shell.execute("+ hop(x, y)")
        shell.execute("commit")
        listing = shell.execute("quarantine")
        assert "#1" in listing and "admission" in listing
        requeue = shell.execute("quarantine requeue")
        assert "re-quarantined" in requeue
        assert "purged 1" in shell.execute("quarantine purge")
        assert shell.execute("quarantine") == "quarantine is empty"

    def test_unconfigured_quarantine_explains_itself(self):
        shell = Shell(self.SRC)
        assert "not configured" in shell.execute("quarantine")

    def test_cli_guard_flags_build_policy(self, tmp_path):
        import repro.cli as cli

        captured = {}

        class FakeShell:
            def __init__(self, *args, **kwargs):
                captured.update(kwargs)
                self.done = True

            def execute(self, line):
                return ""

        original = cli.Shell
        cli.Shell = FakeShell
        try:
            program = tmp_path / "p.dl"
            program.write_text(self.SRC)
            cli.main(
                [
                    str(program),
                    "--guard-deadline", "2.5",
                    "--guard-max-rules", "1000",
                    "--guard-blowup", "8",
                    "--guard-fallback", "skip",
                    "--quarantine", str(tmp_path / "q.dlq"),
                    "--strict-reads",
                ]
            )
        finally:
            cli.Shell = original
        policy = captured["guard"]
        assert policy.budget.deadline_seconds == 2.5
        assert policy.budget.max_rule_firings == 1000
        assert policy.blowup_ratio == 8
        assert policy.fallback == "skip"
        # Bare --strict-reads means reject-on-stale (the pre-MVCC True).
        assert policy.strict_reads == "reject"
