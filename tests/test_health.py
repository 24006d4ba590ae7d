"""Tests for the health layer: SLO engine, continuous profiler, top.

Unit-level coverage drives :class:`HealthEngine` and
:class:`ContinuousProfiler` with stub reports (deterministic pass-count
windows, no wall clock); the integration tests go through a real
:class:`ViewMaintainer` — committed, recompute-fallback, and
quarantined passes all reach the hooks, and ``top_frame`` renders the
live state.
"""

import json
import logging

import pytest

from repro.core.maintenance import ViewMaintainer
from repro.errors import PoisonChangesetError
from repro.guard import GuardPolicy
from repro.obs import (
    SLO,
    CallbackAlertSink,
    ContinuousProfiler,
    HealthEngine,
    JsonlAlertSink,
    LogAlertSink,
    MetricsRegistry,
    RingSink,
    Tracer,
    load_slos,
    render_profile,
    top_frame,
    validate_profile_report,
    validate_prometheus,
)
from repro.storage.changeset import Changeset
from repro.storage.database import Database

HOP_SRC = "hop(X,Y) :- link(X,Z), link(Z,Y)."
EDGES = [("a", "b"), ("b", "c"), ("c", "d")]


def maintainer_with(source=HOP_SRC, **kwargs):
    db = Database()
    db.insert_rows("link", EDGES)
    return ViewMaintainer.from_source(source, db, **kwargs).initialize()


class _StubStats:
    def __init__(self, phase_seconds):
        self.phase_seconds = phase_seconds


class _StubReport:
    """A MaintenanceReport stand-in with just what the hooks read."""

    def __init__(
        self,
        strategy="counting",
        seconds=0.01,
        views=("hop",),
        tuples=2,
        span_id=None,
        phase_seconds=None,
    ):
        self.strategy = strategy
        self.seconds = seconds
        self.span_id = span_id
        self.view_deltas = {view: object() for view in views}
        self._tuples = tuples
        self._phases = phase_seconds or {"propagate": seconds}

    def engine_stats(self):
        return _StubStats(self._phases)

    def total_changes(self):
        return self._tuples

    def changed_views(self):
        return list(self.view_deltas)


class _StubMaintainer:
    def __init__(self, lag=0):
        self._lag = lag

    def lag(self):
        return {"changesets": self._lag, "seconds": 0.0}


BURNY = dict(compliance=0.8, fast_window=3, slow_window=6,
             burn_threshold=1.5)


# ------------------------------------------------------------------- spec


class TestSLOSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO("hop", "uptime", 0)
        with pytest.raises(ValueError):
            SLO("hop", "error_rate", 0.0, compliance=1.0)
        with pytest.raises(ValueError):
            SLO("hop", "error_rate", 0.0, fast_window=0)
        with pytest.raises(ValueError):
            SLO("hop", "error_rate", 0.0, fast_window=9, slow_window=3)
        with pytest.raises(ValueError):
            SLO("hop", "error_rate", 0.0, burn_threshold=0.0)
        with pytest.raises(ValueError):
            SLO("hop", "error_rate", -1.0)

    def test_budget_is_complement_of_compliance(self):
        assert SLO("hop", "error_rate", 0.0, compliance=0.8).budget == (
            pytest.approx(0.2)
        )

    def test_dict_round_trip(self):
        slo = SLO("hop", "freshness_lag", 2, **BURNY)
        assert SLO.from_dict(slo.to_dict()) == slo

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ValueError):
            SLO.from_dict({"view": "hop", "objective": "error_rate",
                           "target": 0, "color": "red"})
        with pytest.raises(ValueError):
            SLO.from_dict({"view": "hop", "objective": "error_rate"})

    def test_load_slos_accepts_json_text_dicts_and_instances(self):
        spec = [{"view": "hop", "objective": "freshness_lag", "target": 0}]
        from_list = load_slos(spec)
        from_json = load_slos(json.dumps(spec))
        from_doc = load_slos({"slos": spec})
        from_instances = load_slos(from_list)
        assert from_list == from_json == from_doc == from_instances
        with pytest.raises(ValueError):
            load_slos("42")


# ----------------------------------------------------------------- engine


class TestHealthEngine:
    def engine(self, **kwargs):
        return HealthEngine(
            [SLO("hop", "error_rate", 0.0, **BURNY)],
            metrics=MetricsRegistry(),
            **kwargs,
        )

    def drive(self, engine, strategies, lag=0):
        alerts = []
        maintainer = _StubMaintainer(lag=lag)
        for strategy in strategies:
            alerts.extend(
                engine.observe_pass(maintainer, _StubReport(strategy))
            )
        return alerts

    def test_duplicate_slo_rejected(self):
        slo = SLO("hop", "error_rate", 0.0)
        with pytest.raises(ValueError):
            HealthEngine([slo, slo], metrics=MetricsRegistry())

    def test_healthy_passes_never_alert(self):
        engine = self.engine()
        assert self.drive(engine, ["counting"] * 10) == []
        (state,) = engine.states()
        assert state["good_fraction"] == 1.0
        assert state["budget_remaining"] == 1.0
        assert not state["alerting"]

    def test_fire_needs_a_full_fast_window(self):
        engine = self.engine()
        # Two degraded passes: burn is hot but the fast window (3) is
        # not full yet — a cold start must not page.
        assert self.drive(engine, ["quarantined"] * 2) == []
        alerts = self.drive(engine, ["quarantined"])
        assert [a["event"] for a in alerts] == ["fire"]
        assert engine.alerts_active() == 1

    def test_fire_payload_contents(self):
        engine = self.engine()
        (alert,) = self.drive(engine, ["quarantined"] * 3)
        assert alert["event"] == "fire"
        assert alert["view"] == "hop"
        assert alert["objective"] == "error_rate"
        assert alert["window"] == {"fast": 3, "slow": 6}
        assert alert["burn_rate"]["fast"] >= alert["threshold"] == 1.5
        assert alert["pass_index"] == 3
        json.dumps(alert)  # payload must be JSON-serializable

    def test_no_refire_while_alerting(self):
        engine = self.engine()
        alerts = self.drive(engine, ["quarantined"] * 6)
        assert [a["event"] for a in alerts] == ["fire"]
        assert engine.alerts_fired == 1

    def test_clear_when_fast_window_cools(self):
        engine = self.engine()
        self.drive(engine, ["quarantined"] * 3)
        # One good pass still leaves 2/3 of the fast window bad
        # (burn 3.33 >= 1.5); three good passes cool it below threshold.
        assert self.drive(engine, ["counting"]) == []
        alerts = self.drive(engine, ["counting", "counting"])
        assert [a["event"] for a in alerts] == ["clear"]
        assert engine.alerts_active() == 0
        assert engine.alerts_cleared == 1

    def test_recompute_fallback_counts_as_degraded(self):
        engine = self.engine()
        alerts = self.drive(engine, ["recompute"] * 3)
        assert [a["event"] for a in alerts] == ["fire"]

    def test_freshness_lag_objective_reads_maintainer_lag(self):
        engine = HealthEngine(
            [SLO("hop", "freshness_lag", 0, **BURNY)],
            metrics=MetricsRegistry(),
        )
        assert self.drive(engine, ["counting"] * 3, lag=0) == []
        alerts = self.drive(engine, ["counting"] * 3, lag=2)
        assert [a["event"] for a in alerts] == ["fire"]
        (state,) = engine.states()
        assert state["last_value"] == 2.0

    def test_pass_duration_objective(self):
        engine = HealthEngine(
            [SLO("hop", "pass_duration_p99", 1.0, **BURNY)],
            metrics=MetricsRegistry(),
        )
        maintainer = _StubMaintainer()
        for _ in range(3):
            alerts = engine.observe_pass(
                maintainer, _StubReport(seconds=5.0)
            )
        assert [a["event"] for a in alerts] == ["fire"]

    def test_metrics_family_recorded(self):
        registry = MetricsRegistry()
        engine = HealthEngine(
            [SLO("hop", "error_rate", 0.0, **BURNY)], metrics=registry
        )
        engine.observe_pass(_StubMaintainer(), _StubReport("quarantined"))
        assert registry.get("repro_slo_compliance").value(
            view="hop", objective="error_rate"
        ) == 0.0
        assert registry.get("repro_slo_burn_rate").value(
            view="hop", objective="error_rate", window="fast"
        ) > 0.0
        assert registry.get(
            "repro_slo_error_budget_remaining"
        ).value(view="hop", objective="error_rate") < 1.0
        text = registry.to_prometheus()
        assert "repro_slo_alerts_active" in text

    def test_to_dict_summary(self):
        engine = self.engine()
        self.drive(engine, ["quarantined"] * 3)
        summary = engine.to_dict()
        assert summary["enabled"] is True
        assert summary["passes_evaluated"] == 3
        assert summary["alerts_active"] == 1
        assert summary["alerts_fired"] == 1
        assert len(summary["slos"]) == 1


class TestAlertSinks:
    def slo(self):
        return SLO("hop", "error_rate", 0.0, **BURNY)

    def test_callback_and_jsonl_sinks_receive_alerts(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        seen = []
        engine = HealthEngine(
            [self.slo()],
            metrics=MetricsRegistry(),
            sinks=[CallbackAlertSink(seen.append), JsonlAlertSink(path)],
        )
        for _ in range(3):
            engine.observe_pass(_StubMaintainer(), _StubReport("skipped"))
        engine.close()
        assert [a["event"] for a in seen] == ["fire"]
        with open(path, encoding="utf-8") as handle:
            logged = [json.loads(line) for line in handle]
        assert logged == seen

    def test_raising_sink_does_not_abort_the_pass(self):
        # A user-supplied sink that raises must never poison the
        # maintenance pass that produced the alert; healthy sinks
        # later in the list still receive it.
        def explode(_alert):
            raise RuntimeError("webhook down")

        seen = []
        registry = MetricsRegistry()
        engine = HealthEngine(
            [self.slo()],
            metrics=registry,
            sinks=[CallbackAlertSink(explode), CallbackAlertSink(seen.append)],
        )
        for _ in range(3):
            engine.observe_pass(_StubMaintainer(), _StubReport("skipped"))
        assert [a["event"] for a in seen] == ["fire"]
        assert engine.alerts_dropped == 1
        assert registry.get("repro_alerts_dropped_total").value(
            sink="CallbackAlertSink"
        ) == 1
        assert engine.to_dict()["alerts_dropped"] == 1

    def test_broken_sink_logged_once(self, caplog):
        def explode(_alert):
            raise RuntimeError("still down")

        engine = HealthEngine(
            [self.slo()],
            metrics=MetricsRegistry(),
            sinks=[CallbackAlertSink(explode)],
        )
        with caplog.at_level(logging.WARNING, logger="repro.obs.health"):
            # fire, clear, fire again: three alerts through the same
            # broken sink, one warning total.
            for strategy in ["skipped"] * 3 + ["counting"] * 3 + ["skipped"] * 3:
                engine.observe_pass(_StubMaintainer(), _StubReport(strategy))
        assert engine.alerts_dropped == 3
        dropped = [r for r in caplog.records if "dropped" in r.message]
        assert len(dropped) == 1

    def test_log_sink_warns_on_fire(self, caplog):
        engine = HealthEngine(
            [self.slo()],
            metrics=MetricsRegistry(),
            sinks=[LogAlertSink()],
        )
        with caplog.at_level(logging.WARNING, logger="repro.obs.health"):
            for _ in range(3):
                engine.observe_pass(
                    _StubMaintainer(), _StubReport("skipped")
                )
        assert any("fire" in r.message for r in caplog.records)


# --------------------------------------------------------------- profiler


class TestContinuousProfiler:
    def test_window_validated(self):
        with pytest.raises(ValueError):
            ContinuousProfiler(window=0)

    def test_quantiles_per_key(self):
        profiler = ContinuousProfiler()
        for ms in (1, 2, 3, 4, 100):
            profiler.observe_pass(_StubReport(seconds=ms / 1000.0))
        report = profiler.report()
        assert validate_profile_report(report) == []
        entry = next(
            e for e in report["profiles"]
            if e["view"] == "hop" and e["phase"] == "total"
        )
        assert entry["count"] == 5
        assert entry["p50"] == pytest.approx(0.003)
        assert entry["p50"] <= entry["p95"] <= entry["p99"]
        assert entry["p99"] > 0.05  # the fat tail dominates p99

    def test_aggregate_pseudo_view_and_phase_breakdown(self):
        profiler = ContinuousProfiler()
        profiler.observe_pass(
            _StubReport(views=("hop",),
                        phase_seconds={"seed": 0.001, "propagate": 0.002})
        )
        profiler.observe_pass(
            _StubReport(views=("trihop",),
                        phase_seconds={"seed": 0.001, "propagate": 0.002})
        )
        report = profiler.report()
        keys = {(e["view"], e["phase"]) for e in report["profiles"]}
        assert ("*", "total") in keys
        assert ("*", "propagate") in keys
        star_total = next(
            e for e in report["profiles"]
            if e["view"] == "*" and e["phase"] == "total"
        )
        assert star_total["count"] == 2
        filtered = profiler.report(view="hop")
        assert {e["view"] for e in filtered["profiles"]} == {"hop"}

    def test_degraded_zero_work_passes_not_profiled(self):
        profiler = ContinuousProfiler()
        profiler.observe_pass(
            _StubReport("quarantined", seconds=0.0, views=())
        )
        assert profiler.passes == 0
        assert len(profiler) == 0

    def test_exemplar_tracks_worst_pass(self):
        profiler = ContinuousProfiler()
        profiler.observe_pass(_StubReport(seconds=0.001, span_id=11))
        profiler.observe_pass(_StubReport(seconds=0.050, span_id=22))
        profiler.observe_pass(_StubReport(seconds=0.002, span_id=33))
        entry = next(
            e for e in profiler.report()["profiles"]
            if e["view"] == "hop" and e["phase"] == "total"
        )
        assert entry["exemplar"] == {"span_id": 22, "seconds": 0.050}
        assert profiler.worst_exemplar() == 22

    def test_window_bounds_samples_but_not_totals(self):
        profiler = ContinuousProfiler(window=4)
        for _ in range(10):
            profiler.observe_pass(_StubReport(seconds=0.001))
        entry = next(
            e for e in profiler.report()["profiles"]
            if e["view"] == "hop" and e["phase"] == "total"
        )
        assert entry["count"] == 10  # lifetime count survives eviction
        assert entry["total_seconds"] == pytest.approx(0.010)

    def test_render_empty_and_summary(self):
        profiler = ContinuousProfiler(window=16)
        assert "no passes" in render_profile(profiler)
        assert profiler.summary() == {
            "enabled": True, "passes": 0, "keys": 0, "window": 16,
        }


# ------------------------------------------------------------ integration


class TestMaintainerIntegration:
    def build(self, tmp_path, ring=None):
        maintainer = maintainer_with(
            tracer=Tracer(ring) if ring is not None else None,
            metrics=MetricsRegistry(),
            guard=GuardPolicy(
                quarantine_path=str(tmp_path / "quarantine.jsonl")
            ),
        )
        engine = maintainer.attach_health(
            [{"view": "hop", "objective": "freshness_lag", "target": 0,
              **BURNY},
             {"view": "hop", "objective": "error_rate", "target": 0.0,
              **BURNY}]
        )
        profiler = maintainer.enable_profiler()
        return maintainer, engine, profiler

    def test_committed_passes_reach_both_hooks(self, tmp_path):
        maintainer, engine, profiler = self.build(tmp_path)
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        assert engine.passes_evaluated == 1
        assert profiler.passes == 1
        assert engine.alerts_active() == 0

    def test_quarantined_passes_fire_and_recovery_clears(self, tmp_path):
        maintainer, engine, profiler = self.build(tmp_path)
        alerts = []
        engine.sinks.append(CallbackAlertSink(alerts.append))
        maintainer.faults.arm(
            "admission", every_n=1,
            exception=PoisonChangesetError("poison"),
        )
        for index in range(3):
            maintainer.apply(Changeset().insert("link", ("d", f"p{index}")))
        fired = {(a["view"], a["objective"]) for a in alerts
                 if a["event"] == "fire"}
        assert fired == {("hop", "freshness_lag"), ("hop", "error_rate")}
        assert maintainer.lag()["changesets"] == 3
        # Degraded passes are scored but not profiled.
        assert engine.passes_evaluated == 3
        assert profiler.passes == 0

        maintainer.faults.disarm()
        maintainer.requeue_quarantined()
        for index in range(3):
            maintainer.apply(Changeset().insert("link", ("d", f"g{index}")))
        assert engine.alerts_active() == 0
        assert {a["objective"] for a in alerts if a["event"] == "clear"} == {
            "freshness_lag", "error_rate",
        }
        assert maintainer.lag()["changesets"] == 0
        text = maintainer.metrics.to_prometheus()
        assert validate_prometheus(text) == []
        for family in ("compliance", "burn_rate", "error_budget_remaining",
                       "alerts_total", "alerts_active"):
            assert f"# TYPE repro_slo_{family} " in text

    def test_profiler_exemplar_resolves_in_ring(self, tmp_path):
        ring = RingSink()
        maintainer, _engine, profiler = self.build(tmp_path, ring=ring)
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        exemplar = profiler.worst_exemplar()
        assert exemplar is not None
        pass_ids = {e["id"] for e in ring.events if e["kind"] == "pass"}
        assert exemplar in pass_ids
        rendered = render_profile(profiler, ring_events=list(ring.events))
        assert f"worst exemplar (span {exemplar})" in rendered

    def test_exemplar_absent_when_tracing_disabled(self, tmp_path):
        maintainer, _engine, profiler = self.build(tmp_path)
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        assert profiler.worst_exemplar() is None
        report = profiler.report()
        assert validate_profile_report(report) == []
        assert all(e["exemplar"] is None for e in report["profiles"])


class TestTopFrame:
    def test_frame_sections_plain(self, tmp_path):
        maintainer, _engine, _profiler = TestMaintainerIntegration().build(
            tmp_path
        )
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        frame = top_frame(maintainer, color=False, clock=0.0)
        assert "repro top" in frame
        assert "health (SLOs)" in frame
        assert "hop" in frame and "freshness_lag" in frame
        assert "staleness lag" in frame
        assert "strategy mix" in frame
        assert "breaker closed (code 0)" in frame
        assert "quarantine=0" in frame
        assert "hot phases" in frame
        assert "\x1b[" not in frame

    def test_frame_colors_alerting_slo(self, tmp_path):
        maintainer, engine, _profiler = TestMaintainerIntegration().build(
            tmp_path
        )
        maintainer.faults.arm(
            "admission", every_n=1,
            exception=PoisonChangesetError("poison"),
        )
        for index in range(3):
            maintainer.apply(Changeset().insert("link", ("d", f"p{index}")))
        assert engine.alerts_active() > 0
        colored = top_frame(maintainer, color=True, clock=0.0)
        assert "\x1b[31mALERT\x1b[0m" in colored
        plain = top_frame(maintainer, color=False, clock=0.0)
        assert "ALERT" in plain and "\x1b[" not in plain

    def test_frame_without_health_layer(self):
        maintainer = maintainer_with(metrics=MetricsRegistry())
        frame = top_frame(maintainer, color=False, clock=0.0)
        assert "no SLOs configured" in frame
        assert "journal" in frame
        assert "(not attached)" in frame
