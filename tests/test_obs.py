"""Tests for the observability layer: tracer, metrics, logging, hooks.

Covers the :mod:`repro.obs` primitives in isolation (span nesting, ring
capacity, JSONL output, registry semantics, Prometheus validity) and the
engine integration: traced counting AND DRed passes must produce the
``pass -> stratum -> phase -> rule`` tree, stats snapshots must
round-trip through JSON, and dead-lettered subscribers must surface as
a warning log plus ``repro_subscriber_dead_letters_total``.
"""

import io
import json
import logging

import pytest

from repro.core.active import SubscriptionHub
from repro.core.maintenance import ViewMaintainer
from repro.guard import GuardPolicy
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingSink,
    TeeSink,
    Tracer,
    configure_logging,
    get_default_registry,
    span_tree_paths,
    validate_prometheus,
    validate_trace_events,
    validate_trace_jsonl,
)
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation

from conftest import TC_SRC

HOP_SRC = "hop(X,Y) :- link(X,Z), link(Z,Y)."
CHAIN_SRC = HOP_SRC + "\ntrihop(X,Y) :- hop(X,Z), link(Z,Y)."
EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]


def database():
    db = Database()
    db.insert_rows("link", EDGES)
    return db


def maintainer_with(source, strategy="counting", **kwargs):
    m = ViewMaintainer.from_source(source, database(), strategy=strategy, **kwargs)
    m.initialize()
    return m


# ------------------------------------------------------------------ tracer


class TestTracer:
    def test_disabled_by_default_and_emits_nothing(self):
        ring = RingSink()
        tracer = Tracer()
        tracer.sink = ring  # even with a sink attached, disabled is off
        assert not tracer.enabled
        with tracer.span("pass", "apply", tuples=3) as span:
            span.set(more=1).add("n")
        tracer.event("fault")
        assert len(ring) == 0

    def test_span_nesting_parent_links(self):
        ring = RingSink()
        tracer = Tracer(ring)
        with tracer.span("pass", "apply") as outer:
            with tracer.span("stratum", "stratum 0") as mid:
                with tracer.span("phase", "propagate") as inner:
                    pass
        events = list(ring.events)
        # Spans close inside-out: phase, stratum, pass.
        assert [e["kind"] for e in events] == ["phase", "stratum", "pass"]
        assert events[0]["parent"] == mid.span_id
        assert events[1]["parent"] == outer.span_id
        assert events[2]["parent"] is None
        assert inner.parent_id == mid.span_id
        assert validate_trace_events(events) == []

    def test_event_nested_under_current_span(self):
        ring = RingSink()
        tracer = Tracer(ring)
        with tracer.span("pass", "apply") as span:
            tracer.event("fault_fired", phase="journal_append")
        events = list(ring.events)
        assert events[0]["kind"] == "event"
        assert events[0]["parent"] == span.span_id
        assert events[0]["attrs"] == {"phase": "journal_append"}

    def test_span_attrs_and_error_marker(self):
        ring = RingSink()
        tracer = Tracer(ring)
        with pytest.raises(RuntimeError):
            with tracer.span("rule", "hop", tuples_in=2) as span:
                span.set(tuples_out=5)
                raise RuntimeError("boom")
        (event,) = ring.events
        assert event["attrs"]["tuples_in"] == 2
        assert event["attrs"]["tuples_out"] == 5
        assert event["attrs"]["error"] == "RuntimeError"

    def test_ring_capacity_and_tail(self):
        ring = RingSink(capacity=3)
        tracer = Tracer(ring)
        for index in range(10):
            with tracer.span("rule", f"r{index}"):
                pass
        assert len(ring) == 3
        assert [e["name"] for e in ring.tail(2)] == ["r8", "r9"]
        with pytest.raises(ValueError):
            RingSink(capacity=0)

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlSink(path))
        with tracer.span("pass", "apply"):
            with tracer.span("phase", "seed"):
                pass
        tracer.close()
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert validate_trace_jsonl(text) == []
        events = [json.loads(line) for line in text.splitlines()]
        assert [e["kind"] for e in events] == ["phase", "pass"]

    def test_tee_sink_fans_out(self):
        a, b = RingSink(), RingSink()
        tracer = Tracer(TeeSink([a, b]))
        with tracer.span("pass", "apply"):
            pass
        assert len(a) == len(b) == 1

    def test_null_sink_is_enabled_but_discards(self):
        tracer = Tracer(NullSink())
        assert tracer.enabled
        with tracer.span("pass", "apply") as span:
            pass
        assert span.seconds >= 0.0  # a real Span ran, nothing stored


# ----------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things.")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

        gauge = registry.gauge("repro_depth")
        gauge.set(4)
        gauge.dec()
        assert gauge.value() == 3

        hist = registry.histogram("repro_pass_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)

    def test_labels_declared_at_registration(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_rules_total", labels=("phase",))
        counter.inc(phase="seed")
        counter.inc(2, phase="propagate")
        assert counter.value(phase="propagate") == 2
        assert counter.value(phase="seed") == 1
        with pytest.raises(ValueError):
            counter.inc()  # missing the declared label
        with pytest.raises(ValueError):
            counter.inc(stratum=1)  # undeclared label

    def test_registration_idempotent_but_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", labels=("a",))
        assert registry.counter("repro_x_total", labels=("a",)) is first
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", labels=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("repro_ok_total", labels=("__reserved",))

    def test_prometheus_exposition_is_valid(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_rules_fired_total", "Rules fired.", labels=("phase",)
        ).inc(3, phase="propagate")
        registry.gauge("repro_cache_hit_ratio", "Hit ratio.").set(0.75)
        registry.histogram(
            "repro_pass_seconds", "Pass wall time.", buckets=(0.001, 0.1)
        ).observe(0.01)
        text = registry.to_prometheus()
        assert validate_prometheus(text) == []
        assert '# TYPE repro_rules_fired_total counter' in text
        assert 'repro_rules_fired_total{phase="propagate"} 3' in text
        assert 'repro_pass_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_pass_seconds_sum" in text
        assert "repro_pass_seconds_count 1" in text

    def test_snapshot_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc(2)
        registry.histogram("repro_b_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(registry.to_json())
        assert snapshot["repro_a_total"]["kind"] == "counter"
        assert snapshot["repro_a_total"]["values"][0]["value"] == 2
        assert snapshot["repro_b_seconds"]["values"][0]["count"] == 1
        registry.reset()
        assert len(registry) == 0


class TestHistogramQuantiles:
    def test_empty_histogram_estimates_none(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_q_seconds", buckets=(0.1, 1.0))
        assert hist.estimate_quantile(0.5) is None
        assert hist.estimate_quantile(0.99) is None

    def test_single_bucket_interpolates_from_zero(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_q_seconds", buckets=(1.0,))
        hist.observe(0.5)
        # One observation in [0, 1]: rank q lands in that bucket, the
        # estimate interpolates linearly between the 0.0 lower edge and
        # the 1.0 bound.
        assert hist.estimate_quantile(0.5) == pytest.approx(0.5)
        assert hist.estimate_quantile(1.0) == pytest.approx(1.0)

    def test_inf_only_observations_clamp_to_highest_finite_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_q_seconds", buckets=(0.1, 1.0))
        hist.observe(50.0)
        hist.observe(99.0)
        # Everything sits in the +Inf bucket: the estimate clamps to the
        # highest finite bound rather than inventing a number.
        assert hist.estimate_quantile(0.5) == pytest.approx(1.0)
        assert hist.estimate_quantile(0.99) == pytest.approx(1.0)

    def test_interpolation_across_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_q_seconds", buckets=(0.1, 0.2, 0.4, 1.0)
        )
        for value in (0.05, 0.15, 0.15, 0.3):
            hist.observe(value)
        # p50: rank 2.0 → cumulative hits 3 in the (0.1, 0.2] bucket;
        # one of rank inside a bucket holding two observations.
        p50 = hist.estimate_quantile(0.5)
        assert 0.1 < p50 <= 0.2
        p99 = hist.estimate_quantile(0.99)
        assert 0.2 < p99 <= 0.4
        assert hist.estimate_quantile(0.5) <= hist.estimate_quantile(0.95)
        with pytest.raises(ValueError):
            hist.estimate_quantile(1.5)

    def test_quantiles_in_snapshot_and_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_q_seconds", "Quantiled.", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        snapshot = registry.snapshot()
        quantiles = snapshot["repro_q_seconds"]["values"][0]["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert all(q is not None for q in quantiles.values())
        text = registry.to_prometheus()
        assert validate_prometheus(text) == []
        assert "repro_q_seconds_p50" in text
        assert "repro_q_seconds_p99" in text

    def test_labeled_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_q_seconds", buckets=(0.1, 1.0), labels=("view",)
        )
        hist.observe(0.05, view="hop")
        assert hist.estimate_quantile(0.5, view="hop") is not None
        assert hist.estimate_quantile(0.5, view="other") is None


class TestLabelCardinalityGuard:
    def test_cap_drops_new_labelsets_and_counts_them(self):
        registry = MetricsRegistry(max_labelsets=2)
        counter = registry.counter("repro_c_total", labels=("view",))
        counter.inc(view="a")
        counter.inc(view="b")
        counter.inc(view="c")  # dropped: third distinct labelset
        assert counter.value(view="a") == 1
        assert counter.value(view="c") == 0
        dropped = registry.get("repro_metrics_dropped_labelsets")
        assert dropped.value(metric="repro_c_total") == 1

    def test_existing_labelsets_still_update_past_the_cap(self):
        registry = MetricsRegistry(max_labelsets=1)
        gauge = registry.gauge("repro_g", labels=("view",))
        gauge.set(1.0, view="a")
        gauge.set(5.0, view="a")  # existing series: always admitted
        gauge.inc(view="a")
        assert gauge.value(view="a") == 6.0
        gauge.set(9.0, view="b")  # new series: rejected
        assert gauge.value(view="b") == 0.0

    def test_histogram_observations_guarded(self):
        registry = MetricsRegistry(max_labelsets=1)
        hist = registry.histogram(
            "repro_h_seconds", buckets=(1.0,), labels=("view",)
        )
        hist.observe(0.5, view="a")
        hist.observe(0.5, view="b")  # dropped
        assert hist.count(view="a") == 1
        assert hist.count(view="b") == 0
        assert registry.get("repro_metrics_dropped_labelsets").value(
            metric="repro_h_seconds"
        ) == 1

    def test_warning_logged_once_per_family(self, caplog):
        registry = MetricsRegistry(max_labelsets=1)
        counter = registry.counter("repro_c_total", labels=("view",))
        counter.inc(view="a")
        with caplog.at_level(logging.WARNING, logger="repro.obs.metrics"):
            counter.inc(view="b")
            counter.inc(view="c")
        warnings = [
            r for r in caplog.records if "cardinality" in r.message
        ]
        assert len(warnings) == 1
        assert registry.get("repro_metrics_dropped_labelsets").value(
            metric="repro_c_total"
        ) == 2

    def test_unlabeled_metrics_unaffected(self):
        registry = MetricsRegistry(max_labelsets=1)
        counter = registry.counter("repro_plain_total")
        counter.inc()
        counter.inc()
        assert counter.value() == 2

    def test_uncapped_registry_admits_everything(self):
        registry = MetricsRegistry(max_labelsets=None)
        counter = registry.counter("repro_c_total", labels=("n",))
        for index in range(2000):
            counter.inc(n=str(index))
        assert registry.get("repro_metrics_dropped_labelsets") is None

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_labelsets=0)


class TestRingTruncation:
    def test_fresh_ring_not_truncated(self):
        ring = RingSink(capacity=4)
        tracer = Tracer(ring)
        with tracer.span("pass", "apply"):
            pass
        assert not ring.truncated
        assert ring.dropped == 0

    def test_wraparound_sets_truncated_and_counts_dropped(self):
        ring = RingSink(capacity=3)
        tracer = Tracer(ring)
        for index in range(5):
            with tracer.span("rule", f"r{index}"):
                pass
        assert ring.truncated
        assert ring.dropped == 2
        assert [e["name"] for e in ring.events] == ["r2", "r3", "r4"]

    def test_clear_resets_truncation(self):
        ring = RingSink(capacity=1)
        tracer = Tracer(ring)
        for _ in range(3):
            with tracer.span("rule", "r"):
                pass
        assert ring.truncated
        ring.clear()
        assert not ring.truncated
        assert ring.dropped == 0
        assert len(ring) == 0


# ------------------------------------------------------- engine integration


class TestTracedMaintenance:
    @pytest.mark.parametrize("strategy", ["counting", "dred"])
    def test_pass_stratum_phase_rule_tree(self, strategy):
        ring = RingSink()
        maintainer = maintainer_with(
            CHAIN_SRC, strategy=strategy, tracer=Tracer(ring)
        )
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        events = list(ring.events)
        assert validate_trace_events(events) == []
        paths = span_tree_paths(events)
        assert ["pass", "stratum", "phase", "rule"] in paths
        kinds = {event["kind"] for event in events}
        assert {"pass", "stratum", "phase", "rule"} <= kinds

    @pytest.mark.parametrize("strategy, phases", [
        ("counting", {"seed", "propagate", "apply"}),
        ("dred", {"seed", "overestimate", "rederive", "insert"}),
        ("bf", {"seed", "forward", "backward", "insert"}),
    ])
    def test_phase_spans_add_up_to_phase_seconds(self, strategy, phases):
        """One clock reading per phase feeds both the span and the stats:
        a traced pass's phase spans sum to exactly its phase_seconds."""
        ring = RingSink()
        maintainer = maintainer_with(
            CHAIN_SRC if strategy == "counting" else TC_SRC,
            strategy=strategy,
            tracer=Tracer(ring),
        )
        ring.clear()
        report = maintainer.apply(
            Changeset().delete("link", ("b", "c")).insert("link", ("d", "e"))
        )
        spans = {}
        for event in ring.events:
            if event["kind"] == "phase":
                spans[event["name"]] = (
                    spans.get(event["name"], 0.0) + event["seconds"]
                )
        seconds = report.engine_stats().phase_seconds
        assert set(spans) == set(seconds) == phases
        for name in phases:
            assert spans[name] == pytest.approx(seconds[name], abs=1e-9)

    def test_recompute_report_and_span_share_one_clock_reading(self):
        ring = RingSink()
        maintainer = maintainer_with(
            CHAIN_SRC,
            tracer=Tracer(ring),
            guard=GuardPolicy(force_fallback=True),
        )
        report = maintainer.apply(Changeset().insert("link", ("d", "e")))
        assert report.strategy == "recompute"
        [span] = [e for e in ring.events if e["kind"] == "pass"]
        assert span["name"] == "recompute"
        assert report.seconds == span["attrs"]["seconds"]

    def test_rule_spans_carry_tuple_counts(self):
        ring = RingSink()
        maintainer = maintainer_with(HOP_SRC, tracer=Tracer(ring))
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        rule_events = [e for e in ring.events if e["kind"] == "rule"]
        assert rule_events
        assert all("tuples_out" in e["attrs"] for e in rule_events)

    def test_disabled_tracer_emits_nothing(self):
        maintainer = maintainer_with(HOP_SRC)
        assert not maintainer.tracer.enabled
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        # Nothing to assert on a NullSink beyond "no crash"; the real
        # guarantee (no span objects built) is enforced by the bench
        # overhead guard.

    def test_metrics_recorded_per_pass(self):
        registry = MetricsRegistry()
        maintainer = maintainer_with(CHAIN_SRC, metrics=registry)
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        assert registry.get("repro_passes_total").value(strategy="counting") == 1
        assert registry.get("repro_rules_fired_total").value() > 0
        assert registry.get("repro_pass_seconds").count(strategy="counting") == 1
        assert validate_prometheus(registry.to_prometheus()) == []

    def test_exposition_covers_every_family(self):
        """Counting and DRed passes fill one registry with >= 10
        families; the MVCC version manager refreshes every
        ``repro_mvcc_*`` family in the process registry on each commit."""
        registry = MetricsRegistry()
        shared = get_default_registry()
        commits = shared.counter("repro_mvcc_commits_total", "Epochs committed.")
        for strategy in ("counting", "dred"):
            maintainer = maintainer_with(
                CHAIN_SRC, strategy=strategy, metrics=registry
            )
            db = maintainer.database
            epoch, before = db.epoch, commits.value()
            maintainer.apply(Changeset().insert("link", ("e", "f")))
            maintainer.apply(Changeset().delete("link", ("a", "d")))
            assert commits.value() - before == db.epoch - epoch == 2
            assert shared.get("repro_mvcc_epoch").value() == db.epoch
        text = registry.to_prometheus()
        assert validate_prometheus(text) == []
        families = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        assert len(families) >= 10
        assert {
            f"repro_mvcc_{name}"
            for name in (
                "epoch", "active_snapshots", "version_entries",
                "commits_total", "gc_reclaimed_total",
                "snapshot_too_old_total",
            )
        } <= {metric.name for metric in shared}

    def test_dred_metrics_include_overestimate_waste(self):
        registry = MetricsRegistry()
        maintainer = maintainer_with(CHAIN_SRC, strategy="dred", metrics=registry)
        maintainer.apply(Changeset().delete("link", ("a", "b")))
        assert registry.get("repro_dred_overestimated_total") is not None
        assert registry.get("repro_dred_overestimate_waste_ratio") is not None

    def test_stats_round_trip_through_json(self):
        maintainer = maintainer_with(CHAIN_SRC)
        maintainer.apply(Changeset().insert("link", ("d", "e")))
        maintainer.apply(Changeset().delete("link", ("a", "d")))

        stats = json.loads(json.dumps(maintainer.stats.to_dict()))
        assert stats["passes"] == 2
        assert stats["rules_fired"] > 0
        assert set(stats["phase_seconds"]) >= {"seed", "propagate"}
        assert 0.0 <= stats["plan_cache_hit_rate"] <= 1.0

        lifetime = json.loads(json.dumps(maintainer.lifetime.to_dict()))
        assert lifetime["passes"] == 2
        assert lifetime["tuples_changed"] > 0
        assert lifetime["seconds"] >= 0.0


class TestDeadLetterTelemetry:
    def test_dead_letter_warns_and_counts(self, caplog):
        registry = MetricsRegistry()
        hub = SubscriptionHub(
            max_attempts=2, backoff_seconds=0.0, metrics=registry
        )

        def bad(view, delta):
            raise RuntimeError("subscriber exploded")

        hub.subscribe("hop", bad)
        delta = CountedRelation()
        delta.add(("a", "c"), 1)
        with caplog.at_level(logging.WARNING, logger="repro.core.active"):
            hub.notify({"hop": delta})

        assert len(hub.dead_letters) == 1
        assert registry.get(
            "repro_subscriber_dead_letters_total"
        ).value(view="hop") == 1
        assert registry.get(
            "repro_subscriber_retries_total"
        ).value(view="hop") == 2
        assert any("dead-letter" in r.message for r in caplog.records)

    def test_dead_letter_traced_as_event(self):
        ring = RingSink()
        hub = SubscriptionHub(
            max_attempts=1, backoff_seconds=0.0, tracer=Tracer(ring)
        )
        hub.subscribe("hop", lambda view, delta: 1 / 0)
        delta = CountedRelation()
        delta.add(("a", "c"), 1)
        hub.notify({"hop": delta})
        names = [e["name"] for e in ring.events]
        assert "dead_letter" in names


# ----------------------------------------------------------------- logging


class TestConfigureLogging:
    def teardown_method(self):
        # Drop the handler so other tests' logging is untouched.
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                logger.removeHandler(handler)

    def test_text_mode(self):
        stream = io.StringIO()
        configure_logging(level="INFO", stream=stream)
        logging.getLogger("repro.test").info("hello %s", "world")
        line = stream.getvalue()
        assert "hello world" in line
        assert "repro.test" in line

    def test_json_mode(self):
        stream = io.StringIO()
        configure_logging(level="DEBUG", json_mode=True, stream=stream)
        logging.getLogger("repro.test").warning("structured %d", 7)
        record = json.loads(stream.getvalue())
        assert record["level"] == "WARNING"
        assert record["logger"] == "repro.test"
        assert record["message"] == "structured 7"

    def test_reconfigure_replaces_handler(self):
        stream_a, stream_b = io.StringIO(), io.StringIO()
        configure_logging(level="INFO", stream=stream_a)
        configure_logging(level="INFO", stream=stream_b)
        logging.getLogger("repro.test").info("once")
        assert stream_a.getvalue() == ""
        assert stream_b.getvalue().count("once") == 1
