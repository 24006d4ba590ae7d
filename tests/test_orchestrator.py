"""Tests for the fault-contained DAG orchestrator.

The centerpiece is the *crash matrix*: a persistent fault injected at
every refresh phase a node's strategy actually reaches (counting on the
middle layer for insertions, B/F on the recursive top layer for
deletions), asserting for each cell that

* exactly the node's isolation cone is quarantined — the unrelated
  sibling keeps refreshing;
* the quarantined view keeps serving its last committed state (and
  ``strict="reject"`` refuses);
* once the fault clears, the recovery probe heals the cone and the DAG
  reconverges with the layer-by-layer recompute oracle.

Around the matrix: retry absorption and DEAD/revive, lag targets and
``DOWNSTREAM`` resolution under a virtual clock, suspend/resume
cascades, strict-read modes, graph/spec validation errors, schema
negatives for the ``orchestrator`` status block, and the shared
:class:`~repro.resilience.backoff.Backoff` schedule.
"""

import json
import random

import pytest

from repro.errors import (
    DivergenceError,
    OrchestrationError,
    ReproError,
    StaleViewError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_orchestrator, validate_status
from repro.obs.top import orchestrator_lines
from repro.orchestrator import (
    DOWNSTREAM,
    DependencyGraph,
    Orchestrator,
    RefreshPolicy,
    ViewNode,
)
from repro.resilience.backoff import Backoff
from repro.storage.changeset import Changeset

#: The 3-level test DAG: sources → hops → tris → reach, plus a sibling
#: that shares a source with tris but sits outside every cone.
NODES = [
    ViewNode("hops", "hop(X,Y) :- link(X,Z), link(Z,Y)."),
    ViewNode("tris", "tri(X,Y) :- hop(X,Z), link2(Z,Y)."),
    ViewNode(
        "reach",
        "reach(X,Y) :- tri(X,Y). reach(X,Y) :- tri(X,Z), reach(Z,Y).",
    ),
    ViewNode("sibling", "twol(X,Y) :- link2(X,Z), link2(Z,Y)."),
]

FAST = RefreshPolicy(
    max_attempts=2, backoff_seconds=0.0001, probe_every=1, dead_after=10
)

SEED = (
    Changeset()
    .insert("link", ("a", "b"))
    .insert("link", ("b", "c"))
    .insert("link2", ("c", "d"))
    .insert("link2", ("d", "e"))
)


def make_orchestrator(**kwargs):
    kwargs.setdefault("policy", FAST)
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("sleep", lambda _s: None)
    return Orchestrator(NODES, **kwargs)


def seeded_orchestrator(**kwargs):
    orch = make_orchestrator(**kwargs)
    orch.ingest(SEED.copy())
    orch.tick()
    return orch


class VirtualClock:
    def __init__(self, now=1_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# --------------------------------------------------------------------------
# The crash matrix.
# --------------------------------------------------------------------------

#: (node, phase, delta) — every phase the node's refresh actually
#: reaches.  tris runs counting (insertions); reach runs B/F, whose
#: deletion pass adds the backward/forward phases.  journal_append
#: fires in the shared commit path for both.
CRASH_MATRIX = [
    ("tris", "delta_derivation", Changeset().insert("link2", ("c", "f"))),
    ("tris", "count_merge", Changeset().insert("link2", ("c", "f"))),
    ("tris", "journal_append", Changeset().insert("link2", ("c", "f"))),
    ("reach", "delta_derivation", Changeset().delete("link", ("b", "c"))),
    ("reach", "count_merge", Changeset().delete("link", ("b", "c"))),
    ("reach", "backward_check", Changeset().delete("link", ("b", "c"))),
    ("reach", "forward_delete", Changeset().delete("link", ("b", "c"))),
    ("reach", "journal_append", Changeset().delete("link", ("b", "c"))),
]


@pytest.mark.parametrize(
    "node, phase, delta",
    CRASH_MATRIX,
    ids=[f"{node}-{phase}" for node, phase, _ in CRASH_MATRIX],
)
def test_crash_matrix(node, phase, delta):
    """A persistent fault at any phase quarantines exactly the cone,
    stale reads keep serving, and recovery reconverges with the oracle.
    """
    orch = seeded_orchestrator()
    before = {
        view: sorted(orch.read(view).as_set())
        for view in ("hop", "tri", "reach", "twol")
    }
    cone = sorted(orch.graph.cone(node))
    outside = [n for n in orch.graph.order if n not in cone]

    orch.faults(node).arm(phase, every_n=1)
    orch.ingest(delta)
    fault_tick = orch.tick()

    # The armed phase really was the crash point.
    assert phase in orch.faults(node).fired
    assert fault_tick.failed == [node]
    status = orch.status()
    assert status["quarantined"] == cone
    # Cone-only: every node outside the cone is untouched and FRESH.
    for name in outside:
        assert status["views"][name]["state"] == "FRESH"
        assert status["views"][name]["quarantined_by"] == []
    assert status["views"][node]["retries"] == FAST.max_attempts
    assert status["views"][node]["last_error"]

    # Stale serving: the cone's views still answer with the last
    # committed materialization; reject mode refuses.
    for member in cone:
        for view in orch.graph.exports_of(member):
            assert sorted(orch.read(view).as_set()) == before[view]
            with pytest.raises(StaleViewError):
                orch.read(view, strict="reject")

    # Recovery: clear the fault; the probe (cadence 1) heals the root
    # and the backlog drains through the cone in the same tick.
    orch.faults(node).disarm()
    healed = orch.tick()
    assert healed.probed == [node]
    assert healed.refreshed[0] == node
    assert set(healed.refreshed) == set(cone)
    assert orch.status()["quarantined"] == []
    orch.check_convergence()


def test_fault_tick_leaves_node_database_unchanged():
    """A failed refresh rolls back bit-identically (shadow commit)."""
    orch = seeded_orchestrator()
    before = orch.runners["tris"].maintainer.relation("tri").to_dict()
    orch.faults("tris").arm("count_merge", every_n=1)
    orch.ingest(Changeset().insert("link2", ("d", "f")))
    orch.tick()
    assert orch.runners["tris"].maintainer.relation(
        "tri", strict=False
    ).to_dict() == before


# --------------------------------------------------------------------------
# Retries, death, revival.
# --------------------------------------------------------------------------


def test_transient_fault_absorbed_by_retries():
    orch = seeded_orchestrator()
    orch.faults("hops").arm("count_merge", first_k=1)
    orch.ingest(Changeset().insert("link", ("c", "f")))
    report = orch.tick()
    assert "hops" in report.refreshed and not report.failed
    view = orch.status()["views"]["hops"]
    assert view["retries"] == 1 and view["failures"] == 0
    orch.check_convergence()


def test_retries_pause_on_the_backoff_schedule():
    pauses = []
    orch = make_orchestrator(sleep=pauses.append, seed=3)
    orch.ingest(SEED.copy())
    orch.tick()
    orch.faults("hops").arm("count_merge", first_k=1)
    orch.ingest(Changeset().insert("link", ("c", "f")))
    orch.tick()
    assert len(pauses) == 1 and 0 < pauses[0] <= 2 * FAST.backoff_seconds


def test_dead_after_consecutive_failures_and_revive():
    orch = seeded_orchestrator(
        policy=RefreshPolicy(
            max_attempts=1, backoff_seconds=0.0001,
            probe_every=1, dead_after=2,
        )
    )
    orch.faults("tris").arm("count_merge", every_n=1)
    orch.ingest(Changeset().insert("link2", ("d", "f")))
    orch.tick()  # failure 1 → quarantined
    orch.tick()  # probe → failure 2 → DEAD
    status = orch.status()
    assert status["dead"] == ["tris"]
    assert status["views"]["tris"]["state"] == "DEAD"
    # DEAD nodes are out of scheduling: no more probes, no refreshes.
    assert orch.tick().probed == []
    with pytest.raises(OrchestrationError, match="DEAD"):
        orch.refresh_now("tris")
    with pytest.raises(OrchestrationError, match="not DEAD"):
        orch.revive("hops")

    orch.faults("tris").disarm()
    orch.revive("tris")
    healed = orch.tick()
    assert "tris" in healed.refreshed
    assert orch.status()["dead"] == []
    orch.check_convergence()


def test_probe_waits_for_its_cadence():
    orch = seeded_orchestrator(
        policy=RefreshPolicy(max_attempts=3, probe_every=2, dead_after=5)
    )
    # Three failures exhaust the retry budget; the probe then succeeds.
    orch.faults("tris").arm("delta_derivation", first_k=3)
    orch.ingest(
        Changeset().insert("link", ("c", "e")).insert("link2", ("e", "h"))
    )
    assert orch.tick().failed == ["tris"]
    assert orch.status()["quarantined"] == ["reach", "tris"]
    assert orch.tick().probed == []  # one tick early
    healed = orch.tick()
    assert healed.probed == ["tris"]
    assert healed.refreshed == ["tris", "reach"]
    orch.check_convergence()


def test_non_retryable_exception_fails_immediately():
    orch = seeded_orchestrator()
    orch.faults("hops").arm(
        "count_merge", every_n=1, exception=ValueError("deterministic bug")
    )
    orch.ingest(Changeset().insert("link", ("c", "f")))
    report = orch.tick()
    assert report.failed == ["hops"]
    view = orch.status()["views"]["hops"]
    assert view["retries"] == 0  # no point retrying a ValueError
    assert "ValueError" in view["last_error"]


# --------------------------------------------------------------------------
# Lag targets and DOWNSTREAM resolution.
# --------------------------------------------------------------------------


def lag_pair(base_lag, rollup_lag):
    return [
        ViewNode("base", "pair(X,Y) :- edge(X,Y).", target_lag=base_lag),
        ViewNode("rollup", "fan(X) :- pair(X,Y).", target_lag=rollup_lag),
    ]


def test_target_lag_batches_until_due():
    clock = VirtualClock()
    orch = Orchestrator(
        lag_pair(30.0, 0.0), metrics=MetricsRegistry(),
        clock=clock, sleep=lambda _s: None,
    )
    orch.ingest(Changeset().insert("edge", ("x", "y")))
    assert orch.tick().refreshed == []
    orch.ingest(Changeset().insert("edge", ("x", "z")))  # batches up
    clock.advance(31.0)
    report = orch.tick()
    assert report.refreshed == ["base", "rollup"]  # rollup lag 0: same tick
    assert sorted(orch.read("fan").as_set()) == [("x",)]
    orch.check_convergence()


def test_downstream_resolves_to_min_consumer_lag():
    graph = DependencyGraph(
        [
            ViewNode("base", "pair(X,Y) :- edge(X,Y).",
                     target_lag=DOWNSTREAM),
            ViewNode("fast", "f(X) :- pair(X,Y).", target_lag=5.0),
            ViewNode("slow", "s(Y) :- pair(X,Y).", target_lag=120.0),
        ]
    )
    assert graph.effective_lag("base") == 5.0
    assert graph.effective_lag("slow") == 120.0


def test_downstream_without_consumers_is_on_demand():
    orch = Orchestrator(
        [ViewNode("base", "pair(X,Y) :- edge(X,Y).",
                  target_lag=DOWNSTREAM)],
        metrics=MetricsRegistry(), sleep=lambda _s: None,
    )
    assert orch.lags == {"base": None}
    orch.ingest(Changeset().insert("edge", ("x", "y")))
    assert orch.tick().refreshed == []  # never scheduled...
    report = orch.refresh_now("base")  # ...only refreshed on demand
    assert report is not None and report.epoch is not None
    assert sorted(orch.read("pair").as_set()) == [("x", "y")]


def test_each_node_waits_its_own_lag():
    """Lag is per node: the consumer's clock starts when the upstream
    delta reaches its queue, so it trails the source by one window."""
    clock = VirtualClock()
    orch = Orchestrator(
        lag_pair(DOWNSTREAM, 60.0), metrics=MetricsRegistry(),
        clock=clock, sleep=lambda _s: None,
    )
    assert orch.lags == {"base": 60.0, "rollup": 60.0}
    orch.ingest(Changeset().insert("edge", ("x", "y")))
    assert orch.tick().refreshed == []
    clock.advance(61.0)
    assert orch.tick().refreshed == ["base"]
    clock.advance(61.0)
    assert orch.tick().refreshed == ["rollup"]


# --------------------------------------------------------------------------
# Suspend / resume, forced refresh, reads.
# --------------------------------------------------------------------------


def test_suspend_cascades_and_resume_drains():
    orch = seeded_orchestrator()
    assert orch.suspend("tris") == ["reach", "tris"]
    # link2(c,f) joins hop(a,c): the tri delta reaches reach on drain.
    orch.ingest(Changeset().insert("link2", ("c", "f")))
    report = orch.tick()
    # The suspended cone holds its backlog; upstream and sibling go on.
    assert "tris" not in report.refreshed
    assert orch.status()["views"]["tris"]["pending"] == 1
    assert orch.status()["views"]["sibling"]["state"] == "FRESH"
    with pytest.raises(OrchestrationError, match="suspended"):
        orch.refresh_now("tris")

    assert orch.resume("tris") == ["reach", "tris"]
    drained = orch.tick()
    assert "tris" in drained.refreshed and "reach" in drained.refreshed
    orch.check_convergence()


def test_refresh_now_refuses_inside_upstream_cone():
    orch = seeded_orchestrator()
    orch.faults("tris").arm("count_merge", every_n=1)
    orch.ingest(Changeset().insert("link2", ("d", "f")))
    orch.tick()
    with pytest.raises(OrchestrationError, match="failure cone"):
        orch.refresh_now("reach")


def test_snapshot_read_carries_epoch_and_staleness():
    orch = seeded_orchestrator()
    expected = sorted(orch.read("tri").as_set())
    orch.faults("tris").arm("count_merge", every_n=1)
    orch.ingest(Changeset().insert("link2", ("d", "f")))
    orch.tick()
    snap = orch.read("tri", strict="snapshot")
    assert sorted(snap.as_set()) == expected
    assert snap.epoch is not None
    assert snap.staleness["state"] == "QUARANTINED"
    assert snap.staleness["quarantined_by"] == ["tris"]
    assert snap.staleness["changesets"] >= 1
    assert snap.staleness["seconds"] >= 0.0


def test_reject_mode_also_rejects_plain_backlog():
    clock = VirtualClock()
    orch = Orchestrator(
        lag_pair(60.0, 60.0), strict_reads="reject",
        metrics=MetricsRegistry(), clock=clock, sleep=lambda _s: None,
    )
    orch.ingest(Changeset().insert("edge", ("x", "y")))
    with pytest.raises(StaleViewError, match="pending"):
        orch.read("pair")
    # serve mode still answers (with the stale empty view).
    assert orch.read("pair", strict="serve").as_set() == set()


def test_read_validates_view_and_mode():
    orch = make_orchestrator()
    with pytest.raises(OrchestrationError, match="no node exports"):
        orch.read("nope")
    with pytest.raises(OrchestrationError, match="strict"):
        orch.read("tri", strict="maybe")


# --------------------------------------------------------------------------
# Graph construction and spec validation.
# --------------------------------------------------------------------------


def test_topological_order_and_cones():
    graph = DependencyGraph(NODES)
    assert list(graph.order) == ["hops", "sibling", "tris", "reach"]
    assert graph.cone("tris") == frozenset({"tris", "reach"})
    assert graph.cone("sibling") == frozenset({"sibling"})
    assert list(graph.upstream["tris"]) == ["hops"]


def test_cycle_is_rejected():
    with pytest.raises(OrchestrationError, match="cycle"):
        DependencyGraph(
            [
                ViewNode("a", "p(X) :- q(X)."),
                ViewNode("b", "q(X) :- p(X)."),
            ]
        )


def test_duplicate_export_is_rejected():
    with pytest.raises(OrchestrationError, match="export"):
        DependencyGraph(
            [
                ViewNode("a", "p(X) :- r(X)."),
                ViewNode("b", "p(X) :- s(X)."),
            ]
        )


def test_ingest_rejects_unknown_and_derived_relations():
    orch = make_orchestrator()
    with pytest.raises(OrchestrationError, match="no node consumes"):
        orch.ingest(Changeset().insert("ghost", ("x",)))
    with pytest.raises(OrchestrationError, match="no node consumes"):
        # hop is derived — it is not a source relation.
        orch.ingest(Changeset().insert("hop", ("x", "y")))


def test_from_spec_round_trip_and_validation():
    spec = {
        "views": [
            {"name": "hops", "source": "hop(X,Y) :- link(X,Z), link(Z,Y).",
             "target_lag": "downstream",
             "policy": {"max_attempts": 5, "probe_every": 3}},
            {"name": "tris", "source": "tri(X,Y) :- hop(X,Z), link2(Z,Y).",
             "target_lag": 9.0},
        ],
        "default_policy": {"max_attempts": 2},
    }
    orch = Orchestrator.from_spec(
        json.dumps(spec), metrics=MetricsRegistry(), sleep=lambda _s: None
    )
    assert orch.policy_of("hops").max_attempts == 5
    assert orch.policy_of("tris").max_attempts == 2
    assert orch.lags == {"hops": 9.0, "tris": 9.0}

    with pytest.raises(OrchestrationError, match="views"):
        Orchestrator.from_spec({"nodes": []})
    with pytest.raises(OrchestrationError, match="unknown view-spec"):
        Orchestrator.from_spec(
            {"views": [{"name": "a", "source": "p(X) :- q(X).",
                        "lag": 3}]}
        )
    with pytest.raises(ValueError, match="unknown policy"):
        Orchestrator.from_spec(
            {"views": [{"name": "a", "source": "p(X) :- q(X).",
                        "policy": {"retries": 9}}]}
        )


def test_view_node_and_policy_validation():
    with pytest.raises(OrchestrationError):
        ViewNode("bad", "p(X) :- q(X).", target_lag=-1.0)
    with pytest.raises(ValueError):
        RefreshPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RefreshPolicy(probe_every=0)
    with pytest.raises(ValueError):
        RefreshPolicy(timeout_seconds=0.0)


def test_timeout_policy_builds_a_guard_budget():
    orch = Orchestrator(
        [ViewNode("base", "pair(X,Y) :- edge(X,Y).")],
        policy=RefreshPolicy(timeout_seconds=30.0),
        metrics=MetricsRegistry(), sleep=lambda _s: None,
    )
    guard = orch.runners["base"].maintainer.guard
    assert guard.to_dict()["budget_enabled"] is True
    assert guard.meter.budget.deadline_seconds == 30.0


# --------------------------------------------------------------------------
# Health wiring and the oracle.
# --------------------------------------------------------------------------


def test_slo_fires_on_quarantined_refreshes():
    alerts = []
    from repro.obs.health import CallbackAlertSink

    orch = seeded_orchestrator()
    engines = orch.attach_health(
        [{"view": "tris", "objective": "error_rate", "target": 0.0,
          "compliance": 0.8, "fast_window": 1, "slow_window": 2,
          "burn_threshold": 1.5}],
        sinks=[CallbackAlertSink(alerts.append)],
    )
    assert set(engines) == {"tris"}
    orch.faults("tris").arm("count_merge", every_n=1)
    orch.ingest(Changeset().insert("link2", ("d", "f")))
    orch.tick()
    orch.tick()  # probe fails again; fast window saturates
    assert any(
        a["event"] == "fire" and a["view"] == "tris" for a in alerts
    )
    assert orch.status()["alerts_active"] >= 1


def test_attach_health_rejects_unknown_node():
    orch = make_orchestrator()
    with pytest.raises(OrchestrationError, match="unknown node"):
        orch.attach_health(
            [{"view": "ghost", "objective": "error_rate", "target": 0.0}]
        )


def test_check_convergence_skips_behind_nodes_instead_of_misfiring():
    orch = make_orchestrator()
    orch.ingest(SEED.copy())
    # Nothing has refreshed: every node either holds pending deltas or
    # sits downstream of one.  A full-log oracle comparison would
    # "diverge" on all of them — being behind is lag, not corruption,
    # so they must be skipped and named instead.
    behind = orch.check_convergence()
    assert set(behind) == {"hops", "tris", "reach", "sibling"}
    assert list(behind) == [n for n in orch.graph.order if n in set(behind)]
    # One tick carries the source changeset through all three levels.
    assert orch.tick().refreshed == ["hops", "sibling", "tris", "reach"]
    assert orch.check_convergence() == ()


def test_check_convergence_flags_real_divergence():
    orch = seeded_orchestrator()
    orch.check_convergence()
    # Corrupt one node's materialization behind the scheduler's back.
    orch.runners["hops"].maintainer.relation(
        "hop", strict=False
    ).add(("zz", "zz"))
    with pytest.raises(DivergenceError, match="hop"):
        orch.check_convergence()


# --------------------------------------------------------------------------
# Status schema (positive + negative) and the dashboard section.
# --------------------------------------------------------------------------


def test_status_block_validates_and_nests_in_status_schema():
    orch = seeded_orchestrator()
    doc = orch.status()
    assert validate_orchestrator(doc) == []
    # And as the "orchestrator" block of the full status document.
    from repro.cli import Shell

    shell = Shell("hop(X,Y) :- link(X,Z), link(Z,Y).")
    full = shell._status_dict()
    full["orchestrator"] = doc
    assert validate_status(full) == []
    full["orchestrator"] = {"ticks": -1}
    assert validate_status(full)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("ticks"), "ticks"),
        (lambda d: d.__setitem__("ticks", -1), "ticks"),
        (lambda d: d.__setitem__("views", {}), "views"),
        (lambda d: d.__setitem__("bogus", 1), "unknown"),
        (lambda d: d.__setitem__("quarantined", ["ghost"]), "ghost"),
        (lambda d: d["views"]["hops"].__setitem__("state", "NAPPING"),
         "state"),
        (lambda d: d["views"]["hops"].__setitem__("retries", -2),
         "retries"),
        (lambda d: d["views"]["hops"].__setitem__("lag_seconds", -0.5),
         "lag_seconds"),
        (lambda d: d["views"]["hops"].__setitem__("target_lag", "soonish"),
         "target_lag"),
        (lambda d: d["views"]["hops"].__setitem__("effective_lag", -3),
         "effective_lag"),
        (lambda d: d["views"]["hops"].__setitem__("quarantined_by", "tris"),
         "quarantined_by"),
        (lambda d: d["views"]["hops"].__setitem__("last_error", 17),
         "last_error"),
        (lambda d: d["views"]["hops"].pop("pending"), "pending"),
    ],
)
def test_status_schema_negatives(mutate, fragment):
    doc = seeded_orchestrator().status()
    mutate(doc)
    problems = validate_orchestrator(doc)
    assert problems and any(fragment in p for p in problems)


def test_orchestrator_lines_render_states_and_blockers():
    orch = seeded_orchestrator()
    orch.faults("tris").arm("count_merge", every_n=1)
    orch.ingest(Changeset().insert("link2", ("d", "f")))
    orch.tick()
    frame = "\n".join(orchestrator_lines(orch.status(), color=False))
    assert "QUARANTINED" in frame
    assert "2 quarantined" in frame  # tris and its consumer reach
    assert "\x1b[" not in frame
    colored = "\n".join(orchestrator_lines(orch.status(), color=True))
    assert "\x1b[" in colored


# --------------------------------------------------------------------------
# The shared backoff schedule.
# --------------------------------------------------------------------------


class TestBackoff:
    def test_deterministic_exponential_without_jitter(self):
        backoff = Backoff(0.1, factor=2.0, jitter=0.0)
        assert backoff.delay(1) == pytest.approx(0.1)
        assert backoff.delay(2) == pytest.approx(0.2)
        assert backoff.delay(4) == pytest.approx(0.8)

    def test_cap_applies_after_growth(self):
        backoff = Backoff(0.1, factor=10.0, jitter=0.0, max_seconds=0.5)
        assert backoff.delay(3) == pytest.approx(0.5)

    def test_jitter_widens_pause_upward_only(self):
        pauses = []
        backoff = Backoff(
            1.0, factor=1.0, jitter=0.5, seed=42, sleep=pauses.append
        )
        for attempt in range(1, 50):
            backoff.pause(attempt)
        assert all(1.0 <= pause <= 1.5 for pause in pauses)
        assert len(set(pauses)) > 1  # it really is jittered

    def test_pause_sleeps_the_delay_and_skips_zero(self):
        pauses = []
        backoff = Backoff(0.25, jitter=0.0, sleep=pauses.append)
        assert backoff.pause(1) == pytest.approx(0.25)
        assert pauses == [0.25]
        silent = Backoff(0.0, jitter=0.0, sleep=pauses.append)
        assert silent.pause(1) == 0.0
        assert pauses == [0.25]  # zero delay: no sleep call at all

    def test_zero_delay_draws_no_randomness(self):
        rng = random.Random(7)
        expected_next = random.Random(7).random()
        backoff = Backoff(0.0, jitter=0.5, rng=rng, sleep=lambda _s: None)
        backoff.pause(1)
        assert rng.random() == expected_next  # stream untouched

    def test_preview_matches_delay(self):
        backoff = Backoff(0.1, factor=3.0, jitter=0.0)
        assert backoff.preview(3) == [
            pytest.approx(0.1), pytest.approx(0.3), pytest.approx(0.9)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            Backoff(-1.0)
        with pytest.raises(ValueError):
            Backoff(1.0, factor=0.5)
        with pytest.raises(ValueError):
            Backoff(1.0, jitter=-0.1)
        with pytest.raises(ValueError):
            Backoff(1.0, max_seconds=-2.0)
        with pytest.raises(ValueError):
            Backoff(1.0, rng=random.Random(0), seed=1)


# --------------------------------------------------------------------------
# The orchestrate shell.
# --------------------------------------------------------------------------


class TestOrchestrateShell:
    SPEC = json.dumps(
        {
            "views": [
                {"name": "hops",
                 "source": "hop(X,Y) :- link(X,Z), link(Z,Y)."},
                {"name": "tris",
                 "source": "tri(X,Y) :- hop(X,Z), link2(Z,Y)."},
            ]
        }
    )

    def make_shell(self, **kwargs):
        from repro.cli import OrchestrateShell

        return OrchestrateShell(self.SPEC, **kwargs)

    def test_stage_commit_tick_read_check(self):
        shell = self.make_shell()
        assert "staged" in shell.execute("+ link(a, b)")
        shell.execute("+ link(b, c)")
        shell.execute("+ link2(c, d)")
        assert "ingested" in shell.execute("commit")
        assert "nothing staged" in shell.execute("commit")
        assert "refreshed ['hops', 'tris']" in shell.execute("tick")
        assert "tri('a', 'd')" in shell.execute("read tri")
        assert "consistent" in shell.execute("check")

    def test_status_json_is_schema_valid(self):
        shell = self.make_shell()
        doc = json.loads(shell.execute("status --json"))
        assert validate_orchestrator(doc) == []
        assert "hops" in shell.execute("status")

    def test_suspend_resume_and_errors(self):
        shell = self.make_shell()
        assert "tris" in shell.execute("suspend tris")
        assert "tris" in shell.execute("resume tris")
        assert shell.execute("error-me").startswith("unknown command")
        assert shell.execute("read ghost").startswith("error:")
        assert shell.execute("revive hops").startswith("error:")
        assert shell.execute("+ p(X)").startswith("error:")

    def test_quit_and_help(self):
        shell = self.make_shell()
        assert "commands" in shell.execute("help")
        assert shell.execute("quit") == "bye"
        assert shell.done
