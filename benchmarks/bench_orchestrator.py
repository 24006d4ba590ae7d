"""Orchestrator benchmark → BENCH_orchestrator.json.

Two questions about the DAG scheduler, answered with numbers:

* ``scheduler-overhead`` — the same 3-level chain of views, maintained
  twice over an identical changeset stream: once hand-wired (apply each
  node's maintainer and forward its view deltas in topological order —
  the code an application would write without the orchestrator) and
  once through ``Orchestrator.ingest()`` + ``tick()``.  The scheduling
  layer (routing, pending queues, coalescing, state bookkeeping,
  cone accounting) may cost at most 5% on top of the maintenance work
  itself — the orchestrator must stay a thin wrapper around the
  paper's algorithms.

* ``lag-conformance`` — a node with a 30 s ``target_lag`` under a
  virtual clock ticked every 10 s: refreshes must *batch* (roughly one
  refresh per lag window, not one per tick) while the observed
  staleness at each refresh never exceeds the target by more than one
  tick interval.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_orchestrator.py
    PYTHONPATH=src python benchmarks/bench_orchestrator.py --smoke

``--smoke`` shrinks everything to toy scale and skips the overhead
gate (the numbers are meaningless at that size; only the machinery and
the JSON schema are under test — see
``tests/test_bench_orchestrator_smoke.py``).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.bench.harness import write_bench_json  # noqa: E402
from repro.core.maintenance import ViewMaintainer  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.orchestrator import Orchestrator, ViewNode  # noqa: E402
from repro.storage.changeset import Changeset  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.workloads import random_graph, update_sequence  # noqa: E402

#: Hard budget: orchestration may add at most 5% over hand-wired
#: sequential maintenance of the same DAG on the same stream.
SCHEDULER_OVERHEAD_BUDGET = 0.05

#: The 3-level chain; every level also joins the source relation, so
#: each node consumes both an upstream view and the raw stream.
CHAIN = [
    ("hops", "hop(X,Y) :- link(X,Z), link(Z,Y)."),
    ("tris", "tri(X,Y) :- hop(X,Z), link(Z,Y)."),
    ("quads", "quad(X,Y) :- tri(X,Z), link(Z,Y)."),
]

#: (exported view, inputs fed from upstream) per chain node.
CHAIN_FEEDS = {"hops": [], "tris": ["hop"], "quads": ["tri"]}


class VirtualClock:
    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def stream(nodes: int, edges: int, passes: int, batch: int):
    rows = random_graph(nodes, edges, seed=5)
    return rows, list(
        update_sequence(
            "link", rows, passes, batch, node_count=nodes, seed=6
        )
    )


def link_changeset(rows) -> Changeset:
    changes = Changeset()
    for row in rows:
        changes.insert("link", row)
    return changes


def manual_sequential(rows, changesets) -> float:
    """The hand-wired baseline: per-node maintainers, deltas forwarded
    in topological order by plain application code."""
    maintainers: Dict[str, ViewMaintainer] = {}
    for name, source in CHAIN:
        database = Database()
        database.ensure_relation("link", 2)
        for feed in CHAIN_FEEDS[name]:
            database.ensure_relation(feed, 2)
        maintainer = ViewMaintainer.from_source(source, database)
        maintainer.initialize()
        maintainers[name] = maintainer
    maintainers["hops"].apply(link_changeset(rows))
    for name, _source in CHAIN[1:]:
        feed = link_changeset(rows)
        for view in CHAIN_FEEDS[name]:
            # The upstream maintainer just materialized `view` fully.
            producer = {"hop": "hops", "tri": "tris"}[view]
            delta = maintainers[producer].relation(view)
            for row, count in delta.items():
                feed.insert(view, row, count)
        maintainers[name].apply(feed)

    started = time.perf_counter()
    for changes in changesets:
        forwarded: Dict[str, object] = {}
        for name, _source in CHAIN:
            node_changes = Changeset()
            node_changes.add_delta("link", changes.delta("link"))
            for view in CHAIN_FEEDS[name]:
                delta = forwarded.get(view)
                if delta:
                    node_changes.add_delta(view, delta)
            report = maintainers[name].apply(node_changes)
            forwarded.update(report.view_deltas)
    return time.perf_counter() - started


def orchestrated(rows, changesets) -> float:
    orch = Orchestrator(
        [ViewNode(name, source) for name, source in CHAIN],
        metrics=MetricsRegistry(),
        mvcc=False,
        seed=0,
        sleep=lambda _s: None,
    )
    orch.ingest(link_changeset(rows))
    orch.tick()
    started = time.perf_counter()
    for changes in changesets:
        orch.ingest(changes)
        orch.tick()
    elapsed = time.perf_counter() - started
    orch.check_convergence()
    return elapsed


def bench_overhead(nodes: int, edges: int, passes: int,
                   batch: int) -> Dict[str, object]:
    rows, changesets = stream(nodes, edges, passes, batch)
    # Warm both code paths (imports, plan caches) before timing, then
    # interleave repetitions and take each side's best — min-of-N with
    # interleaving cancels the machine-state drift that would otherwise
    # dominate a two-block comparison, and GC stays off while timing.
    warm_rows, warm_changes = stream(20, 40, 2, 2)
    manual_sequential(warm_rows, warm_changes)
    orchestrated(warm_rows, warm_changes)

    manual_times: List[float] = []
    orchestrated_times: List[float] = []
    gc.collect()
    gc.disable()
    try:
        for _rep in range(5):
            manual_times.append(manual_sequential(rows, changesets))
            orchestrated_times.append(orchestrated(rows, changesets))
    finally:
        gc.enable()
    manual_seconds = min(manual_times)
    orchestrated_seconds = min(orchestrated_times)
    overhead = orchestrated_seconds / manual_seconds - 1.0
    return {
        "nodes": len(CHAIN),
        "graph_nodes": nodes,
        "graph_edges": edges,
        "passes": passes,
        "batch_size": batch,
        "manual_seconds": manual_seconds,
        "orchestrated_seconds": orchestrated_seconds,
        "overhead_ratio": overhead,
        "budget": SCHEDULER_OVERHEAD_BUDGET,
        "within_budget": overhead <= SCHEDULER_OVERHEAD_BUDGET,
    }


def bench_lag(nodes: int, edges: int, passes: int,
              batch: int) -> Dict[str, object]:
    target_lag = 30.0
    tick_interval = 10.0
    clock = VirtualClock()
    orch = Orchestrator(
        [
            ViewNode("base", "hop(X,Y) :- link(X,Z), link(Z,Y).",
                     target_lag=target_lag),
        ],
        metrics=MetricsRegistry(),
        clock=clock,
        sleep=lambda _s: None,
    )
    rows, changesets = stream(nodes, edges, passes, batch)
    orch.ingest(link_changeset(rows))
    orch.refresh_now("base")

    observed: List[float] = []
    status = orch.states["base"]
    for changes in changesets:
        orch.ingest(changes)
        clock.advance(tick_interval)
        if status.pending:
            lag_now = status.lag_seconds(clock)
            if lag_now >= target_lag:
                observed.append(lag_now)
        orch.tick()
    refreshes = orch.status()["views"]["base"]["refreshes"]
    max_observed = max(observed) if observed else 0.0
    return {
        "target_lag_seconds": target_lag,
        "tick_interval_seconds": tick_interval,
        "stream_passes": passes,
        "refreshes": refreshes,
        "batching_factor": passes / refreshes if refreshes else None,
        "max_observed_lag_seconds": max_observed,
        "bound_seconds": target_lag + tick_interval,
        "within_target": max_observed <= target_lag + tick_interval,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="toy scale, no gate enforcement")
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="output path (default: repo-root "
                        "BENCH_orchestrator.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        scale = {"nodes": 30, "edges": 60, "passes": 4, "batch": 2}
    else:
        scale = {"nodes": 120, "edges": 420, "passes": 60, "batch": 6}
    if args.passes is not None:
        scale["passes"] = args.passes

    overhead = bench_overhead(**scale)
    lag = bench_lag(**scale)
    payload = {
        "benchmark": "orchestrator",
        "smoke": args.smoke,
        "config": scale,
        "workloads": {
            "scheduler-overhead": overhead,
            "lag-conformance": lag,
        },
    }
    out = args.out or os.path.join(os.getcwd(), "BENCH_orchestrator.json")
    write_bench_json(out, payload)

    print(
        f"scheduler overhead: {overhead['overhead_ratio']:+.2%} "
        f"(manual {overhead['manual_seconds']:.3f}s, orchestrated "
        f"{overhead['orchestrated_seconds']:.3f}s, budget "
        f"{SCHEDULER_OVERHEAD_BUDGET:.0%})"
    )
    print(
        f"lag conformance: {lag['refreshes']} refresh(es) over "
        f"{lag['stream_passes']} passes (batching ×"
        f"{lag['batching_factor']:.1f}), max observed lag "
        f"{lag['max_observed_lag_seconds']:.1f}s ≤ "
        f"{lag['bound_seconds']:.1f}s bound"
    )
    print(f"wrote {out}")

    if not args.smoke:
        if not overhead["within_budget"]:
            print(
                "FAIL: scheduler overhead "
                f"{overhead['overhead_ratio']:.2%} exceeds the "
                f"{SCHEDULER_OVERHEAD_BUDGET:.0%} budget",
                file=sys.stderr,
            )
            return 1
        if not lag["within_target"]:
            print("FAIL: observed lag exceeded target + tick interval",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
