"""The traced run's extra legs and its per-layer metric table.

* :func:`tax_table` — bare kernel vs each wrapper alone vs everything
  on, on a tenth-size instance of the same workload, all configurations
  fed the same changesets interleaved pass by pass.
* :func:`memory_profile` — ``tracemalloc`` around a tenth-size set-up
  and a short stream (tracing allocations makes set-up ~4x slower, so
  it gets its own small leg instead of distorting the timed ones).
* :func:`layer_metrics` — every per-layer metric of ``BENCHMARK.json``
  from the spans, the engine's own counters and the two legs above.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import tracemalloc
from dataclasses import replace
from time import perf_counter
from typing import Dict, List

from repro.obs.trace import RingSink, Tracer
from repro.storage.database import Database
from repro.storage.journal import Journal

import layers
from harness import (
    RunLog, Subscriber, System, new_maintainer, run_stream, set_up,
)
from workloads import EdgeStream, Spec

#: Relative database size of the tax-table and memory legs.
SMALL = 0.1
#: Fewest passes each tax-table configuration is timed on.
TAX_MIN_PASSES = 16
#: Sum of these single-wrapper taxes is compared with ``full``.
SINGLES = ("undo", "mvcc", "journal", "fsync", "guard", "notify")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(spec: Spec, setup_seconds, log: RunLog) -> Dict[str, float]:
    """The end-to-end figures of an untraced run, each over the whole
    stream: every pass counts, and ``changes_per_s`` divides by the wall
    time of the whole timed loop, reads and checkpoints included."""
    return {
        "setup_s": median(setup_seconds),
        "pass_p50_ms": median(log.pass_ms),
        "changes_per_s": len(log.pass_ms) * 2 * spec.delta / log.loop_seconds,
        "peak_rss_mb": log.peak_rss_mb,
    }


def _ladder(spec: Spec, rows, directory: str):
    """One maintainer per configuration, built from public constructor
    arguments only (``bare`` has every wrapper off), and the journals
    to close afterwards."""
    journals = []

    def build(name, mvcc=False, fsync=None, subscribe=False, obs=False, **options):
        database = Database(mvcc=mvcc)
        database.insert_rows("link", rows)
        if obs:
            options["tracer"] = Tracer(RingSink())
        maintainer = new_maintainer(spec, database, **options).initialize()
        if obs:
            maintainer.enable_profiler()
        if fsync is not None:
            journal = Journal(
                os.path.join(directory, name + ".log"),
                fsync=fsync,
                metrics=maintainer.metrics,
            )
            journals.append(journal)
            maintainer.attach_journal(journal)
        if subscribe:
            subscriber = Subscriber(keep=False)
            for view in maintainer.view_names():
                maintainer.subscribe(view, subscriber)
        return maintainer

    off = dict(crash_safe=False, guard=None)
    ladder = {
        "bare": build("bare", **off),
        "undo": build("undo", crash_safe=True, guard=None),
        "mvcc": build("mvcc", mvcc=True, **off),
        "journal": build("journal", fsync=False, **off),
        "fsync": build("fsync", fsync=True, **off),
        "guard": build("guard", crash_safe=False),
        "notify": build("notify", subscribe=True, **off),
        "obs": build("obs", obs=True, **off),
        "full": build("full", mvcc=True, fsync=True, subscribe=True),
    }
    return ladder, journals


def tax_table(spec: Spec, seed: int, seconds: float, directory: str) -> Dict[str, float]:
    """What each configuration adds to a pass over ``bare``.

    ``fsync`` is reported over ``journal`` (flush-only), everything else
    over ``bare``; ``interaction`` is what ``full`` costs beyond the sum
    of the single wrappers (``obs`` is not part of ``full``).
    """
    small = spec.scaled(SMALL)
    stream = EdgeStream(small, seed)
    os.makedirs(directory)
    ladder, journals = _ladder(small, stream.rows(), directory)
    names = list(ladder)
    samples: Dict[str, List[float]] = {name: [] for name in names}
    order = random.Random(seed)
    elapsed = 0.0
    passes = 0
    while elapsed < seconds or passes < TAX_MIN_PASSES:
        batches = stream.take(8)
        started = perf_counter()
        for batch in batches:
            passes += 1
            # Shuffle who follows whom: no configuration should always
            # inherit its predecessor's caches (or, for the two that
            # fsync, the flush-only journal's dirty pages).
            order.shuffle(names)
            for name in names:
                tick = perf_counter()
                ladder[name].apply(batch)
                samples[name].append((perf_counter() - tick) * 1e3)
        elapsed += perf_counter() - started
    for journal in journals:
        journal.close()

    def over(name: str, base: str) -> float:
        """Median of the per-pass differences: every configuration ran
        the same changeset in the same pass, so pairing removes the
        pass-to-pass spread of the workload itself."""
        return median([
            ms - base_ms for ms, base_ms in zip(samples[name], samples[base])
        ])

    tax = {f"tax.{name}_ms": over(name, "bare") for name in samples}
    tax["tax.bare_ms"] = median(samples["bare"])
    tax["tax.fsync_ms"] = over("fsync", "journal")
    tax["tax.interaction_ms"] = tax["tax.full_ms"] - sum(
        tax[f"tax.{name}_ms"] for name in SINGLES
    )
    tax["small.full_p50_ms"] = median(samples["full"])
    return tax


def memory_profile(spec: Spec, seed: int, directory: str) -> Dict[str, float]:
    """Traced allocations of a tenth-size system: after set-up, after a
    short stream (version chains, held pins), and the peak."""
    small = replace(spec.scaled(SMALL), min_passes=16)
    stream = EdgeStream(small, seed)
    rows = stream.rows()
    tracemalloc.start()
    try:
        system = set_up(small, rows, directory)
        after_setup, _ = tracemalloc.get_traced_memory()
        stored = len(rows) + sum(
            len(view) for view in system.maintainer.views.values()
        )
        run_stream(small, system, stream, 0.0, RunLog())
        at_end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    system.journal.close()
    return {
        "mem.setup_bytes_per_tuple": after_setup / stored,
        "mem.stream_growth_mb": (at_end - after_setup) / 2**20,
        "mem.peak_traced_mb": peak / 2**20,
    }


def layer_metrics(
    spec: Spec,
    system: System,
    log: RunLog,
    recorder: layers.Recorder,
    tax: Dict[str, float],
    memory: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric; per-pass values are medians over passes."""
    traced = [index + 1 for index, on in enumerate(log.traced) if on]
    plain_ms = [ms for ms, on in zip(log.pass_ms, log.traced) if not on]
    traced_ms = [ms for ms, on in zip(log.pass_ms, log.traced) if on]
    table = recorder.self_by_pass("core.maintainer.apply", traced)

    def layer_ms(*names: str) -> float:
        return 1e3 * median([
            sum(table.get(name, {}).get(pass_id, 0.0) for name in names)
            for pass_id in traced
        ])

    attributed = [
        1e3 * sum(cells[pass_id] for cells in table.values())
        for pass_id in traced
    ]
    rules, probes, changed, notified, phases, ratios = zip(*log.work)
    plain_tuples = sum(
        tuples + 2 * spec.delta
        for tuples, on in zip(changed, log.traced) if not on
    )
    reads = recorder.self_by_pass("harness.read", traced)
    materialize = reads.get("storage.mvcc.materialize", {})
    # Recovery (load + initialize + replay) only where the workload
    # checkpoints; elsewhere these read 0.
    load = initialize = replay_rate = snapshot_bytes = 0.0
    if spec.checkpoint_every:
        load = recorder.durations("storage.serialize.load_snapshot")[-1]
        initialize = recorder.durations("core.maintainer.initialize")[-1]
        replay_rate = spec.tail_passes / (log.recover_s - load - initialize)
        snapshot_bytes = os.path.getsize(system.snapshot_path) / len(
            system.database.relation("link")
        )
    fsync = system.maintainer.metrics.get("repro_journal_fsync_seconds")
    counted = spec.min_passes * 2 * spec.delta
    metrics = {
        "datalog.compile_ms": system.steps["compile"] * 1e3,
        "eval.materialize_s": system.steps["materialize"],
        "eval.kernel_ms": layer_ms("eval.rule_eval", "eval.seminaive"),
        "eval.rules_fired": median(rules),
        "eval.index_probes": median(probes),
        "eval.probes_per_delta_tuple": sum(probes) / max(1, sum(changed)),
        "eval.plan_cache_hit_rate": system.maintainer.stats.hit_rate(),
        "eval.plan_ms": layer_ms("eval.plan_cache.plan"),
        "core.strategy_ms": layer_ms("core.strategy.run"),
        "core.view_delta_tuples": median(changed),
        "core.us_per_delta_tuple": 1e3 * sum(plain_ms) / plain_tuples,
        "core.bf_check_ratio": median([r for r in ratios if r is not None]),
        "core.maintainer_self_ms": layer_ms("core.maintainer.apply"),
        "core.notify_ms": layer_ms("core.active.notify"),
        "core.notified_tuples": median(notified),
        "core.pass_p95_ms": percentile(plain_ms, 0.95),
        "core.pass_p99_ms": percentile(plain_ms, 0.99),
        "core.pass_max_ms": max(plain_ms),
        "storage.merge_ms": layer_ms("storage.relation.merge"),
        "storage.invariant_scan_ms": layer_ms("storage.relation.assert_nonnegative"),
        "storage.rows_scanned_per_delta_tuple": sum(
            recorder.counts["rows_scanned", pass_id] for pass_id in traced
        ) / max(1, sum(changed[p - 1] for p in traced) + len(traced) * 2 * spec.delta),
        "storage.journal_append_ms": layer_ms("storage.journal.append"),
        "storage.journal_fsync_ms": 1e3 * fsync.sum() / fsync.count(),
        "storage.journal_bytes_per_change": log.counters["storage.journal_bytes"] / counted,
        "storage.mvcc_begin_ms": layer_ms("storage.mvcc.begin"),
        "storage.mvcc_publish_ms": layer_ms("storage.mvcc.commit"),
        "storage.mvcc_retained_entries": median(log.retained),
        "storage.snapshot_materialize_ms": 1e3 * median(
            [seconds for seconds in materialize.values() if seconds]
        ),
        "storage.held_read_ms": median(log.held_ms),
        "storage.read_p50_ms": median(log.read_ms),
        "storage.read_p95_ms": percentile(log.read_ms, 0.95),
        "storage.checkpoint_ms": median(log.checkpoint_ms),
        "storage.snapshot_bytes_per_tuple": snapshot_bytes,
        "storage.recover_s": log.recover_s,
        "storage.load_snapshot_s": load,
        "storage.replay_entries_per_s": replay_rate,
        "resilience.undo_ms": layer_ms("resilience.undo.note"),
        "resilience.undo_entries": median(
            [recorder.counts["undo_entries", pass_id] for pass_id in traced]
        ),
        "guard.admit_ms": layer_ms("guard.admission.validate_changeset"),
        "trace.overhead_ratio": median(traced_ms) / median(plain_ms),
        "trace.unattributed_ms": median(
            [wall - inside for wall, inside in zip(traced_ms, attributed)]
        ),
        "scale.db_x10_extra_ms": median(plain_ms) - tax["small.full_p50_ms"],
    }
    for phase in ("seed", "propagate", "apply", "forward", "backward", "insert"):
        metrics[f"core.phase.{phase}_ms"] = 1e3 * median(
            [seconds.get(phase, 0.0) for seconds in phases]
        )
    metrics.update(memory)
    metrics.update(
        (name, value) for name, value in tax.items() if name.startswith("tax.")
    )
    return metrics
