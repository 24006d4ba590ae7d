"""One run of one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload hop_trickle --seed 1 \\
        --seconds 10 --trace 0

prints every metric by name with its unit, checks the outputs against
recomputation, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` gives the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` splits the same ``--seconds`` over a
span-traced stream, the tax table and the memory leg and gives the
per-layer metrics.  ``--out FILE`` also writes the run's full record
(``suite.py`` collects those).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Journals, snapshots and span files go here (inside the checkout).
WORK = HERE / ".work"
SCHEMA_VERSION = 1
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Shares of ``--seconds`` a traced run gives its stream and tax legs.
TRACE_STREAM, TRACE_TAX = 0.5, 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full run record here")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="database size factor (suite.py --smoke uses 0.02)",
    )
    return parser.parse_args(argv)


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = found.stdout.strip() or commit
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python_version": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def measure(spec, seed: int, seconds: float, trace: bool, work: str, spans_path: str):
    """Set up, stream, recover, check; returns (values by metric name,
    run log).  Imports live here: ``repro`` is only importable after
    :func:`main` has put ``src/`` on the path."""
    import gc

    import harness
    import layers
    import legs
    from workloads import EdgeStream

    stream = EdgeStream(spec, seed)
    rows = stream.rows()
    recorder = layers.Recorder() if trace else None
    saved = layers.install(recorder) if trace else None
    setup_seconds = []
    system = None
    for index in range(1 if trace else SETUPS):
        if system is not None:
            system.journal.close()
            system = None
            gc.collect()
        system = harness.set_up(spec, rows, os.path.join(work, f"setup{index}"))
        setup_seconds.append(system.seconds)
    if trace:
        layers.uninstall(saved)
    log = harness.RunLog()
    share = TRACE_STREAM if trace else 1.0
    harness.run_stream(spec, system, stream, seconds * share, log, recorder)
    if trace:
        recorder.pass_id = -2  # everything after the stream
        saved = layers.install(recorder)
    harness.finish(spec, system, stream, log, recorder)
    if trace:
        layers.uninstall(saved)
    harness.check_against_recomputation(spec, system, stream, log)
    system.journal.close()
    if trace:
        # The undo log lives inside ``apply``: only the wrappers see it,
        # so only traced runs count its entries (the prefix's traced chunks).
        log.counters["resilience.undo_entries"] = sum(
            recorder.counts["undo_entries", pass_id]
            for pass_id in range(1, spec.min_passes + 1)
        )
        tax = legs.tax_table(spec, seed, seconds * TRACE_TAX, os.path.join(work, "tax"))
        memory = legs.memory_profile(spec, seed, os.path.join(work, "mem"))
        values = legs.layer_metrics(spec, system, log, recorder, tax, memory)
        recorder.dump(spans_path)
    else:
        values = legs.end_to_end(spec, setup_seconds, log)
    # Measured on every run but not gated (README: what is not gated);
    # suite.py reports their spread beside the gated metrics'.
    ungated = {
        "pass_p95_ms": legs.percentile(log.pass_ms, 0.95),
        "pass_max_ms": max(log.pass_ms),
    }
    if spec.read_every:
        ungated["read_p50_ms"] = legs.median(log.read_ms)
        ungated["read_p95_ms"] = legs.percentile(log.read_ms, 0.95)
    if spec.checkpoint_every:
        ungated["checkpoint_ms"] = legs.median(log.checkpoint_ms)
        ungated["recover_s"] = log.recover_s
    record = {
        "setup_s": setup_seconds,
        "setup_steps_s": system.steps,
        "samples": {
            "passes": len(log.pass_ms),
            "reads": len(log.read_ms),
            "held_reads": len(log.held_ms),
            "checkpoints": len(log.checkpoint_ms),
        },
        "stream_seconds": log.loop_seconds,
        "ungated": ungated,
        "pass_ms": log.pass_ms,
        "chunk_seconds": log.chunk_seconds,
        "counters": log.counters,
        "mismatches": log.mismatches,
    }
    return values, log, record


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT} is not a checkout of the repository (no src/repro)",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not leak into the work done: every run is a
        # fresh interpreter with a fixed hash seed.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SPECS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in SPECS:
        print(f"unknown workload {args.workload!r}; one of {sorted(SPECS)}",
              file=sys.stderr)
        return 2
    spec = SPECS[args.workload].scaled(args.scale)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.out:
        spans_path = str(Path(args.out).with_suffix(".spans.jsonl"))
    else:
        spans_path = str(WORK / f"{spec.name}-seed{args.seed}.spans.jsonl")
    try:
        values, log, record = measure(
            spec, args.seed, args.seconds, bool(args.trace), str(work), spans_path
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    correct = not log.mismatches
    # A wrong view or a failed recovery fails the whole run.
    failed = log.failed if correct else log.attempted
    for name, cell in metrics.items():
        print(f"{spec.name:12s} {name:38s} {cell['value']:14.4f} {cell['unit']}")
    print(f"{spec.name:12s} passes={len(log.pass_ms)} reads={len(log.read_ms)} "
          f"attempted={log.attempted} failed={failed} "
          f"failed_share={failed / log.attempted:.4f}")
    for mismatch in log.mismatches:
        print(f"MISMATCH {spec.name}: {mismatch}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        full = dict(
            result,
            schema_version=SCHEMA_VERSION,
            workload=spec.name,
            seed=args.seed,
            seconds=args.seconds,
            scale=args.scale,
            trace=args.trace,
            parameters={k: v for k, v in asdict(spec).items() if k != "source"},
            environment=environment(),
            **record,
        )
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
