"""Sets of runs: medians over interleaved fresh-process runs.

    python3 benchmarks/e2e/suite.py --seed 1 --sets 2 --trace --out FILE
    python3 benchmarks/e2e/suite.py --seeds 10 --sets 2 --out FILE
    python3 benchmarks/e2e/suite.py --smoke
    python3 benchmarks/e2e/suite.py --results NEW.json --compare BASE.json

A *set* is ``--runs`` runs of every workload on ``--seed`` — or, with
``--seeds N``, one run on each of the N seeds from ``--seed`` up —
interleaved round-robin (A B C D A B C D ...) so machine drift is
spread over the workloads; each run is one ``run.py`` process.  The
reported value of a metric is the median over a set's runs, with the
runs' spread (distance between the quartiles as a share of the median)
beside it.  Two sets of the same code give the agreement table; the
exact counters must be identical in every run of a seed, or the suite
fails.  Exit code: 0 clean, 1 a run failed or was wrong, 2 determinism
broke, 3 ``--compare`` found a metric worse.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA_VERSION = 1
#: ``--smoke``: every workload ~50x smaller, same code paths.
SMOKE_SCALE, SMOKE_SECONDS = 0.02, 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3, help="runs per set")
    parser.add_argument("--seeds", type=int, metavar="N",
                        help="a set is one run on each of N seeds instead")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload and set")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--results", help="load results instead of measuring")
    parser.add_argument("--compare", metavar="BASE.json")
    return parser.parse_args(argv)


def one_run(workload, seed, seconds, trace, scale, out: Path) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--scale", str(scale), "--out", str(out),
    ]
    done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    if not out.exists():
        raise SystemExit(f"run.py crashed (exit {done.returncode}): {command}")
    return json.loads(out.read_text(encoding="utf-8"))


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0.0 where a single value leaves nothing to spread)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def summarize(values) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "spread": spread(values),
        "n": len(values),
        "values": values,
    }


def counters_repeat(records) -> bool:
    """Runs of one seed did exactly the same work: every exact counter
    two of them share is equal (traced runs also count undo entries)."""
    return all(
        one["counters"][name] == other["counters"][name]
        for one, other in itertools.combinations(records, 2)
        if one["seed"] == other["seed"]
        for name in one["counters"].keys() & other["counters"].keys()
    )


def worsening(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative: better), in the metric's own direction."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def measure(args, declared) -> dict:
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else declared["run_seconds"]
    )
    sets = 1 if args.smoke else args.sets
    if args.seeds:
        seeds = list(range(args.seed, args.seed + args.seeds))
    else:
        # Smoke runs twice so the determinism check has a pair to compare.
        seeds = [args.seed] * (2 if args.smoke else args.runs)
    trace = args.trace or args.smoke
    records = {name: [[] for _ in range(sets)] for name in workloads}
    traced = {name: [] for name in workloads}
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    spans_dir = Path(args.out).parent if args.out else work
    stem = Path(args.out).stem if args.out else "suite"
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        for set_index in range(sets):
            for run_index, seed in enumerate(seeds):
                for name in workloads:
                    out = Path(scratch) / f"{name}-{set_index}-{run_index}.json"
                    record = one_run(name, seed, seconds, False, scale, out)
                    records[name][set_index].append(record)
                    print(f"set {set_index + 1} run {run_index + 1} seed {seed} {name}: "
                          f"pass_p50_ms={record['metrics']['pass_p50_ms']['value']:.3f} "
                          f"failed={record['failed']}/{record['attempted']}",
                          flush=True)
            for name in (workloads if trace else ()):
                out = Path(scratch) / f"{name}-traced.json"
                traced[name].append(
                    one_run(name, args.seed, seconds, True, scale, out)
                )
                # The last set's span file is the one that is kept.
                out.with_suffix(".spans.jsonl").replace(
                    spans_dir / f"{stem}.{name}.spans.jsonl"
                )
                print(f"set {set_index + 1} traced {name}", flush=True)

    first = records[workloads[0]][0][0]
    document = {
        "schema_version": SCHEMA_VERSION,
        "environment": first["environment"],
        "seeds": seeds,
        "seconds": seconds,
        "scale": scale,
        "workloads": {},
    }
    e2e = declared["end_to_end"]
    for name in workloads:
        every = [record for group in records[name] for record in group]
        document["workloads"][name] = cell = {
            "parameters": every[0]["parameters"],
            "sets": [
                {
                    metric["name"]: summarize([
                        record["metrics"][metric["name"]]["value"]
                        for record in group
                    ])
                    for metric in e2e
                }
                for group in records[name]
            ],
            "ungated": [
                {
                    metric: summarize([record["ungated"][metric] for record in group])
                    for metric in group[0]["ungated"]
                }
                for group in records[name]
            ],
            "samples": [record["samples"] for record in every],
            "correct": all(record["correct"] for record in every + traced[name]),
            "failed_share": sum(r["failed"] for r in every + traced[name])
            / sum(r["attempted"] for r in every + traced[name]),
            "counters": {
                str(record["seed"]): record["counters"]
                for record in every + traced[name]  # traced last: has all
            },
            "counters_repeat": counters_repeat(every + traced[name]),
        }
        if traced[name]:
            cell["per_layer"] = {
                metric: [run["metrics"][metric]["value"] for run in traced[name]]
                for metric in traced[name][0]["metrics"]
            }
    if sets >= 2:
        document["agreement"] = []
        for name in workloads:
            first, second = document["workloads"][name]["sets"][:2]
            for metric in e2e:
                old = first[metric["name"]]["median"]
                new = second[metric["name"]]["median"]
                worse_by = worsening(metric, old, new)
                document["agreement"].append({
                    "workload": name,
                    "metric": metric["name"],
                    "set1": old,
                    "set2": new,
                    "worse_by": worse_by,
                    "spread": max(first[metric["name"]]["spread"],
                                  second[metric["name"]]["spread"]),
                    "bound": metric["bound"],
                    "agree": abs(worse_by) <= metric["bound"],
                })
    if {"hop_trickle", "hop_burst"} <= set(workloads):
        # Cost at 100x the change, same database: ~100 if cost tracked |Δ|.
        p50 = {
            name: document["workloads"][name]["sets"][0]["pass_p50_ms"]["median"]
            for name in ("hop_trickle", "hop_burst")
        }
        document["scale.delta_x100_cost_ratio"] = p50["hop_burst"] / p50["hop_trickle"]
    return document


def print_table(document, declared) -> None:
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for name, cell in document["workloads"].items():
        for index, (gated, ungated) in enumerate(zip(cell["sets"], cell["ungated"])):
            for metric, stats in [*gated.items(), *ungated.items()]:
                print(f"{name:12s} set{index + 1} {metric:14s} "
                      f"{stats['median']:12.4f} {units.get(metric, '(ungated)'):9s} "
                      f"(min {stats['min']:.4f} max {stats['max']:.4f} "
                      f"spread {stats['spread']:.3f} n={stats['n']})")
        print(f"{name:12s} failed_share   {cell['failed_share']:.4f} ratio")
    for row in document.get("agreement", ()):
        print(f"agreement {row['workload']:12s} {row['metric']:14s} "
              f"{row['worse_by']:+.3f} of bound {row['bound']:.2f} "
              f"(spread {row['spread']:.3f}) {'ok' if row['agree'] else 'DISAGREE'}")
    if "scale.delta_x100_cost_ratio" in document:
        print(f"scale.delta_x100_cost_ratio {document['scale.delta_x100_cost_ratio']:.2f} ratio")


def pooled(cell, metric: str):
    return [value for group in cell["sets"] for value in group[metric]["values"]]


def compare(base, new, declared) -> bool:
    """Print each (metric, workload) pair as better / within-bound /
    worse / unresolved; True if none is worse."""
    clean = True
    for name, cell in new["workloads"].items():
        if name not in base["workloads"]:
            continue
        for metric in declared["end_to_end"]:
            old_values = pooled(base["workloads"][name], metric["name"])
            new_values = pooled(cell, metric["name"])
            old, fresh = statistics.median(old_values), statistics.median(new_values)
            wide = max(spread(old_values), spread(new_values))
            worse_by = worsening(metric, old, fresh)
            if wide > metric["bound"]:
                verdict = "unresolved"  # spread wider than the bound
            elif worse_by > metric["bound"]:
                verdict, clean = "worse", False
            elif worse_by < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "within-bound"
            print(f"{name:12s} {metric['name']:14s} base {old:12.4f} new {fresh:12.4f} "
                  f"{worse_by:+.3f} (bound {metric['bound']:.2f}, spread {wide:.3f}) {verdict}")
    return clean


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.results:
        document = json.loads(Path(args.results).read_text(encoding="utf-8"))
    else:
        document = measure(args, declared)
        if args.out:
            Path(args.out).write_text(
                json.dumps(document, indent=1) + "\n", encoding="utf-8"
            )
    print_table(document, declared)
    code = 0
    for name, cell in document["workloads"].items():
        if not cell["correct"] or cell["failed_share"] > 0:
            print(f"FAILED {name}: correct={cell['correct']} "
                  f"failed_share={cell['failed_share']}", file=sys.stderr)
            code = 1
        if not cell["counters_repeat"]:
            print(f"NOT DETERMINISTIC {name}: exact counters differ between "
                  "runs of one seed (hash order leaks into the work done?)",
                  file=sys.stderr)
            code = 2
    if args.compare and not code:
        base = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        if not compare(base, document, declared):
            code = 3
    return code


if __name__ == "__main__":
    sys.exit(main())
