"""Smoke test: the B/F benchmark runs end-to-end and emits well-formed
``BENCH_bf.json``.

Runs ``benchmarks/bench_bf.py --smoke`` (toy scale — the numbers are
meaningless, only the machinery and the schema are under test; the
performance gates are recorded but enforced only at full scale) and
validates the JSON schema the full benchmark publishes.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "benchmarks", "bench_bf.py")


def run_smoke(tmp_path):
    out = str(tmp_path / "bench.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    completed = subprocess.run(
        [sys.executable, SCRIPT, "--smoke", "--out", out],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return out, completed.stdout


def test_smoke_emits_valid_bench_json(tmp_path):
    out, stdout = run_smoke(tmp_path)
    with open(out, encoding="utf-8") as handle:
        payload = json.load(handle)

    assert payload["benchmark"] == "bf"
    assert payload["schema_version"] == 1
    assert payload["config"]["smoke"] is True

    by_name = {w["workload"]: w for w in payload["workloads"]}
    assert set(by_name) == {
        "dense-layered", "dense-grid", "e6-regression", "e7-regression",
    }

    for workload in by_name.values():
        assert workload["bf_seconds"] > 0
        assert workload["dred_seconds"] > 0
        assert workload["speedup"] > 0
        assert workload["ratio"] > 0
        # The targeting story: B/F examines candidates, DRed
        # overestimates; both sides ran real deletion work.
        assert workload["bf_candidates"] > 0
        assert workload["dred_overestimated"] > 0

    # The dense workload carries the ≥5× acceptance gate; the
    # regression workloads carry the <10% budget.  At smoke scale only
    # their presence is asserted — the full run enforces them via its
    # exit code.
    assert by_name["dense-layered"]["speedup_gate"] == 5.0
    assert "within_gate" in by_name["dense-layered"]
    for name in ("e6-regression", "e7-regression"):
        assert by_name[name]["regression_budget"] == 0.10
        assert "within_gate" in by_name[name]

    # B/F never examines more than DRed deletes: candidates are a
    # subset of the overestimate (tests/test_bf.py proves this per
    # pass; here it shows up in the aggregate counters).
    for workload in by_name.values():
        assert (
            workload["bf_candidates"] <= workload["dred_overestimated"]
        )

    # Engine telemetry rides along in every bench document.
    assert "metrics" in payload["telemetry"]

    # Human-readable lines mirror the JSON.
    assert "dense-layered" in stdout
    assert "e6-regression" in stdout
    assert out in stdout
