"""Self-test of the end-to-end benchmark at smoke size.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "suite.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text())


def test_names_match_benchmark_json(smoke):
    _, document = smoke
    assert list(document["workloads"]) == [w["name"] for w in DECLARED["workloads"]]
    e2e = {m["name"] for m in DECLARED["end_to_end"]}
    layers = {m["name"] for m in DECLARED["per_layer"]}
    for cell in document["workloads"].values():
        assert set(cell["sets"][0]) == e2e
        assert set(cell["per_layer"]) == layers


def test_values_finite_and_nothing_failed(smoke):
    _, document = smoke
    for name, cell in document["workloads"].items():
        assert cell["correct"], name
        assert cell["failed_share"] == 0, name
        # Two untraced runs and a traced one did exactly the same work.
        assert cell["sets"][0]["pass_p50_ms"]["n"] == 2, name
        assert cell["counters_repeat"], name
        for metric, stats in cell["sets"][0].items():
            assert math.isfinite(stats["median"]) and stats["median"] > 0, (name, metric)
        for metric, values in cell["per_layer"].items():
            assert all(math.isfinite(value) for value in values), (name, metric)


def test_span_parents_resolve(smoke):
    out, document = smoke
    for name in document["workloads"]:
        path = out.parent / f"{out.stem}.{name}.spans.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, name
        for span in spans:
            assert span["end"] >= span["start"]
            parent = span["parent"]
            if parent is not None:
                # A parent is recorded before its children and encloses them.
                assert parent < span["id"]
                assert spans[parent]["start"] <= span["start"]
                assert span["end"] <= spans[parent]["end"]


def test_compare_flags_a_regression(smoke, tmp_path, capsys):
    out, document = smoke
    slower = json.loads(json.dumps(document))
    stats = slower["workloads"]["hop_trickle"]["sets"][0]["pass_p50_ms"]
    stats["values"] = [value * 2 for value in stats["values"]]
    changed = tmp_path / "slower.json"
    changed.write_text(json.dumps(slower))
    sys.path.insert(0, str(HERE))
    try:
        import suite
    finally:
        sys.path.remove(str(HERE))
    assert suite.main(["--results", str(out), "--compare", str(out)]) == 0
    assert suite.main(["--results", str(changed), "--compare", str(out)]) == 3
    # A run that did different work for the same seed is a determinism failure.
    one, other = (dict(counters=dict(c), seed=1) for c in [{"x": 1}, {"x": 2}])
    assert suite.counters_repeat([one, one]) and not suite.counters_repeat([one, other])
    assert "hop_trickle  pass_p50_ms" in capsys.readouterr().out
