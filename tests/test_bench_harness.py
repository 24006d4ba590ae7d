"""Tests for the experiment harness (table rendering, registry, timing)."""

import importlib.util
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import ExperimentResult, format_table, timed

LAYERS_PY = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"
)


class TestHarness:
    def test_timed_returns_result_and_positive_seconds(self):
        value, seconds = timed(lambda: sum(range(1000)))
        assert value == 499500
        assert seconds > 0

    def test_add_row_and_note(self):
        result = ExperimentResult("E0", "t", "c", ["a", "b"])
        result.add_row(a=1, b=2.5)
        result.note("remark")
        assert result.rows == [{"a": 1, "b": 2.5}]
        assert result.notes == ["remark"]

    def test_format_table_markdown(self):
        result = ExperimentResult("E0", "Title", "The claim.", ["x", "y"])
        result.add_row(x="foo", y=0.1234)
        result.note("a note")
        text = format_table(result)
        assert "### E0 — Title" in text
        assert "| x " in text
        assert "0.1234" in text
        assert "> a note" in text

    def test_format_handles_missing_cells(self):
        result = ExperimentResult("E0", "T", "c", ["x", "y"])
        result.add_row(x=1)
        assert "| 1" in format_table(result)

    def test_float_formatting_ranges(self):
        result = ExperimentResult("E0", "T", "c", ["v"])
        result.add_row(v=1234.5)
        result.add_row(v=12.345)
        result.add_row(v=0.000123)
        text = format_table(result)
        assert "1235" in text or "1234" in text
        assert "12.35" in text or "12.34" in text
        assert "0.0001" in text

    def test_registry_complete(self):
        claims = sorted(
            (e for e in EXPERIMENTS if e.startswith("E")),
            key=lambda e: int(e[1:]),
        )
        assert claims == [f"E{i}" for i in range(1, 13)]
        ablations = sorted(e for e in EXPERIMENTS if e.startswith("A"))
        assert ablations == ["A1", "A2", "A3", "A4"]
        assert all(callable(fn) for fn in EXPERIMENTS.values())

    def test_registry_ids_match_design_doc(self):
        # DESIGN.md §4.2 promises exactly E1..E12 (+ four ablations).
        assert len(EXPERIMENTS) == 16


def test_every_e2e_layer_target_resolves():
    """The end-to-end benchmark wraps these names by ``getattr``; a
    rename that misses one would crash the traced run in ``install()``."""
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for module_name, path, _span in layers.TARGETS:
        owner, attribute = layers._resolve(module_name, path)
        assert callable(getattr(owner, attribute)), (module_name, path)
