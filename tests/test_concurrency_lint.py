"""The RV3xx static concurrency battery and the devlint tree walker."""

import json
from pathlib import Path

import pytest

from repro.analysis.concurrency import (
    CONCURRENCY_CODES,
    check_source,
    unused_imports,
)
from repro.analysis.devlint import iter_modules, lint_self
from repro.analysis.diagnostics import (
    CODES,
    Severity,
    render_json,
    suppress,
    validate_document,
)


#: A deliberately broken "cache layer": every method violates one of
#: the disciplines the static pass enforces.  Never imported — lint
#: input only.  Line numbers matter: the span tests assert them.
BAD_FIXTURE = '''\
"""Seeded publication-discipline bugs."""
import os
import threading


class TornCache:
    def __init__(self):
        self._lock = threading.Lock()
        self.epoch = 0

    def publish(self, relation, rows):
        relation._rows = dict(rows)
        self.epoch = self.epoch + 1

    def bump(self):
        with self._lock:
            self.epoch += 1

    def persist(self, handle):
        with self._lock:
            os.fsync(handle)

    def grab(self):
        self._lock.acquire()
'''

#: code -> 1-based fixture line the analyzer must anchor it to.
BAD_EXPECTED_SPANS = {
    "RV301": 12,  # relation._rows = dict(rows)
    "RV302": 13,  # self.epoch outside repro.storage.mvcc
    "RV303": 21,  # os.fsync under self._lock
    "RV304": 24,  # bare acquire, no release in a finally
    "RV306": 13,  # self.epoch guarded in bump(), unguarded in publish()
}

#: The error-severity subset the static pass must flag.
BAD_EXPECTED_ERRORS = {"RV301", "RV302", "RV304"}


class TestSeededFixture:
    def test_every_seeded_defect_is_reported(self):
        found = check_source(BAD_FIXTURE, module="repro.cache.torn")
        codes = {d.code for d in found}
        assert set(BAD_EXPECTED_SPANS) <= codes

    def test_span_accuracy_on_the_seeded_fixture(self):
        found = check_source(BAD_FIXTURE, module="repro.cache.torn")
        by_code = {}
        for diagnostic in found:
            by_code.setdefault(diagnostic.code, diagnostic)
        for code, line in BAD_EXPECTED_SPANS.items():
            span = by_code[code].span
            assert span is not None, code
            assert span.line == line, (code, str(span))
            assert span.column >= 1, code

    def test_error_severity_subset(self):
        found = check_source(BAD_FIXTURE, module="repro.cache.torn")
        errors = {
            d.code for d in found if d.severity >= Severity.ERROR
        }
        assert errors == BAD_EXPECTED_ERRORS

    def test_catalogue_covers_every_emittable_code(self):
        for code in CONCURRENCY_CODES:
            assert code in CODES
        found = check_source(BAD_FIXTURE, module="repro.cache.torn")
        for diagnostic in found:
            assert diagnostic.code in CODES


class TestWriteDiscipline:
    def test_storage_engine_modules_are_exempt(self):
        source = "def f(rel):\n    rel._rows = {}\n"
        assert check_source(source, module="repro.storage.mvcc") == []
        flagged = check_source(source, module="repro.core.maintenance")
        assert [d.code for d in flagged] == ["RV301"]

    def test_fresh_local_writes_are_allowed(self):
        source = (
            "def f():\n"
            "    read = SnapshotRead('v')\n"
            "    read._rows = {}\n"
            "    read.epoch = 3\n"
        )
        assert check_source(source, module="repro.core.maintenance") == []

    def test_parameter_writes_are_flagged(self):
        source = (
            "def f(report):\n"
            "    report.epoch = 9\n"
        )
        flagged = check_source(source, module="repro.core.maintenance")
        assert [d.code for d in flagged] == ["RV302"]

    def test_init_writes_are_allowed(self):
        source = (
            "class R:\n"
            "    def __init__(self):\n"
            "        self._rows = {}\n"
            "        self.epoch = 0\n"
        )
        assert check_source(source, module="repro.obs.metrics") == []

    def test_subscript_and_del_writes_are_flagged(self):
        source = (
            "def f(rel):\n"
            "    rel._rows[(1,)] = 2\n"
            "    del rel._pending[(1,)]\n"
        )
        codes = [
            d.code
            for d in check_source(source, module="repro.eval.seminaive")
        ]
        assert codes == ["RV301", "RV301"]


class TestLockDiscipline:
    def test_blocking_call_under_lock(self):
        source = (
            "import os\n"
            "def f(self, handle):\n"
            "    with self._lock:\n"
            "        os.fsync(handle)\n"
        )
        flagged = check_source(source, module="repro.storage.journal")
        assert [d.code for d in flagged] == ["RV303"]
        assert flagged[0].span.line == 4

    def test_acquire_with_release_in_finally_is_clean(self):
        source = (
            "def f(self):\n"
            "    self._lock.acquire()\n"
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        self._lock.release()\n"
        )
        assert check_source(source, module="repro.obs.metrics") == []

    def test_nested_distinct_locks_warn(self):
        source = (
            "def f(self, other):\n"
            "    with self._lock:\n"
            "        with other._lock:\n"
            "            pass\n"
        )
        flagged = check_source(source, module="repro.obs.metrics")
        assert [d.code for d in flagged] == ["RV307"]

    def test_locked_suffix_methods_assume_caller_holds_lock(self):
        source = (
            "import threading\n"
            "class M:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
            "    def _bump_locked(self):\n"
            "        self.count += 1\n"
        )
        assert check_source(source, module="repro.storage.mvcc") == []

    def test_mixed_guarded_unguarded_attribute_warns(self):
        source = (
            "import threading\n"
            "class M:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
            "    def reset(self):\n"
            "        self.count = 0\n"
        )
        flagged = check_source(source, module="repro.obs.metrics")
        assert [d.code for d in flagged] == ["RV306"]
        assert flagged[0].span.line == 10


class TestLayering:
    def test_upward_module_scope_import_is_flagged(self):
        source = "from repro.obs.health import HealthEngine\n"
        flagged = check_source(source, module="repro.storage.mvcc")
        assert [d.code for d in flagged] == ["RV305"]

    def test_seam_modules_are_importable_from_anywhere(self):
        source = "from repro.obs.metrics import get_default_registry\n"
        assert check_source(source, module="repro.storage.mvcc") == []

    def test_downward_imports_are_clean(self):
        source = "from repro.storage.relation import CountedRelation\n"
        assert check_source(source, module="repro.core.maintenance") == []


class TestGlobalsAndThreads:
    def test_global_rebinding_is_info(self):
        source = (
            "_registry = None\n"
            "def set_registry(r):\n"
            "    global _registry\n"
            "    _registry = r\n"
        )
        flagged = check_source(source, module="repro.obs.metrics")
        assert [d.code for d in flagged] == ["RV309"]
        assert flagged[0].severity == Severity.INFO

    def test_joined_thread_is_clean(self):
        source = (
            "import threading\n"
            "def f():\n"
            "    t = threading.Thread(target=f)\n"
            "    t.start()\n"
            "    t.join()\n"
        )
        assert check_source(source, module="repro.obs.metrics") == []

    def test_unjoined_nondaemon_thread_is_info(self):
        source = (
            "import threading\n"
            "def f():\n"
            "    t = threading.Thread(target=f)\n"
            "    t.start()\n"
        )
        flagged = check_source(source, module="repro.obs.metrics")
        assert [d.code for d in flagged] == ["RV308"]


class TestUnusedImports:
    def test_unused_import_flagged_with_position(self):
        source = "import os\nimport sys\nprint(sys.argv)\n"
        flagged = unused_imports(source, module="repro.testing")
        assert [d.code for d in flagged] == ["RV220"]
        assert "'os'" in flagged[0].message
        assert flagged[0].span.line == 1

    def test_all_reexports_count_as_used(self):
        source = (
            "from repro.errors import ReproError\n"
            "__all__ = ['ReproError']\n"
        )
        assert unused_imports(source, module="repro") == []

    def test_string_annotations_count_as_used(self):
        source = (
            "from typing import Optional\n"
            "def f(x: 'Optional[int]'):\n"
            "    return x\n"
        )
        assert unused_imports(source, module="repro.testing") == []

    def test_future_imports_are_exempt(self):
        source = "from __future__ import annotations\n"
        assert unused_imports(source, module="repro.testing") == []


class TestSelfLint:
    def test_real_tree_has_zero_error_severity_rv3xx(self):
        report = lint_self()
        hard = [
            d
            for d in report.at_severity(Severity.ERROR)
            if d.code.startswith("RV3")
        ]
        assert hard == [], [
            f"{d.code}@{d.location()}: {d.message}" for d in hard
        ]

    def test_real_tree_has_zero_unused_imports(self):
        report = lint_self()
        assert [d for d in report.diagnostics if d.code == "RV220"] == []

    def test_test_suite_has_zero_unused_imports(self):
        # ruff's F401 over tests/, held where ruff is not installed.
        found = [
            f"{d.location()}: {d.message}"
            for path in sorted(Path(__file__).parent.glob("*.py"))
            for d in unused_imports(path.read_text(), path=str(path))
        ]
        assert found == []

    def test_every_finding_carries_its_file(self):
        report = lint_self()
        for diagnostic in report.diagnostics:
            assert diagnostic.path, diagnostic.code
            assert diagnostic.path.endswith(".py")

    def test_iter_modules_names_are_dotted(self):
        pairs = list(iter_modules())
        modules = {module for _path, module in pairs}
        assert "repro.storage.mvcc" in modules
        assert "repro.analysis.concurrency" in modules
        assert all(m.startswith("repro") for m in modules)


class TestSuppressionJsonInterplay:
    """Suppressed codes must vanish from JSON output and exit codes."""

    def test_suppressed_codes_absent_from_json_document(self):
        found = check_source(BAD_FIXTURE, module="repro.cache.torn")
        assert any(d.code == "RV303" for d in found)
        kept = suppress(found, ["RV303"])
        document = json.loads(render_json(kept, "torn.py"))
        validate_document(document)
        codes = {entry["code"] for entry in document["diagnostics"]}
        assert "RV303" not in codes
        assert document["summary"]["warnings"] == sum(
            1 for d in kept if d.severity == Severity.WARNING
        )

    def test_suppressing_all_errors_zeroes_the_exit_code(self):
        report = lint_self(suppress_codes=["RV309"])
        assert report.exit_code(Severity.INFO) == 0
        assert all(d.code != "RV309" for d in report.diagnostics)

    def test_self_lint_report_renders_schema_valid_json(self):
        report = lint_self()
        document = report.to_dict()
        for entry in document["diagnostics"]:
            assert entry["code"] in CODES


class TestCliSelfLint:
    def test_lint_self_flag(self, capsys):
        from repro.cli import lint_main

        exit_code = lint_main(["--self", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        validate_document(document)
        assert exit_code == 0

    def test_lint_self_suppression_drops_codes(self, capsys):
        from repro.cli import lint_main

        lint_main(["--self", "--format", "json", "--suppress", "RV309"])
        document = json.loads(capsys.readouterr().out)
        assert all(
            entry["code"] != "RV309"
            for entry in document["diagnostics"]
        )

    def test_lint_self_rejects_program_argument(self, capsys):
        from repro.cli import lint_main

        assert lint_main(["--self", "x.dl"]) == 2

    def test_lint_requires_program_without_self(self):
        from repro.cli import lint_main

        with pytest.raises(SystemExit):
            lint_main([])
