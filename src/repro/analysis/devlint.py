"""Self-lint: run the concurrency analyzer over the repro tree itself.

``repro lint --self`` (and ``make lint-strict`` / ``repro
sanitize``) call :func:`lint_self`, which walks every module under
``src/repro``, runs the RV3xx static battery
(:mod:`repro.analysis.concurrency`) plus the RV220 import-hygiene pass,
and folds the findings into a standard
:class:`~repro.analysis.analyzer.AnalysisReport` so the existing text /
JSON renderers, ``--suppress`` handling, and ``--fail-on`` exit-code
logic all apply unchanged.  Each diagnostic is stamped with the file it
came from (``Diagnostic.path``), so a multi-file report still renders
GCC-style ``file:line:col`` locations.

The gate ``repro sanitize`` enforces is *zero error-severity RV3xx
findings on the real tree*: INFO/WARNING findings are advisory (e.g. the
one sanctioned ``global`` rebinding in the metrics registry), but an ERROR
means someone bypassed the MVCC publication protocol and O4's worker
pool would tear snapshots.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.analysis.analyzer import AnalysisReport
from repro.analysis.concurrency import check_source, unused_imports
from repro.analysis.diagnostics import Diagnostic, suppress

__all__ = ["default_root", "iter_modules", "lint_path", "lint_self"]


def default_root() -> str:
    """The installed ``repro`` package directory (``src/repro``)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def iter_modules(root: Optional[str] = None) -> Iterator[Tuple[str, str]]:
    """Yield ``(file_path, dotted_module)`` for every module under root.

    ``root`` must be the package directory itself (its basename becomes
    the first dotted component), so the default walks ``repro.*``.
    """
    base = os.path.abspath(root or default_root())
    package = os.path.basename(base.rstrip(os.sep))
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith((".", "__pycache__"))
        )
        rel = os.path.relpath(dirpath, base)
        prefix = (
            package
            if rel == os.curdir
            else package + "." + rel.replace(os.sep, ".")
        )
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            if filename == "__init__.py":
                module = prefix
            else:
                module = prefix + "." + filename[:-3]
            yield os.path.join(dirpath, filename), module


def lint_path(
    file_path: str,
    module: str,
    *,
    include_imports: bool = True,
) -> List[Diagnostic]:
    """Lint one file: the RV3xx battery plus (optionally) RV220."""
    with open(file_path, "r", encoding="utf-8") as handle:
        source = handle.read()
    rel = _display_path(file_path)
    findings = check_source(source, module=module, path=rel)
    if include_imports:
        findings.extend(
            unused_imports(source, module=module, path=rel)
        )
    return findings


def lint_self(
    root: Optional[str] = None,
    *,
    suppress_codes: Iterable[str] = (),
    include_imports: bool = True,
) -> AnalysisReport:
    """Lint the whole tree and fold the findings into one report."""
    diagnostics: List[Diagnostic] = []
    for file_path, module in iter_modules(root):
        diagnostics.extend(
            lint_path(file_path, module, include_imports=include_imports)
        )
    if suppress_codes:
        diagnostics = suppress(diagnostics, suppress_codes)
    diagnostics.sort(
        key=lambda d: (
            d.path or "",
            d.span.line if d.span else 0,
            d.span.column if d.span else 0,
            d.code,
        )
    )
    return AnalysisReport(
        diagnostics=tuple(diagnostics),
        path=_display_path(root or default_root()),
    )


def _display_path(file_path: str) -> str:
    """Shorten absolute paths to be relative to the cwd when possible."""
    absolute = os.path.abspath(file_path)
    cwd = os.getcwd()
    if absolute.startswith(cwd + os.sep):
        return os.path.relpath(absolute, cwd)
    return absolute


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis.devlint [root]`` — ad-hoc entry."""
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    root = args[0] if args else None
    report = lint_self(root)
    print(report.render_text())
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
