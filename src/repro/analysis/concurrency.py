"""Static concurrency analyzer: the RV3xx band over Python sources.

The road to O4 (sharded, partition-parallel maintenance) runs through
discipline that today is enforced only by convention: every mutation of
MVCC-managed state records its pre-image inside an open epoch, commit
epochs move monotonically and are published by
:meth:`~repro.storage.mvcc.VersionManager.commit` alone, nothing blocks
while holding the writer lock, and the package layering keeps the
storage engine below the layers that observe it.  This module turns
those conventions into AST checks in the lockset/race-detector
tradition, reported through the standard diagnostics framework
(:mod:`repro.analysis.diagnostics`) as stable ``RV301``-``RV309`` codes
with spans, hints, and per-code suppression.

The checks are deliberately *publication-discipline* checks, not a
general race detector:

* **RV301** — a write to a relation's MVCC internals (``_rows`` /
  ``_versions`` / ``_pending``) outside the storage engine.  Writes to
  *freshly constructed* local objects are allowed (an object no other
  thread can see cannot tear), as are writes inside ``__init__``.
* **RV302** — a write to ``epoch`` / ``min_readable`` outside
  ``repro.storage.mvcc`` (same freshness/constructor exemptions).
* **RV303** — a blocking call (``os.fsync``, ``time.sleep``, ``open``,
  ``subprocess.*``, ...) inside a ``with <lock>:`` block.
* **RV304** — a bare ``.acquire()`` with no ``.release()`` in any
  ``finally`` of the same function.
* **RV305** — a module-scope import that breaks the package layering
  (function-scope imports are the sanctioned lazy seam; the
  metrics/trace/logging hook modules are importable from anywhere).
* **RV306** — an instance attribute written both under and outside the
  class's lock (``*_locked`` methods are assumed called under the
  lock, per the codebase convention).
* **RV307** — acquiring a second, different lock while one is held.
* **RV308** — a non-daemon ``threading.Thread`` the creating function
  never joins.
* **RV309** — a ``global`` rebinding at runtime (shared mutable state
  the lockset model cannot see).

:func:`check_source` runs the battery over one module;
:mod:`repro.analysis.devlint` walks the whole tree and adds the
import-hygiene pass (``RV220``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.datalog.ast import Span

__all__ = [
    "CONCURRENCY_CODES",
    "LAYERS",
    "SEAM_MODULES",
    "check_source",
]

#: Every code this analyzer can emit.
CONCURRENCY_CODES: Tuple[str, ...] = (
    "RV301", "RV302", "RV303", "RV304", "RV305",
    "RV306", "RV307", "RV308", "RV309",
)

#: Package layering inside ``repro``: an import is clean when the
#: imported package sits on a strictly lower layer (or is the same
#: package).  Root modules (``repro.cli``, ``repro.__init__``) sit on
#: top and are exempt as sources; unknown packages are exempt entirely.
LAYERS: Dict[str, int] = {
    "errors": 0,
    "datalog": 1,
    "storage": 2,
    "guard": 3,
    "resilience": 3,
    "eval": 4,
    "sql": 4,
    "workloads": 4,
    "core": 5,
    "analysis": 6,
    "obs": 6,
    "baselines": 6,
    "bench": 7,
    "orchestrator": 7,
}

#: Modules importable from any layer: the observability hook seams
#: (metrics counters, trace spans, log config) and the error hierarchy.
SEAM_MODULES: Set[str] = {
    "repro.errors",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.obs.logconfig",
}

#: Relation internals only the storage engine may touch (RV301).
_STORAGE_ATTRS = {"_rows", "_versions", "_pending"}
_STORAGE_ENGINE = {"repro.storage.relation", "repro.storage.mvcc"}

#: Epoch bookkeeping only the publication protocol may touch (RV302).
_EPOCH_ATTRS = {"epoch", "min_readable"}
_EPOCH_ENGINE = {"repro.storage.mvcc"}

#: Dotted call prefixes considered blocking under a lock (RV303).
_BLOCKING_CALLS = {
    "os.fsync": "fsync",
    "os.fdatasync": "fdatasync",
    "time.sleep": "sleep",
    "subprocess.run": "subprocess",
    "subprocess.Popen": "subprocess",
    "subprocess.check_call": "subprocess",
    "subprocess.check_output": "subprocess",
}


def _span(node: ast.AST) -> Span:
    return Span(node.lineno, node.col_offset + 1)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_lock_expr(node: ast.AST) -> Optional[str]:
    """The dotted lock expression when ``node`` looks like a lock."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    tail = dotted.rsplit(".", 1)[-1].lower()
    if "lock" in tail or tail in ("_cv", "condition"):
        return dotted
    return None


class _FunctionFacts:
    """What one function binds and does, for the freshness heuristic."""

    def __init__(self, node: ast.AST) -> None:
        #: Names bound from a call/comprehension/literal in this
        #: function: objects this function made, which no other thread
        #: can reach yet.
        self.fresh: Set[str] = set()
        self.has_release_in_finally = False
        self.joins: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child is not node:
                    continue
            if isinstance(child, ast.Assign):
                if _constructs(child.value):
                    for target in child.targets:
                        self._mark_fresh(target)
            elif isinstance(child, ast.withitem):
                if child.optional_vars is not None and _constructs(
                    child.context_expr
                ):
                    self._mark_fresh(child.optional_vars)
            elif isinstance(child, ast.Try):
                for stmt in child.finalbody:
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "release"
                        ):
                            self.has_release_in_finally = True
            elif isinstance(child, ast.Call):
                if (
                    isinstance(child.func, ast.Attribute)
                    and child.func.attr == "join"
                ):
                    base = _dotted(child.func.value)
                    if base is not None:
                        self.joins.add(base)

    def _mark_fresh(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.fresh.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mark_fresh(element)


def _constructs(value: ast.AST) -> bool:
    """True when ``value`` yields an object the assigner just made."""
    return isinstance(
        value,
        (
            ast.Call, ast.Dict, ast.List, ast.Set, ast.Tuple,
            ast.DictComp, ast.ListComp, ast.SetComp, ast.GeneratorExp,
            ast.Constant,
        ),
    )


def check_source(
    source: str,
    *,
    module: str = "",
    path: Optional[str] = None,
) -> List[Diagnostic]:
    """Run the RV3xx battery over one module's source text.

    ``module`` is the dotted module name (``repro.storage.mvcc``); it
    drives the engine-module allowlists and the layering rules.  Spans
    are 1-based source positions; ``path`` stamps every diagnostic for
    multi-file reports.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        span = Span(exc.lineno or 1, (exc.offset or 0) + 1)
        return [
            make_diagnostic(
                "RV000", f"cannot parse {module or path}: {exc.msg}",
                span=span, path=path,
            )
        ]
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_layering(tree, module, path))
    diagnostics.extend(_check_globals(tree, module, path))
    for func, klass in _functions(tree):
        diagnostics.extend(
            _check_function(func, klass, module, path)
        )
    for klass in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        diagnostics.extend(_check_lock_discipline(klass, module, path))
    diagnostics.sort(
        key=lambda d: (d.span.line if d.span else 0, d.code)
    )
    return diagnostics


# -------------------------------------------------------------- RV305 layering


def _check_layering(
    tree: ast.Module, module: str, path: Optional[str]
) -> List[Diagnostic]:
    if not module.startswith("repro."):
        return []
    parts = module.split(".")
    if len(parts) < 3:  # root modules (repro.cli, repro.errors) sit on top
        return []
    source_pkg = parts[1]
    source_level = LAYERS.get(source_pkg)
    if source_level is None:
        return []
    findings: List[Diagnostic] = []
    for node in tree.body:  # module scope only: lazy imports are seams
        targets: List[Tuple[str, ast.AST]] = []
        if isinstance(node, ast.Import):
            targets = [(alias.name, node) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [(node.module, node)]
        for target, at in targets:
            if not target.startswith("repro."):
                continue
            if target in SEAM_MODULES:
                continue
            target_parts = target.split(".")
            if len(target_parts) < 2:
                continue
            target_pkg = target_parts[1]
            if target_pkg == source_pkg:
                continue
            target_level = LAYERS.get(target_pkg)
            if target_level is None:
                continue
            if target_level >= source_level:
                findings.append(
                    make_diagnostic(
                        "RV305",
                        f"{module} (layer '{source_pkg}') imports "
                        f"{target} (layer '{target_pkg}') at module "
                        "scope: lower layers must not depend on higher "
                        "ones outside the hook seams",
                        span=_span(at),
                        path=path,
                        data={
                            "source": module,
                            "target": target,
                            "source_layer": source_pkg,
                            "target_layer": target_pkg,
                        },
                    )
                )
    return findings


# --------------------------------------------------------------- RV309 globals


def _check_globals(
    tree: ast.Module, module: str, path: Optional[str]
) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for func, _klass in _functions(tree):
        declared: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared.update(node.names)
        if not declared:
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared
                    ):
                        findings.append(
                            make_diagnostic(
                                "RV309",
                                f"{func.name}() rebinds module global "
                                f"{target.id!r} at runtime; parallel "
                                "workers would race the rebinding",
                                span=_span(target),
                                path=path,
                                data={"global": target.id},
                            )
                        )
    return findings


# ---------------------------------------------------------- per-function pass


def _functions(tree: ast.Module):
    """Yield ``(function, enclosing_class_or_None)`` pairs."""
    def walk(node: ast.AST, klass: Optional[ast.ClassDef]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, klass
                yield from walk(child, klass)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            else:
                yield from walk(child, klass)
    yield from walk(tree, None)


def _check_function(
    func: ast.AST,
    klass: Optional[ast.ClassDef],
    module: str,
    path: Optional[str],
) -> List[Diagnostic]:
    facts = _FunctionFacts(func)
    findings: List[Diagnostic] = []
    in_init = getattr(func, "name", "") in ("__init__", "__new__")

    def visit(node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func:
                return  # nested functions get their own pass
        if isinstance(node, ast.With):
            new_held = held
            for item in node.items:
                lock = _is_lock_expr(item.context_expr)
                if lock is not None:
                    if held and lock not in held:
                        findings.append(
                            make_diagnostic(
                                "RV307",
                                f"acquires {lock} while already "
                                f"holding {held[-1]}; inconsistent "
                                "multi-lock orders deadlock",
                                span=_span(item.context_expr),
                                path=path,
                                data={"outer": held[-1], "inner": lock},
                            )
                        )
                    new_held = new_held + (lock,)
            for child in node.body:
                visit(child, new_held)
            return
        if isinstance(node, ast.Call):
            _check_call(node, held)
        for target, value in _write_targets(node):
            _check_write(target, value)
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    def _check_call(node: ast.Call, held: Tuple[str, ...]) -> None:
        dotted = _dotted(node.func) or ""
        if held:
            label = _BLOCKING_CALLS.get(dotted)
            if label is None and dotted == "open":
                label = "open"
            if label is not None:
                findings.append(
                    make_diagnostic(
                        "RV303",
                        f"blocking call {dotted}() while holding "
                        f"{held[-1]}; readers and commits stall "
                        "behind it",
                        span=_span(node),
                        path=path,
                        data={"call": dotted, "lock": held[-1]},
                    )
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            base = _dotted(node.func.value) or "<lock>"
            if _is_lock_expr(node.func.value) is not None:
                if held:
                    findings.append(
                        make_diagnostic(
                            "RV307",
                            f"acquires {base} while already holding "
                            f"{held[-1]}; inconsistent multi-lock "
                            "orders deadlock",
                            span=_span(node),
                            path=path,
                            data={"outer": held[-1], "inner": base},
                        )
                    )
                if not facts.has_release_in_finally:
                    findings.append(
                        make_diagnostic(
                            "RV304",
                            f"{base}.acquire() with no release() in a "
                            "finally block: an exception here "
                            "deadlocks every later writer",
                            span=_span(node),
                            path=path,
                            data={"lock": base},
                        )
                    )
        if dotted in ("threading.Thread", "Thread"):
            daemon = any(
                keyword.arg == "daemon"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            )
            if not daemon and not facts.joins:
                findings.append(
                    make_diagnostic(
                        "RV308",
                        "non-daemon Thread created and never joined "
                        "in this function; it outlives interpreter "
                        "shutdown",
                        span=_span(node),
                        path=path,
                    )
                )

    def _check_write(target: ast.AST, value: Optional[ast.AST]) -> None:
        attr_node = target
        if isinstance(attr_node, ast.Subscript):
            attr_node = attr_node.value
        if not isinstance(attr_node, ast.Attribute):
            return
        attr = attr_node.attr
        base = _dotted(attr_node.value)
        if attr in _STORAGE_ATTRS:
            code, engine = "RV301", _STORAGE_ENGINE
        elif attr in _EPOCH_ATTRS:
            code, engine = "RV302", _EPOCH_ENGINE
        else:
            return
        if module in engine:
            return
        if in_init and base == "self":
            return  # the object under construction is not shared yet
        if base is not None and base.split(".", 1)[0] in facts.fresh:
            return  # freshly constructed local: no other thread sees it
        target_text = f"{base}.{attr}" if base else attr
        if code == "RV301":
            message = (
                f"writes {target_text} outside the storage engine: "
                "MVCC-managed state mutated without recording a "
                "pre-image tears concurrent snapshots"
            )
        else:
            message = (
                f"writes {target_text} outside "
                "repro.storage.mvcc: epochs are published atomically "
                "by VersionManager.commit() alone"
            )
        findings.append(
            make_diagnostic(
                code, message, span=_span(attr_node), path=path,
                data={"attribute": attr, "object": base or "?"},
            )
        )

    visit(func, ())
    return findings


def _write_targets(node: ast.AST):
    """Yield ``(target, value)`` pairs this statement writes."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from _flatten_target(target, node.value)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if getattr(node, "value", None) is not None or isinstance(
            node, ast.AugAssign
        ):
            yield from _flatten_target(node.target, getattr(node, "value", None))
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            yield from _flatten_target(target, None)


def _flatten_target(target: ast.AST, value: Optional[ast.AST]):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_target(element, value)
    else:
        yield target, value


# ------------------------------------------------------ RV306 lock discipline


def _check_lock_discipline(
    klass: ast.ClassDef, module: str, path: Optional[str]
) -> List[Diagnostic]:
    lock_attrs = _class_lock_attrs(klass)
    if not lock_attrs:
        return []
    guarded: Set[str] = set()
    unguarded: Dict[str, List[ast.Attribute]] = {}
    for node in klass.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in ("__init__", "__new__"):
            continue
        if node.name.endswith("_locked"):
            continue  # convention: callers hold the lock already

        def scan(stmt: ast.AST, held: bool) -> None:
            if isinstance(stmt, ast.With):
                now_held = held or any(
                    _is_self_lock(item.context_expr, lock_attrs)
                    for item in stmt.items
                )
                for child in stmt.body:
                    scan(child, now_held)
                return
            for target, _value in _write_targets(stmt):
                attr_node = target
                if isinstance(attr_node, ast.Subscript):
                    attr_node = attr_node.value
                if (
                    isinstance(attr_node, ast.Attribute)
                    and isinstance(attr_node.value, ast.Name)
                    and attr_node.value.id == "self"
                    and attr_node.attr not in lock_attrs
                ):
                    if held:
                        guarded.add(attr_node.attr)
                    else:
                        unguarded.setdefault(attr_node.attr, []).append(
                            attr_node
                        )
            for child in ast.iter_child_nodes(stmt):
                if not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    scan(child, held)

        for stmt in node.body:
            scan(stmt, False)
    findings: List[Diagnostic] = []
    for attr in sorted(set(guarded) & set(unguarded)):
        for site in unguarded[attr]:
            findings.append(
                make_diagnostic(
                    "RV306",
                    f"{klass.name}.{attr} is written under the class "
                    "lock elsewhere but unguarded here; the attribute "
                    "has no consistent lockset",
                    span=_span(site),
                    path=path,
                    data={"class": klass.name, "attribute": attr},
                )
            )
    return findings


def _class_lock_attrs(klass: ast.ClassDef) -> Set[str]:
    lock_attrs: Set[str] = set()
    for node in ast.walk(klass):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = _dotted(node.value.func) or ""
            if dotted in (
                "threading.Lock", "threading.RLock",
                "threading.Condition", "Lock", "RLock", "Condition",
            ):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        lock_attrs.add(target.attr)
    return lock_attrs


def _is_self_lock(expr: ast.AST, lock_attrs: Set[str]) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in lock_attrs
    )


# --------------------------------------------------------- RV220 import usage


def unused_imports(
    source: str, *, module: str = "", path: Optional[str] = None
) -> List[Diagnostic]:
    """The devlint import-hygiene pass (ruff F401 stand-in).

    ``__init__`` re-export modules are exempt when the name appears in
    ``__all__``; names referenced from string annotations or doc
    constants count as used (conservative: no false positives on
    quoted type names).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    imported: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                imported.setdefault(name, node)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                imported.setdefault(name, node)
    if not imported:
        return []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(
            node.ctx, ast.Store
        ):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if len(text) < 200:
                for part in text.replace(".", " ").replace("[", " ").split():
                    if part.isidentifier():
                        used.add(part)
    findings: List[Diagnostic] = []
    for name, node in sorted(
        imported.items(), key=lambda kv: kv[1].lineno
    ):
        if name in used or name == "_":
            continue
        findings.append(
            make_diagnostic(
                "RV220",
                f"{name!r} imported but unused",
                span=_span(node),
                path=path,
                data={"name": name, "module": module},
            )
        )
    return findings

