"""The diagnostics framework: stable codes, severities, spans, renderers.

Every finding the analyzer (or the engine itself) reports is a
:class:`Diagnostic` carrying a **stable code** (``RV001`` … — stable
means scripts and suppression lists can rely on it across releases), a
severity, a human message, and — whenever the AST carries one — a
source :class:`~repro.datalog.ast.Span` so tools can point at
``file:line:col``.

The full catalogue lives in :data:`CODES`; each entry records the paper
citation that justifies the check and a fix suggestion.  See
``docs/analysis.md`` for the rendered table.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.datalog.ast import Span


class Severity(enum.IntEnum):
    """Diagnostic severity; comparable (``ERROR > WARNING > INFO``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{[s.label for s in cls]}"
            ) from None


@dataclass(frozen=True)
class CodeInfo:
    """Catalogue entry for one stable diagnostic code."""

    code: str
    title: str
    severity: Severity
    paper: str  # the paper section/definition justifying the check
    hint: str   # a fix suggestion


def _codes(entries: Iterable[CodeInfo]) -> Dict[str, CodeInfo]:
    table: Dict[str, CodeInfo] = {}
    for entry in entries:
        if entry.code in table:
            raise ValueError(f"duplicate diagnostic code {entry.code}")
        table[entry.code] = entry
    return table


#: The stable code catalogue.  Codes are never renumbered; retired codes
#: are left reserved.  RV0xx = errors, RV1xx = program-shape warnings,
#: RV2xx = advisory (strategy/guard/DAG-spec/self-lint) findings,
#: RV3xx = concurrency discipline (static analyzer + runtime sanitizer).
CODES: Dict[str, CodeInfo] = _codes([
    CodeInfo(
        "RV000", "parse error", Severity.ERROR,
        "Section 3 (rule syntax)",
        "fix the syntax error at the reported position",
    ),
    CodeInfo(
        "RV001", "unbound head variable", Severity.ERROR,
        "Section 6.1 (safety / range restriction)",
        "bind every head variable in a positive body subgoal, or drop "
        "it from the head",
    ),
    CodeInfo(
        "RV002", "unsafe negation", Severity.ERROR,
        "Section 6.1, Cases 1-3 (safe Δ(¬q) requires bound variables)",
        "bind every variable of the negated subgoal in a positive "
        "subgoal of the same rule",
    ),
    CodeInfo(
        "RV003", "unsafe comparison", Severity.ERROR,
        "Section 6.1 (safety extended to comparison subgoals)",
        "bind the comparison's variables in a positive subgoal, or use "
        "'=' as an assignment from bound variables",
    ),
    CodeInfo(
        "RV004", "unsafe expression argument", Severity.ERROR,
        "Section 3 (heads may compute over bound variables only)",
        "bind the expression's variables in a positive subgoal",
    ),
    CodeInfo(
        "RV005", "non-ground fact", Severity.ERROR,
        "Section 3 (facts are ground atoms)",
        "replace the variables with constants, or give the rule a body",
    ),
    CodeInfo(
        "RV006", "aggregate variable leak", Severity.ERROR,
        "Section 6.2 (GROUPBY exports grouping variables + result only)",
        "use only the GROUPBY's grouping variables and result in the "
        "rest of the rule",
    ),
    CodeInfo(
        "RV007", "recursion through negation/aggregation", Severity.ERROR,
        "Definition 3.1 / Sections 6-7 (stratification)",
        "break the cycle so the negated/aggregated predicate sits in a "
        "strictly lower stratum",
    ),
    CodeInfo(
        "RV008", "counting on a recursive program", Severity.ERROR,
        "Sections 1 and 4 (counting applies to nonrecursive views)",
        "use strategy='dred' (or 'auto'), or see "
        "repro.core.recursive_counting for the bounded [GKM92] extension",
    ),
    CodeInfo(
        "RV009", "DRed under duplicate semantics", Severity.ERROR,
        "Section 7 (DRed is defined for set semantics)",
        "use semantics='set' with DRed, or counting for duplicate "
        "semantics",
    ),
    CodeInfo(
        "RV010", "schema error", Severity.ERROR,
        "standard deductive-database practice (consistent arities; "
        "base and derived predicates are disjoint)",
        "use each predicate with a single arity and do not define "
        "declared-base predicates by rules",
    ),
    CodeInfo(
        "RV101", "singleton variable", Severity.WARNING,
        "Section 3 (join variables carry the rule's meaning)",
        "if the column is intentionally unconstrained use '_', "
        "otherwise check for a typo in the variable name",
    ),
    CodeInfo(
        "RV102", "cartesian product body", Severity.WARNING,
        "Section 4 (delta rules join subgoals; disconnected subgoals "
        "multiply)",
        "share a variable between the disconnected subgoal groups, or "
        "split the rule into separate views",
    ),
    CodeInfo(
        "RV103", "duplicate subgoal", Severity.WARNING,
        "Section 5 (duplicate semantics: counts multiply per derivation)",
        "remove the repeated subgoal; under bag semantics it inflates "
        "stored derivation counts",
    ),
    CodeInfo(
        "RV104", "duplicate rule", Severity.WARNING,
        "Section 5 (each rule contributes derivations; duplicates "
        "double every count)",
        "remove the repeated rule",
    ),
    CodeInfo(
        "RV105", "non-incremental aggregate", Severity.WARNING,
        "Algorithm 6.1 (MIN/MAX deletions may recompute whole groups)",
        "expect group recomputation when deleting the current extreme; "
        "prefer COUNT/SUM/AVG where the workload deletes often",
    ),
    CodeInfo(
        "RV106", "predicate can never hold tuples", Severity.WARNING,
        "Definition 3.1 (least fixpoint: recursion needs a base case)",
        "add a non-recursive rule (base case) or remove the dead "
        "definition",
    ),
    CodeInfo(
        "RV107", "dead rule", Severity.WARNING,
        "Definition 3.1 (a rule over an always-empty predicate never "
        "fires)",
        "remove the rule or make its empty dependency derivable",
    ),
    CodeInfo(
        "RV108", "delta-rule fan-out", Severity.WARNING,
        "Definition 4.1 (an n-subgoal body yields n delta rules; the "
        "expansion form yields 2^n - 1 variants)",
        "split the rule into a chain of smaller views so each "
        "maintenance pass touches fewer delta variants",
    ),
    CodeInfo(
        "RV109", "undefined predicate", Severity.WARNING,
        "Section 3 (base predicates are declared; everything else needs "
        "rules)",
        "declare the predicate with 'base p/n.' or define it with rules",
    ),
    CodeInfo(
        "RV110", "unused base declaration", Severity.INFO,
        "Section 3",
        "remove the unused 'base' declaration, or reference the "
        "relation from a rule",
    ),
    CodeInfo(
        "RV201", "strategy recommendation", Severity.INFO,
        "Section 1 (counting for nonrecursive views, DRed for recursive)",
        "pass strategy='auto' to ViewMaintainer to apply this dispatch "
        "automatically",
    ),
    CodeInfo(
        "RV202", "guard budget risk", Severity.WARNING,
        "Definition 4.1 (the delta-rule count bounds what one pass "
        "meters against the rule-firing budget)",
        "raise the guard budget, or split high fan-out rules before "
        "they trip it",
    ),
    CodeInfo(
        "RV203", "backward/forward recommendation", Severity.INFO,
        "Hu, Motik & Horrocks, Optimised Maintenance of Datalog "
        "Materialisations (check backward for alternative derivations "
        "before deleting; propagate only genuine deletions forward)",
        "keep strategy='auto' (or force strategy='bf'): the B/F "
        "backward check avoids DRed's overdeletion on views with many "
        "alternative derivations",
    ),
    CodeInfo(
        "RV210", "DAG spec cycle", Severity.ERROR,
        "Section 1 (views over views must form a DAG; "
        "docs/orchestration.md)",
        "break the cycle: no node may (transitively) consume a view "
        "exported by one of its own consumers",
    ),
    CodeInfo(
        "RV211", "unknown source relation", Severity.WARNING,
        "Section 2 (maintenance reacts to base-relation changes; only "
        "declared sources are ingestible)",
        "add the relation to the spec's \"sources\" list, or fix the "
        "predicate name in the node's program",
    ),
    CodeInfo(
        "RV212", "DOWNSTREAM lag with no consumer", Severity.WARNING,
        "dynamic-table lag model (DOWNSTREAM inherits the tightest "
        "consumer lag; docs/orchestration.md)",
        "give the sink node a numeric target_lag, or null for an "
        "explicitly on-demand node — DOWNSTREAM on a node nobody "
        "consumes silently resolves to on-demand",
    ),
    CodeInfo(
        "RV220", "unused import", Severity.WARNING,
        "codebase hygiene (ruff F401; make lint-strict)",
        "remove the unused import, or reference it in __all__ if it "
        "is a deliberate re-export",
    ),
    CodeInfo(
        "RV301", "unversioned write to MVCC-managed state", Severity.ERROR,
        "Section 2 / PR 6 (every mutation must record its pre-image "
        "before the epoch publishes, or snapshots tear)",
        "mutate through the relation's public API (add/merge/"
        "set_count/replace_rows) inside a begin()/commit() epoch; "
        "never poke _rows/_versions/_pending from outside the storage "
        "engine",
    ),
    CodeInfo(
        "RV302", "epoch mutation outside the publication protocol",
        Severity.ERROR,
        "PR 6 (commit epochs are monotonic and published atomically by "
        "VersionManager.commit alone)",
        "go through VersionManager.commit()/restore_epoch(); writing "
        "epoch or min_readable anywhere else can publish a torn or "
        "non-monotonic epoch",
    ),
    CodeInfo(
        "RV303", "blocking call under a held lock", Severity.WARNING,
        "lockset discipline (fsync/sleep/IO under the writer lock "
        "stalls every reader pin and the commit path)",
        "move the blocking call (fsync, sleep, open, join, subprocess) "
        "outside the with-lock block; compute under the lock, publish "
        "outside",
    ),
    CodeInfo(
        "RV304", "lock acquired without guaranteed release",
        Severity.ERROR,
        "lockset discipline (an exception between acquire and release "
        "deadlocks every later writer)",
        "use 'with lock:' instead of bare acquire(), or pair the "
        "acquire with a release() in a finally block",
    ),
    CodeInfo(
        "RV305", "layering violation", Severity.WARNING,
        "architecture layering (core must not depend on obs except "
        "through the metrics/trace hook seams; see docs/analysis.md)",
        "import the lower layer instead, move the import into the "
        "function that needs it (a sanctioned lazy seam), or move the "
        "code to the layer it belongs to",
    ),
    CodeInfo(
        "RV306", "inconsistent lock discipline on shared attribute",
        Severity.WARNING,
        "lockset analysis (RacerD-style: an attribute written both "
        "with and without the class lock has no consistent guard)",
        "take the lock on every write of the attribute, or rename the "
        "unguarded writer with a _locked suffix if its callers already "
        "hold the lock",
    ),
    CodeInfo(
        "RV307", "nested lock acquisition", Severity.WARNING,
        "lockset analysis (two locks taken in inconsistent orders "
        "deadlock under contention)",
        "restructure so each code path holds at most one lock, or "
        "document and enforce a global acquisition order",
    ),
    CodeInfo(
        "RV308", "non-daemon thread never joined", Severity.INFO,
        "thread lifecycle (a leaked non-daemon thread blocks "
        "interpreter shutdown)",
        "pass daemon=True for background workers, or join() the "
        "thread on the shutdown path",
    ),
    CodeInfo(
        "RV309", "module global rebound at runtime", Severity.INFO,
        "shared-state inventory ('global X' rebinding is invisible to "
        "the lockset model; O4 workers would race it)",
        "guard the rebinding with a lock, or confine the mutable "
        "state to an object the caller owns",
    ),
])


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``code`` indexes :data:`CODES`; ``severity`` defaults to the
    catalogue severity but may be escalated/demoted by the caller.
    ``rule`` is the rendered source rule the finding is about (when
    rule-scoped), ``predicate`` the predicate it concerns, and ``span``
    the 1-based source position (``None`` for programs built
    programmatically, whose AST carries no spans).  ``path`` pins the
    finding to its own file — set by multi-file reports (devlint),
    where one document spans many sources; single-program reports
    leave it ``None`` and pass the path at render time.
    """

    code: str
    message: str
    severity: Severity
    span: Optional[Span] = None
    rule: Optional[str] = None
    predicate: Optional[str] = None
    #: Extra structured payload (e.g. the offending cycle for RV007/RV008).
    data: Dict[str, object] = field(default_factory=dict)
    path: Optional[str] = None

    @property
    def info(self) -> CodeInfo:
        return CODES[self.code]

    @property
    def hint(self) -> str:
        return self.info.hint

    @property
    def paper(self) -> str:
        return self.info.paper

    def location(self, path: Optional[str] = None) -> str:
        """``file:line:col`` (or as much of it as is known)."""
        parts = []
        effective = self.path if self.path is not None else path
        if effective:
            parts.append(effective)
        if self.span is not None:
            parts.append(str(self.span))
        return ":".join(parts)

    def to_dict(self, path: Optional[str] = None) -> Dict[str, object]:
        out: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "title": self.info.title,
            "paper": self.paper,
            "hint": self.hint,
            "line": self.span.line if self.span else None,
            "column": self.span.column if self.span else None,
            "rule": self.rule,
            "predicate": self.predicate,
        }
        if self.path is not None:
            out["path"] = self.path
        elif path is not None:
            out["path"] = path
        if self.data:
            out["data"] = {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.data.items()
            }
        return out


def make_diagnostic(
    code: str,
    message: str,
    *,
    severity: Optional[Severity] = None,
    span: Optional[Span] = None,
    rule: Optional[object] = None,
    predicate: Optional[str] = None,
    data: Optional[Dict[str, object]] = None,
    path: Optional[str] = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the catalogue."""
    info = CODES[code]
    return Diagnostic(
        code=code,
        message=message,
        severity=severity if severity is not None else info.severity,
        span=span,
        rule=str(rule) if rule is not None else None,
        predicate=predicate,
        data=dict(data) if data else {},
        path=path,
    )


# ------------------------------------------------------------------ filtering


def suppress(
    diagnostics: Sequence[Diagnostic], codes: Iterable[str]
) -> List[Diagnostic]:
    """Drop diagnostics whose code is in ``codes`` (per-code suppression)."""
    dropped = {code.strip().upper() for code in codes if code.strip()}
    return [d for d in diagnostics if d.code not in dropped]


def max_severity(diagnostics: Sequence[Diagnostic]) -> Optional[Severity]:
    """The highest severity present, or ``None`` when the list is empty."""
    return max((d.severity for d in diagnostics), default=None)


def count_by_severity(diagnostics: Sequence[Diagnostic]) -> Dict[str, int]:
    counts = {severity.label + "s": 0 for severity in Severity}
    for diagnostic in diagnostics:
        counts[diagnostic.severity.label + "s"] += 1
    return counts


# ----------------------------------------------------------------- validation


#: JSON-document schema (version 1): required top-level keys and the
#: per-diagnostic required keys with their allowed types.  Kept as data
#: so tools (and the tests) can validate without jsonschema.
DOCUMENT_KEYS = {
    "version": int,
    "path": (str, type(None)),
    "diagnostics": list,
    "summary": dict,
}
DIAGNOSTIC_KEYS = {
    "code": str,
    "severity": str,
    "message": str,
    "title": str,
    "paper": str,
    "hint": str,
    "line": (int, type(None)),
    "column": (int, type(None)),
    "rule": (str, type(None)),
    "predicate": (str, type(None)),
}


def validate_document(document: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``document`` matches the v1 schema.

    The dependency-free stand-in for a JSON-Schema check: every required
    key present with the right type, every diagnostic code in the
    catalogue, severities legal, and the summary consistent with the
    diagnostics list.
    """
    for key, types in DOCUMENT_KEYS.items():
        if key not in document:
            raise ValueError(f"lint document missing key {key!r}")
        if not isinstance(document[key], types):
            raise ValueError(
                f"lint document key {key!r} has type "
                f"{type(document[key]).__name__}"
            )
    if document["version"] != 1:
        raise ValueError(f"unknown document version {document['version']!r}")
    labels = {severity.label for severity in Severity}
    for entry in document["diagnostics"]:
        if not isinstance(entry, dict):
            raise ValueError("diagnostic entries must be objects")
        for key, types in DIAGNOSTIC_KEYS.items():
            if key not in entry:
                raise ValueError(f"diagnostic missing key {key!r}")
            if not isinstance(entry[key], types):
                raise ValueError(
                    f"diagnostic key {key!r} has type "
                    f"{type(entry[key]).__name__}"
                )
        if entry["code"] not in CODES:
            raise ValueError(f"unknown diagnostic code {entry['code']!r}")
        if entry["severity"] not in labels:
            raise ValueError(f"unknown severity {entry['severity']!r}")
    summary = document["summary"]
    for severity in Severity:
        expected = sum(
            1
            for entry in document["diagnostics"]
            if entry["severity"] == severity.label
        )
        if summary.get(severity.label + "s") != expected:
            raise ValueError(
                f"summary[{severity.label}s] disagrees with the "
                "diagnostics list"
            )


# ------------------------------------------------------------------ rendering


def render_text(
    diagnostics: Sequence[Diagnostic],
    path: Optional[str] = None,
    *,
    show_hints: bool = True,
) -> str:
    """GCC-style one-line-per-finding rendering, hints indented below."""
    lines: List[str] = []
    for diagnostic in diagnostics:
        location = diagnostic.location(path)
        prefix = f"{location}: " if location else ""
        lines.append(
            f"{prefix}{diagnostic.severity.label}[{diagnostic.code}]: "
            f"{diagnostic.message}"
        )
        if show_hints and diagnostic.hint:
            lines.append(f"    hint: {diagnostic.hint} [{diagnostic.paper}]")
    return "\n".join(lines)


def render_json(
    diagnostics: Sequence[Diagnostic],
    path: Optional[str] = None,
    *,
    extra: Optional[Dict[str, object]] = None,
    indent: Optional[int] = 2,
) -> str:
    """One self-contained JSON document (schema: see docs/analysis.md)."""
    document: Dict[str, object] = {
        "version": 1,
        "path": path,
        "diagnostics": [d.to_dict() for d in diagnostics],
        "summary": count_by_severity(diagnostics),
    }
    if extra:
        document.update(extra)
    return json.dumps(document, indent=indent, sort_keys=True, default=str)
