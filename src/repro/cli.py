"""Interactive shell for maintained views.

``python -m repro PROGRAM.dl`` loads a Datalog program, materializes its
views, and then maintains them live while you type updates::

    $ python -m repro views.dl
    repro> + link(a, b)
    repro> - link(b, c)
    repro> commit
    maintained 2 change(s) in 0.4 ms [counting]
    repro> show hop
    hop('a', 'c')  ×2
    repro> check
    consistent with recomputation ✔

Ground facts in the program file whose predicate has no proper rules are
loaded as base data, so a single file can carry both schema and seed
rows.  ``--data snapshot.json`` loads base relations saved with
:func:`repro.storage.serialize.save_database`; ``save <path>`` writes
one back.

The shell is a thin, testable layer: :class:`Shell` consumes command
strings and returns output strings; ``main`` wires it to argv/stdin.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional, Tuple

from repro.analysis import Severity, analyze
from repro.core.maintenance import ViewMaintainer
from repro.datalog.ast import Program, Rule
from repro.datalog.parser import parse_program, parse_rule
from repro.errors import DivergenceError, ReproError
from repro.guard import GuardPolicy, MaintenanceBudget
from repro.obs import (
    JsonlSink,
    RingSink,
    TeeSink,
    Tracer,
    configure_logging,
    get_default_registry,
    pass_tree,
    render_pass,
)
from repro.obs.health import HealthEngine, JsonlAlertSink, LogAlertSink, load_slos
from repro.obs.profiler import ContinuousProfiler, render_profile
from repro.obs.top import ANSI_CLEAR, top_frame
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.journal import Journal
from repro.storage.serialize import load_database, load_snapshot, save_database

HELP = """\
commands:
  + p(v, ...)     stage an insertion into base relation p
  - p(v, ...)     stage a deletion from base relation p
  commit          apply staged changes and maintain all views
  discard         drop staged changes
  show NAME       print a relation (view or base) with counts
  ? BODY          run an ad-hoc query, e.g.  ? hop(a, X), not link(a, X)
  why NAME(v,..)  explain a view tuple (one derivation tree)
  views           list maintained views
  rules           print the current program
  explain         print the Definition 4.1 delta rules
  alter + RULE.   add a rule (maintained incrementally)
  alter - RULE.   remove a rule
  snapshot NAME   read a relation at the last committed epoch (MVCC)
  check           verify views against recomputation
  heal            verify and rebuild any diverged views in place
  checkpoint      write the snapshot (journal mode) and prune the log
  quarantine      list quarantined (poison) changesets
  quarantine requeue [ID]  re-apply quarantined changesets
  quarantine purge         drop all quarantined changesets
  status          journal/checkpoint/guard/dead-letter health summary
  status --json   the same, as a JSON document
  health          SLO compliance, error budgets, active burn alerts
  profile [NAME]  rolling p50/p95/p99 per (view, strategy, phase)
  top             ANSI dashboard frame (clears screen; rerun per pass)
  top --once      the same frame, plain text, no screen clear
  metrics         engine metrics, Prometheus text format (also --prom)
  metrics --json  engine metrics as a JSON snapshot
  trace           flame-style breakdown of the most recent pass
  trace tail N    last N raw trace events
  trace dump PATH write the trace buffer as JSONL to PATH
  explain NAME(v,..)  support tree + count check for one view tuple
  explain pass    same as 'trace'
  lint            run the static analyzer over the loaded program
  save PATH       save base relations as a JSON snapshot
  help            this text
  quit            exit
"""


def parse_ground_atom(text: str) -> Tuple[str, tuple]:
    """Parse ``p(a, b)`` into ``("p", ("a", "b"))``; rejects variables."""
    text = text.strip()
    if not text.endswith("."):
        text += "."
    fact = parse_rule(text)
    if not fact.is_fact or fact.head.variables():
        raise ReproError(f"expected a ground fact, got {text!r}")
    row = tuple(arg.evaluate({}) for arg in fact.head.args)
    return fact.head.predicate, row


def split_program(program: Program) -> Tuple[Program, List[Rule]]:
    """Separate seed facts from proper rules.

    A ground fact whose predicate has no non-fact rule is treated as
    base data; everything else stays in the program.
    """
    fact_predicates = {
        rule.head.predicate for rule in program if rule.is_fact
    }
    rule_predicates = {
        rule.head.predicate for rule in program if not rule.is_fact
    }
    seed_predicates = fact_predicates - rule_predicates
    facts = [
        rule for rule in program if rule.head.predicate in seed_predicates
    ]
    rules = [
        rule for rule in program if rule.head.predicate not in seed_predicates
    ]
    base = tuple(program.edb_predicates | seed_predicates)
    return Program(rules, base), facts


class Shell:
    """One interactive session over a maintained database."""

    def __init__(
        self,
        source: str,
        database: Optional[Database] = None,
        strategy: str = "auto",
        semantics: str = "set",
        journal: Optional[Journal] = None,
        snapshot_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        skip_seed_facts: bool = False,
        plan_cache: bool = True,
        trace_path: Optional[str] = None,
        guard: Optional[GuardPolicy] = None,
        slos=None,
        alerts_path: Optional[str] = None,
        profile: bool = False,
        ring_capacity: int = 2048,
    ) -> None:
        program, facts = split_program(parse_program(source))
        self.database = database if database is not None else Database()
        if not skip_seed_facts:
            for fact in facts:
                row = tuple(arg.evaluate({}) for arg in fact.head.args)
                self.database.insert(fact.head.predicate, row)
        # Every session keeps a span ring buffer for 'trace' / 'explain
        # pass'; --trace additionally streams the events to a JSONL log.
        self.ring = RingSink(ring_capacity)
        sink = (
            TeeSink([self.ring, JsonlSink(trace_path)])
            if trace_path
            else self.ring
        )
        self.tracer = Tracer(sink)
        self.metrics = get_default_registry()
        # Health layer: --slo PATH declares per-view objectives; alerts
        # always reach the structured log, plus a JSONL file when
        # --alerts is given.  --profile turns on the rolling profiler.
        health = None
        if slos is not None:
            alert_sinks: List[object] = [LogAlertSink()]
            if alerts_path:
                alert_sinks.append(JsonlAlertSink(alerts_path))
            health = HealthEngine(
                load_slos(slos), metrics=self.metrics, sinks=alert_sinks
            )
        self.maintainer = ViewMaintainer(
            program,
            self.database,
            strategy=strategy,
            semantics=semantics,
            plan_cache=plan_cache,
            tracer=self.tracer,
            metrics=self.metrics,
            guard=guard,
            health=health,
            profiler=ContinuousProfiler() if profile else None,
        ).initialize()
        if journal is not None:
            self.maintainer.attach_journal(
                journal,
                snapshot_path=snapshot_path,
                checkpoint_every=checkpoint_every,
            )
        self.pending = Changeset()
        self.done = False

    @classmethod
    def recovered(
        cls,
        source: str,
        snapshot_path: str,
        journal: Journal,
        strategy: str = "auto",
        semantics: str = "set",
        checkpoint_every: Optional[int] = None,
        trace_path: Optional[str] = None,
        guard: Optional[GuardPolicy] = None,
        slos=None,
        alerts_path: Optional[str] = None,
        profile: bool = False,
    ) -> "Shell":
        """Rebuild a session from snapshot + journal and keep journaling.

        Seed facts in the program file are skipped — the snapshot already
        contains them (re-adding would double-count under duplicate
        semantics); the journal suffix after the snapshot's watermark is
        replayed through full maintenance.  Like
        :func:`repro.storage.journal.recover`, the commit epoch is
        restored from the last replayed entry so post-recovery commits
        continue the pre-crash numbering.
        """
        database, watermark = load_snapshot(snapshot_path)
        shell = cls(
            source,
            database,
            strategy=strategy,
            semantics=semantics,
            skip_seed_facts=True,
            trace_path=trace_path,
            guard=guard,
            slos=slos,
            alerts_path=alerts_path,
            profile=profile,
        )
        last_epoch = None
        for _seq, epoch, changes in journal.replay_entries(after=watermark):
            shell.maintainer.apply(changes)
            if epoch is not None:
                last_epoch = epoch
        if last_epoch is not None and database.mvcc is not None:
            database.mvcc.restore_epoch(last_epoch)
        shell.maintainer.attach_journal(
            journal,
            snapshot_path=snapshot_path,
            checkpoint_every=checkpoint_every,
        )
        return shell

    # ------------------------------------------------------------- dispatch

    def execute(self, line: str) -> str:
        """Run one command line; returns the text to display."""
        line = line.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            return ""
        try:
            return self._dispatch(line)
        except ReproError as exc:
            return f"error: {exc}"

    def _dispatch(self, line: str) -> str:
        if line in ("quit", "exit"):
            self.done = True
            return "bye"
        if line == "help":
            return HELP
        if line.startswith("+ "):
            return self._stage(line[2:], insert=True)
        if line.startswith("- "):
            return self._stage(line[2:], insert=False)
        if line == "commit":
            return self._commit()
        if line == "discard":
            self.pending = Changeset()
            return "staged changes discarded"
        if line.startswith("show "):
            return self._show(line[5:].strip())
        if line.startswith("snapshot "):
            return self._snapshot(line[len("snapshot "):].strip())
        if line.startswith("? "):
            return self._query(line[2:].strip())
        if line.startswith("why "):
            return self._why(line[4:].strip())
        if line == "views":
            return "\n".join(self.maintainer.view_names()) or "(no views)"
        if line == "rules":
            return str(self.maintainer.program)
        if line == "explain":
            return self.maintainer.delta_program()
        if line == "explain pass":
            return self._trace_flame()
        if line.startswith("explain "):
            return self._explain(line[len("explain "):].strip())
        if line in ("metrics", "metrics --prom"):
            return self.metrics.to_prometheus() or "(no metrics recorded)"
        if line == "metrics --json":
            return self.metrics.to_json()
        if line == "trace":
            return self._trace_flame()
        if line.startswith("trace tail"):
            return self._trace_tail(line[len("trace tail"):].strip())
        if line.startswith("trace dump "):
            return self._trace_dump(line[len("trace dump "):].strip())
        if line.startswith("alter + "):
            report = self.maintainer.alter(add=[line[len("alter + "):]])
            return f"rule added; {report.total_changes()} view change(s)"
        if line.startswith("alter - "):
            report = self.maintainer.alter(remove=[line[len("alter - "):]])
            return f"rule removed; {report.total_changes()} view change(s)"
        if line == "lint":
            return analyze(self.maintainer).render_text()
        if line == "check":
            self.maintainer.consistency_check()
            return "consistent with recomputation ✔"
        if line == "heal":
            report = self.maintainer.heal()
            return report.summary()
        if line == "checkpoint":
            watermark = self.maintainer.checkpoint()
            return f"checkpoint written (journal watermark {watermark})"
        if line == "quarantine":
            return self._quarantine_list()
        if line == "quarantine purge":
            return self._quarantine_purge()
        if line.startswith("quarantine requeue"):
            return self._quarantine_requeue(
                line[len("quarantine requeue"):].strip()
            )
        if line == "status":
            return self._status()
        if line == "status --json":
            return json.dumps(self._status_dict(), indent=2, sort_keys=True)
        if line == "health":
            return self._health()
        if line == "profile" or line.startswith("profile "):
            return self._profile(line[len("profile"):].strip())
        if line in ("top", "top --once"):
            return self._top(once=line.endswith("--once"))
        if line.startswith("save "):
            save_database(self.database, line[5:].strip())
            return "saved"
        return f"unknown command: {line!r} (try 'help')"

    # ------------------------------------------------------------- commands

    def _parse_ground_atom(self, text: str) -> Tuple[str, tuple]:
        return parse_ground_atom(text)

    def _stage(self, text: str, insert: bool) -> str:
        predicate, row = self._parse_ground_atom(text)
        if insert:
            self.pending.insert(predicate, row)
            return f"staged: insert {predicate}{row}"
        self.pending.delete(predicate, row)
        return f"staged: delete {predicate}{row}"

    def _commit(self) -> str:
        if self.pending.is_empty():
            return "nothing staged"
        report = self.maintainer.apply(self.pending)
        self.pending = Changeset()
        return (
            f"maintained {report.total_changes()} change(s) in "
            f"{report.seconds * 1e3:.1f} ms [{report.strategy}]"
        )

    def _query(self, body: str) -> str:
        results = self.maintainer.query(body)
        if not results:
            return "no solutions"
        if results == [{}]:
            return "yes"
        variables = sorted(results[0])
        lines = []
        for result in results:
            cells = ", ".join(f"{v} = {result[v]!r}" for v in variables)
            lines.append(f"  {cells}")
        return f"{len(results)} solution(s):\n" + "\n".join(lines)

    def _quarantine_list(self) -> str:
        queue = self.maintainer.quarantine
        if queue is None:
            return "quarantine: not configured (pass --quarantine PATH)"
        entries = queue.entries()
        if not entries:
            return "quarantine is empty"
        lines = []
        for entry in entries:
            deltas = entry.get("changes", {}).get("deltas", {})
            relations = ", ".join(sorted(deltas)) or "(empty)"
            lines.append(
                f"#{entry['id']}  reason={entry['reason']}  "
                f"relations=[{relations}]  error: {entry.get('error')}"
            )
        return "\n".join(lines)

    def _quarantine_requeue(self, arg: str) -> str:
        entry_id: Optional[int] = None
        if arg:
            try:
                entry_id = int(arg)
            except ValueError:
                return f"error: quarantine requeue expects an id, got {arg!r}"
        reports = self.maintainer.requeue_quarantined(entry_id)
        if not reports:
            return "nothing to requeue"
        applied = sum(1 for r in reports if r.strategy != "quarantined")
        requarantined = len(reports) - applied
        text = f"requeued {len(reports)} changeset(s): {applied} applied"
        if requarantined:
            text += f", {requarantined} re-quarantined (still poison)"
        return text

    def _quarantine_purge(self) -> str:
        dropped = self.maintainer.purge_quarantined()
        return f"purged {dropped} quarantined changeset(s)"

    def _why(self, text: str) -> str:
        predicate, row = self._parse_ground_atom(text)
        tree = self.maintainer.explain_tree(predicate, row)
        if tree is None:
            return f"{predicate}{row} is not in the view"
        return tree.render()

    def _status(self) -> str:
        maintainer = self.maintainer
        lines = [
            f"strategy: {maintainer.strategy}  semantics: {maintainer.semantics}",
            f"passes applied: {maintainer.lifetime.passes} "
            f"({maintainer.lifetime.tuples_changed} view tuples changed)",
        ]
        if maintainer._journal is not None:
            lines.append(
                f"journal: attached, last seq {len(maintainer._journal)}, "
                f"watermark {maintainer.watermark}"
            )
        else:
            lines.append("journal: not attached")
        mvcc = maintainer.database.mvcc
        if mvcc is not None:
            info = mvcc.to_dict()
            oldest = info["oldest_pinned"]
            lines.append(
                f"mvcc: epoch {info['epoch']}, "
                f"{info['active_snapshots']} pinned snapshot(s)"
                + (f" (oldest epoch {oldest})" if oldest is not None else "")
                + f", {info['retained_versions']} retained version(s)"
            )
        if maintainer.checkpoint_errors:
            lines.append(
                f"checkpoint errors: {len(maintainer.checkpoint_errors)} "
                f"(last: {maintainer.checkpoint_errors[-1]})"
            )
        if maintainer.dead_letters:
            lines.append(
                f"dead-lettered notifications: {len(maintainer.dead_letters)}"
            )
        guard = maintainer.guard
        if guard.active:
            info = guard.to_dict()
            lines.append(
                f"guard: breaker {info['breaker']}, "
                f"{info['breaches_total']} breach(es), "
                f"{info['fallback_passes']} fallback / "
                f"{info['skipped_passes']} skipped pass(es)"
            )
            if info["quarantine"] is not None:
                lines.append(
                    f"quarantine: {info['quarantine']['depth']} entries "
                    f"at {info['quarantine']['path']}"
                )
            lag = maintainer.lag()
            if lag["changesets"]:
                lines.append(
                    f"staleness: views lag the stream by "
                    f"{lag['changesets']} changeset(s) "
                    f"(~{lag['seconds']:.1f}s)"
                )
        if maintainer.health is not None:
            engine = maintainer.health
            lines.append(
                f"health: {len(engine.slos)} SLO(s), "
                f"{engine.alerts_active()} alert(s) active "
                f"(see 'health')"
            )
        stats = maintainer.stats
        cache = maintainer.plan_cache
        if cache is None:
            lines.append("plan cache: disabled")
        else:
            # Read the live cache, not the per-pass stats snapshot —
            # alter() moves the counters without running a pass.
            lines.append(
                f"plan cache: {len(cache)} entries, "
                f"{cache.hits} hits / {cache.misses} misses "
                f"(hit rate {cache.hit_rate():.0%}), "
                f"{cache.invalidations} invalidated, "
                f"{cache.index_probes} index probes"
            )
        if stats.phase_seconds:
            phases = "  ".join(
                f"{phase}={seconds * 1e3:.2f}ms"
                for phase, seconds in sorted(stats.phase_seconds.items())
            )
            lines.append(f"maintenance phases (cumulative): {phases}")
        try:
            maintainer.consistency_check()
            lines.append("views: consistent with recomputation ✔")
        except DivergenceError as exc:
            lines.append(f"views: DIVERGED — {exc} (run 'heal')")
        return "\n".join(lines)

    def _status_dict(self) -> dict:
        maintainer = self.maintainer
        status = {
            "strategy": maintainer.strategy,
            "semantics": maintainer.semantics,
            "lifetime": maintainer.lifetime.to_dict(),
            "last_pass": maintainer.stats.to_dict(),
            "journal": (
                {
                    "attached": True,
                    "last_seq": len(maintainer._journal),
                    "watermark": maintainer.watermark,
                }
                if maintainer._journal is not None
                else {"attached": False}
            ),
            "checkpoint_errors": len(maintainer.checkpoint_errors),
            "dead_letters": len(maintainer.dead_letters),
            "staged_insertions": self.pending.insertion_count(),
            "staged_deletions": self.pending.deletion_count(),
            "guard": maintainer.guard.to_dict(),
        }
        status["health"] = {
            "slo": (
                maintainer.health.to_dict()
                if maintainer.health is not None
                else {"enabled": False}
            ),
            "profiler": (
                maintainer.profiler.summary()
                if maintainer.profiler is not None
                else {"enabled": False}
            ),
        }
        mvcc = maintainer.database.mvcc
        if mvcc is not None:
            status["mvcc"] = mvcc.to_dict()
        lag = maintainer.lag()
        status["lag"] = dict(
            lag,
            views={name: dict(lag) for name in maintainer.view_names()},
        )
        cache = maintainer.plan_cache
        if cache is not None:
            status["plan_cache"] = {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_ratio": cache.hit_rate(),
                "invalidations": cache.invalidations,
                "index_probes": cache.index_probes,
            }
        try:
            maintainer.consistency_check()
            status["consistent"] = True
        except DivergenceError as exc:
            status["consistent"] = False
            status["divergence"] = str(exc)
        return status

    def _explain(self, text: str) -> str:
        predicate, row = self._parse_ground_atom(text)
        return self.maintainer.explain(predicate, row)

    def _trace_flame(self) -> str:
        return render_pass(pass_tree(list(self.ring.events)))

    def _trace_tail(self, arg: str) -> str:
        count = 20
        if arg:
            try:
                count = int(arg)
            except ValueError:
                return f"error: trace tail expects a number, got {arg!r}"
        events = self.ring.tail(count)
        if not events:
            return "trace buffer is empty (commit something first)"
        lines = []
        if self.ring.truncated:
            # The ring has wrapped: the tail is NOT the whole history.
            # Surface that as a machine-readable first line rather than
            # silently presenting a partial log as complete.
            lines.append(
                json.dumps(
                    {"truncated": True, "dropped": self.ring.dropped},
                    sort_keys=True,
                )
            )
        lines.extend(
            json.dumps(event, sort_keys=True, default=str)
            for event in events
        )
        return "\n".join(lines)

    def _health(self) -> str:
        engine = self.maintainer.health
        if engine is None:
            return "health: no SLOs configured (pass --slo SPEC.json)"
        lines = [
            f"{engine.passes_evaluated} pass(es) evaluated against "
            f"{len(engine.slos)} SLO(s); "
            f"{engine.alerts_active()} alert(s) active "
            f"({engine.alerts_fired} fired / {engine.alerts_cleared} "
            f"cleared)"
        ]
        for state in engine.states():
            marker = "ALERT" if state["alerting"] else "ok"
            lines.append(
                f"  [{marker}] {state['view']}/{state['objective']}: "
                f"last={state['last_value']:.3g} target={state['target']:g} "
                f"good={state['good_fraction']:.0%} "
                f"burn fast/slow={state['burn_rate_fast']:.1f}/"
                f"{state['burn_rate_slow']:.1f} "
                f"budget left={state['budget_remaining']:.0%}"
            )
        return "\n".join(lines)

    def _profile(self, arg: str) -> str:
        profiler = self.maintainer.profiler
        if profiler is None:
            return "profile: profiler disabled (pass --profile)"
        if arg == "--json":
            return json.dumps(profiler.report(), indent=2, sort_keys=True)
        view = arg or None
        return render_profile(
            profiler, view=view, ring_events=list(self.ring.events)
        )

    def _top(self, once: bool) -> str:
        frame = top_frame(
            self.maintainer, pending=self.pending, color=not once
        )
        return frame if once else ANSI_CLEAR + frame

    def _trace_dump(self, path: str) -> str:
        events = list(self.ring.events)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True, default=str))
                handle.write("\n")
        return f"wrote {len(events)} trace event(s) to {path}"

    def _show(self, name: str) -> str:
        relation = self.maintainer.relation(name)
        if not relation:
            return f"{name} is empty"
        lines = []
        for row, count in sorted(relation.items(), key=lambda i: repr(i[0])):
            suffix = f"  ×{count}" if count != 1 else ""
            lines.append(f"{name}{row}{suffix}")
        return "\n".join(lines)

    def _snapshot(self, name: str) -> str:
        if self.database.mvcc is None:
            return "error: MVCC is disabled on this database"
        read = self.maintainer.snapshot_read(name)
        lag = read.staleness or {}
        header = f"epoch {read.epoch}"
        if lag.get("changesets"):
            header += (
                f"  (views lag the stream by {lag['changesets']} "
                f"changeset(s))"
            )
        if not read:
            return f"{header}\n{name} is empty"
        lines = [header]
        for row, count in sorted(read.items(), key=lambda i: repr(i[0])):
            suffix = f"  ×{count}" if count != 1 else ""
            lines.append(f"{name}{row}{suffix}")
        return "\n".join(lines)


def lint_main(argv: List[str]) -> int:
    """``python -m repro lint`` — the static analyzer as a CLI command.

    Exit status: 0 when no diagnostic reaches ``--fail-on`` (default:
    error), 1 when one does, 2 on usage or I/O errors.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "Statically analyze a Datalog view program: safety, "
            "stratification, strategy applicability, and maintenance "
            "pathologies (dead rules, cartesian products, delta-rule "
            "fan-out, non-incremental aggregates, ...), each reported "
            "with a stable RVnnn code and a source position."
        ),
        epilog=(
            "The full diagnostic catalogue, with the paper section "
            "justifying each check and a fix suggestion per code, is "
            "documented in docs/analysis.md.  Library API: "
            "repro.analysis.analyze()."
        ),
    )
    parser.add_argument(
        "program",
        nargs="?",
        help="Datalog program file to analyze ('-' reads stdin); a "
        "JSON file/document is linted as an orchestrator DAG spec "
        "(RV210 cycle, RV211 undeclared source, RV212 dangling "
        "DOWNSTREAM lag)",
    )
    parser.add_argument(
        "--self",
        action="store_true",
        dest="lint_self",
        help="lint the installed repro package itself: the RV3xx "
        "concurrency battery (lockset, publication discipline, "
        "layering) plus import hygiene (RV220)",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format (default: text; json emits one document "
        "with per-diagnostic positions, hints, and paper citations)",
    )
    parser.add_argument(
        "--fail-on",
        default="error",
        choices=["error", "warning", "info"],
        metavar="SEVERITY",
        help="exit nonzero when any diagnostic is at or above this "
        "severity (error, warning, or info; default: error)",
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODES",
        help="comma-separated diagnostic codes to drop (e.g. "
        "RV101,RV110); repeatable",
    )
    parser.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", "counting", "dred", "bf"],
        help="the maintenance strategy the program is intended for; "
        "forcing one enables the strategy-mismatch checks "
        "(RV008/RV009)",
    )
    parser.add_argument(
        "--semantics", default="set", choices=["set", "duplicate"]
    )
    parser.add_argument(
        "--counting-mode",
        default="expansion",
        choices=["expansion", "factored"],
        help="delta-rule rewrite assumed for the fan-out estimate "
        "(Definition 4.1; default: expansion)",
    )
    parser.add_argument(
        "--no-hints",
        action="store_true",
        help="omit the fix-suggestion lines from text output",
    )
    args = parser.parse_args(argv)

    suppressed = [
        code
        for chunk in args.suppress
        for code in chunk.split(",")
        if code.strip()
    ]

    if args.lint_self:
        if args.program is not None:
            print(
                "error: --self takes no program argument",
                file=sys.stderr,
            )
            return 2
        from repro.analysis.devlint import lint_self

        report = lint_self(suppress_codes=suppressed)
    else:
        if args.program is None:
            parser.error("program is required (or pass --self)")
        if args.program == "-":
            source = sys.stdin.read()
            path = "<stdin>"
        else:
            try:
                with open(args.program, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            path = args.program

        from repro.analysis.spec import lint_spec, looks_like_spec

        if path.endswith(".json") or looks_like_spec(source):
            report = lint_spec(
                source, suppress_codes=suppressed, path=path
            )
        else:
            report = analyze(
                source,
                strategy=args.strategy,
                semantics=args.semantics,
                counting_mode=args.counting_mode,
                suppress_codes=suppressed,
                path=path,
            )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text(show_hints=not args.no_hints))
    return report.exit_code(Severity.from_name(args.fail_on))


def sanitize_main(argv: List[str]) -> int:
    """``python -m repro sanitize`` — run the concurrency sanitizer.

    Two phases, both on by default: ``repro lint --self`` (the RV3xx
    static battery over the installed package) and a threaded MVCC
    soak with ``Database(sanitize=True)`` — every maintenance pass,
    snapshot read, and abort is invariant-checked while readers race
    the writer.  Exit 0 only when the static pass is RV3xx-error-clean
    and the soak finishes with zero problems and zero traps.
    """
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(
        prog="python -m repro sanitize",
        description=(
            "Prove the concurrency discipline: static RV3xx self-lint "
            "plus a runtime invariant-sanitized MVCC soak (Lemma 4.1 "
            "non-negativity, Theorem 4.1 count consistency, atomic "
            "epoch publication, snapshot immutability, abort "
            "reversibility).  See docs/analysis.md and "
            "docs/operations.md (REPRO_SANITIZE runbook)."
        ),
    )
    parser.add_argument(
        "--passes", type=int, default=60,
        help="maintenance passes for the runtime soak (default: 60)",
    )
    parser.add_argument(
        "--readers", type=int, default=3,
        help="concurrent snapshot-reader threads (default: 3)",
    )
    parser.add_argument(
        "--strategy", default="counting",
        choices=["counting", "dred", "bf"],
        help="maintenance strategy the soak drives (default: counting)",
    )
    parser.add_argument(
        "--skip-static", action="store_true",
        help="skip the RV3xx self-lint phase",
    )
    parser.add_argument(
        "--skip-runtime", action="store_true",
        help="skip the sanitized soak phase",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of text",
    )
    args = parser.parse_args(argv)

    failed = False
    result: dict = {}
    if not args.skip_static:
        from repro.analysis.devlint import lint_self

        report = lint_self()
        hard = [
            d
            for d in report.at_severity(Severity.ERROR)
            if d.code.startswith("RV3")
        ]
        result["static"] = {
            "findings": len(report.diagnostics),
            "rv3xx_errors": [d.to_dict() for d in hard],
        }
        if hard:
            failed = True
        if not args.json:
            print(
                f"static: {len(report.diagnostics)} finding(s), "
                f"{len(hard)} error-severity RV3xx"
            )
            for d in hard:
                print(f"  {d.location()}: [{d.code}] {d.message}")
    if not args.skip_runtime:
        from repro.analysis.soak import run_soak

        # Scale the fault cadences to the pass count: run_soak treats a
        # drill where no crash/breach ever fired as a problem, so short
        # runs must inject proportionally more often (0 disables).
        stats = run_soak(
            readers=args.readers,
            passes=args.passes,
            strategy=args.strategy,
            crash_every=min(13, max(2, args.passes // 4)),
            journal_crash_every=min(17, max(3, args.passes // 3)),
            breach_every=min(25, max(4, args.passes // 2)),
            sanitize=True,
        )
        result["runtime"] = {
            "problems": stats["problems"],
            "sanitizer": stats["sanitizer"],
            "reads": stats["reads"],
            "passes": stats["passes"],
        }
        trapped = (stats["sanitizer"] or {}).get("trapped", 0)
        if stats["problems"] or trapped:
            failed = True
        if not args.json:
            checks = (stats["sanitizer"] or {}).get("checks", 0)
            print(
                f"runtime: {stats['passes']} passes / {stats['reads']} "
                f"snapshot reads under {args.strategy}; {checks} "
                f"invariant checks, {trapped} trapped"
            )
            for problem in stats["problems"]:
                print(f"  problem: {problem}")
    result["ok"] = not failed
    if args.json:
        print(_json.dumps(result, indent=2, sort_keys=True))
    elif not failed:
        print("sanitize ok")
    return 1 if failed else 0


def snapshot_main(argv: List[str]) -> int:
    """``python -m repro snapshot`` — query a view at a pinned epoch.

    Rebuilds state from ``--snapshot`` + ``--journal`` (the same pair a
    ``--recover`` session uses), replaying the journal only up to
    ``--epoch`` (point-in-time recovery; default: the whole log), then
    prints the requested relation as of that commit.  Exit status: 0 on
    success, 1 on engine errors, 2 on usage or I/O errors.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro snapshot",
        description=(
            "Query a maintained view (or base relation) at a pinned MVCC "
            "commit epoch, reconstructed from a snapshot + journal pair. "
            "Entries written before the epoch field existed count by "
            "sequence number instead."
        ),
    )
    parser.add_argument(
        "program", help="Datalog program file (views + seed facts)"
    )
    parser.add_argument("relation", help="view or base relation to print")
    parser.add_argument(
        "--snapshot", required=True,
        help="base-relation snapshot the journal replays on top of",
    )
    parser.add_argument(
        "--journal", required=True, help="changeset journal to replay"
    )
    parser.add_argument(
        "--epoch",
        type=int,
        default=None,
        metavar="N",
        help="stop the replay after the entry that published epoch N "
        "(default: replay the whole journal)",
    )
    parser.add_argument(
        "--strategy", default="auto", choices=["auto", "counting", "dred", "bf"]
    )
    parser.add_argument(
        "--semantics", default="set", choices=["set", "duplicate"]
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"]
    )
    args = parser.parse_args(argv)

    from repro.storage.journal import recover

    try:
        with open(args.program, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    program, _facts = split_program(parse_program(source))
    try:
        maintainer = recover(
            lambda db: ViewMaintainer(
                program,
                db,
                strategy=args.strategy,
                semantics=args.semantics,
            ),
            args.snapshot,
            Journal(args.journal),
            upto_epoch=args.epoch,
        )
        with maintainer.database.snapshot() as snap:
            relation = snap.relation(args.relation)
            epoch = snap.epoch
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(
            {
                "relation": args.relation,
                "epoch": epoch,
                "rows": [
                    {"row": list(row), "count": count}
                    for row, count in sorted(
                        relation.items(), key=lambda i: repr(i[0])
                    )
                ],
            },
            indent=2,
        ))
        return 0
    print(f"epoch {epoch}")
    if not relation:
        print(f"{args.relation} is empty")
        return 0
    for row, count in sorted(relation.items(), key=lambda i: repr(i[0])):
        suffix = f"  ×{count}" if count != 1 else ""
        print(f"{args.relation}{row}{suffix}")
    return 0


ORCHESTRATE_HELP = """\
commands:
  + p(v, ...)     stage an insertion into a source relation p
  - p(v, ...)     stage a deletion from a source relation p
  commit          ingest staged changes (nodes refresh on 'tick')
  tick [N]        run N scheduling cycles over the DAG (default 1)
  refresh NODE    force one refresh of NODE (on-demand nodes, probes)
  read VIEW [serve|reject|snapshot]  read a view through the
                  degradation contract (default: the --strict-reads mode)
  suspend NODE    pause NODE and its whole downstream cone
  resume NODE     undo a suspend (backlogs drain on the next tick)
  revive NODE     bring a DEAD node back into scheduling
  status          per-node state, lag vs target, retries, cones
  status --json   the same, as a schema-validated JSON document
  top             one dashboard frame of the DAG section
  check           verify every view against the DAG recompute oracle
  help            this text
  quit            exit
"""


class OrchestrateShell:
    """Command shell over one :class:`~repro.orchestrator.Orchestrator`.

    Same contract as :class:`Shell`: consumes command strings, returns
    display strings; ``orchestrate_main`` wires it to argv/stdin.
    """

    def __init__(
        self,
        spec: str,
        strict_reads: str = "serve",
        slos=None,
        seed: Optional[int] = None,
    ) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.orchestrator import Orchestrator

        self.metrics = MetricsRegistry()
        self.orchestrator = Orchestrator.from_spec(
            spec,
            strict_reads=strict_reads,
            metrics=self.metrics,
            seed=seed,
        )
        if slos is not None:
            self.orchestrator.attach_health(slos, sinks=[LogAlertSink()])
        self.pending = Changeset()
        self.done = False

    def execute(self, line: str) -> str:
        line = line.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            return ""
        try:
            return self._dispatch(line)
        except ReproError as exc:
            return f"error: {exc}"

    def _dispatch(self, line: str) -> str:
        orch = self.orchestrator
        if line in ("quit", "exit"):
            self.done = True
            return "bye"
        if line == "help":
            return ORCHESTRATE_HELP
        if line.startswith("+ "):
            predicate, row = parse_ground_atom(line[2:])
            self.pending.insert(predicate, row)
            return f"staged: insert {predicate}{row}"
        if line.startswith("- "):
            predicate, row = parse_ground_atom(line[2:])
            self.pending.delete(predicate, row)
            return f"staged: delete {predicate}{row}"
        if line == "commit":
            if self.pending.is_empty():
                return "nothing staged"
            orch.ingest(self.pending)
            routed = len(self.pending.relations())
            self.pending = Changeset()
            return f"ingested {routed} relation delta(s); 'tick' to refresh"
        if line == "tick" or line.startswith("tick "):
            count = line[len("tick"):].strip()
            ticks = int(count) if count else 1
            lines = []
            for _ in range(ticks):
                report = orch.tick()
                lines.append(
                    f"tick {report.tick}: "
                    f"refreshed {report.refreshed or '-'}  "
                    f"failed {report.failed or '-'}  "
                    f"probed {report.probed or '-'}"
                )
            return "\n".join(lines)
        if line.startswith("refresh "):
            name = line[len("refresh "):].strip()
            report = orch.refresh_now(name)
            if report is None:
                return f"refresh of {name!r} failed; cone quarantined"
            return (
                f"refreshed {name} in {report.seconds * 1e3:.1f} ms "
                f"[{report.strategy}]"
            )
        if line.startswith("read "):
            parts = line[len("read "):].split()
            strict = parts[1] if len(parts) > 1 else None
            return self._read(parts[0], strict)
        if line.startswith("suspend "):
            cone = orch.suspend(line[len("suspend "):].strip())
            return f"suspended cone: {', '.join(cone)}"
        if line.startswith("resume "):
            resumed = orch.resume(line[len("resume "):].strip())
            return f"resumed: {', '.join(resumed) or '(nothing)'}"
        if line.startswith("revive "):
            name = line[len("revive "):].strip()
            orch.revive(name)
            return f"revived {name}; next probe retries it"
        if line == "status":
            from repro.obs.top import orchestrator_lines

            return "\n".join(orchestrator_lines(orch.status(), color=False))
        if line == "status --json":
            return json.dumps(orch.status(), indent=2, sort_keys=True)
        if line == "top":
            from repro.obs.top import orchestrator_lines

            header = f"repro orchestrate — tick {orch.ticks}"
            return "\n".join(
                [header] + orchestrator_lines(orch.status(), color=False)
            )
        if line == "check":
            behind = orch.check_convergence()
            if behind:
                return (
                    "drained views consistent with the DAG recompute "
                    f"oracle ✔ (skipped behind nodes: {', '.join(behind)}"
                    " — tick or refresh them first for full coverage)"
                )
            return "every view consistent with the DAG recompute oracle ✔"
        return f"unknown command: {line!r} (try 'help')"

    def _read(self, view: str, strict: Optional[str]) -> str:
        relation = self.orchestrator.read(view, strict=strict)
        lines = []
        staleness = getattr(relation, "staleness", None)
        if staleness is not None:
            epoch = getattr(relation, "epoch", None)
            lines.append(
                f"(epoch {epoch}; {staleness['state']}, "
                f"{staleness['changesets']} changeset(s) / "
                f"{staleness['seconds']:.1f}s behind)"
            )
        if not relation:
            lines.append(f"{view} is empty")
            return "\n".join(lines)
        for row, count in sorted(
            relation.items(), key=lambda item: repr(item[0])
        ):
            suffix = f"  ×{count}" if count != 1 else ""
            lines.append(f"{view}{row}{suffix}")
        return "\n".join(lines)


def orchestrate_main(argv: List[str]) -> int:
    """``python -m repro orchestrate`` — drive a DAG of dynamic tables.

    Loads a JSON DAG spec (see ``docs/orchestration.md``) and opens the
    orchestration shell.  Exit status: 0 on clean exit, 1 on a bad spec
    or SLO file, 2 on I/O errors.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro orchestrate",
        description=(
            "Refresh a DAG of materialized views with per-view lag "
            "targets, bounded retries, failure isolation cones, and "
            "stale serving from the last committed MVCC epoch.  The "
            "spec is a JSON object: {\"views\": [{\"name\", \"source\", "
            "\"target_lag\", \"policy\"}...], \"default_policy\": {...}}."
        ),
        epilog=(
            "The DAG model, policies, and the upstream-failure runbook "
            "are documented in docs/orchestration.md and "
            "docs/operations.md."
        ),
    )
    parser.add_argument(
        "spec", help="JSON DAG spec file ('-' reads stdin)"
    )
    parser.add_argument(
        "--strict-reads",
        default="serve",
        choices=["serve", "reject", "snapshot"],
        help="what 'read' serves for a degraded view: live state "
        "(serve, default), StaleViewError (reject), or the last "
        "committed MVCC epoch with staleness stamps (snapshot)",
    )
    parser.add_argument(
        "--slo",
        metavar="PATH",
        help="JSON SLO spec; each SLO's view field names a DAG node "
        "(alerts reach the structured log)",
    )
    parser.add_argument(
        "--seed", type=int, help="seed for the retry-jitter schedule"
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
    )
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level)

    if args.spec == "-":
        spec = sys.stdin.read()
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    slos = None
    if args.slo:
        try:
            with open(args.slo, "r", encoding="utf-8") as handle:
                slos = load_slos(handle.read())
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: bad SLO spec {args.slo}: {exc}", file=sys.stderr)
            return 1
    try:
        shell = OrchestrateShell(
            spec,
            strict_reads=args.strict_reads,
            slos=slos,
            seed=args.seed,
        )
    except (ReproError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    interactive = sys.stdin.isatty() and args.spec != "-"
    while not shell.done:
        if interactive:
            try:
                line = input("orchestrate> ")
            except EOFError:
                break
        else:
            line = sys.stdin.readline()
            if not line:
                break
        output = shell.execute(line)
        if output:
            print(output)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "snapshot":
        return snapshot_main(argv[1:])
    if argv and argv[0] == "orchestrate":
        return orchestrate_main(argv[1:])
    if argv and argv[0] == "sanitize":
        return sanitize_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Maintain materialized views interactively, "
        "statically analyze a program with the 'lint' subcommand "
        "(python -m repro lint --help; see docs/analysis.md), or query "
        "a view at a pinned MVCC epoch with the 'snapshot' subcommand "
        "(python -m repro snapshot --help).",
    )
    parser.add_argument("program", help="Datalog program file (views + seed facts)")
    parser.add_argument("--data", help="JSON base-relation snapshot to load")
    parser.add_argument(
        "--strategy", default="auto", choices=["auto", "counting", "dred", "bf"]
    )
    parser.add_argument(
        "--semantics", default="set", choices=["set", "duplicate"]
    )
    parser.add_argument(
        "--journal", help="append committed changesets to this redo log"
    )
    parser.add_argument(
        "--snapshot",
        help="checkpoint target (atomic, watermarked); written on attach "
        "if missing",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="auto-checkpoint after every N committed passes "
        "(requires --snapshot)",
    )
    parser.add_argument(
        "--no-plan-cache",
        action="store_true",
        help="disable the compiled delta-plan cache (replan every pass)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="rebuild state from --snapshot + --journal instead of the "
        "program's seed facts, then continue journaling",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="stream span trace events to this JSONL log "
        "(the in-memory 'trace' buffer is always on)",
    )
    parser.add_argument(
        "--guard-deadline",
        type=float,
        metavar="SECONDS",
        help="abort (and fall back) any maintenance pass that runs "
        "longer than this wall-clock budget",
    )
    parser.add_argument(
        "--guard-max-delta",
        type=int,
        metavar="N",
        help="abort a pass after it has computed N delta tuples",
    )
    parser.add_argument(
        "--guard-max-rules",
        type=int,
        metavar="N",
        help="abort a pass after N rule firings",
    )
    parser.add_argument(
        "--guard-blowup",
        type=float,
        metavar="RATIO",
        help="abort a pass whose per-view delta exceeds RATIO x the "
        "view size (delta-blowup heuristic)",
    )
    parser.add_argument(
        "--guard-fallback",
        default="recompute",
        choices=["recompute", "skip", "raise"],
        help="what a budget breach does after rollback: recompute the "
        "views from base relations (default), skip the changeset "
        "(quarantining it when --quarantine is set), or re-raise",
    )
    parser.add_argument(
        "--quarantine",
        metavar="PATH",
        help="validate changesets on admission and park poison ones in "
        "this JSONL dead-letter file (inspect with 'quarantine')",
    )
    parser.add_argument(
        "--strict-reads",
        nargs="?",
        const="reject",
        default=None,
        choices=["serve", "reject", "snapshot"],
        help="what 'show' and queries serve while views lag the stream: "
        "'serve' returns live (possibly degraded) state, 'reject' "
        "raises StaleViewError, 'snapshot' serves the last consistent "
        "MVCC epoch with the staleness lag attached; a bare "
        "--strict-reads means 'reject' (default: serve)",
    )
    parser.add_argument(
        "--slo",
        metavar="PATH",
        help="JSON SLO spec: a list of objects (or {\"slos\": [...]}) "
        "with view, objective (freshness_lag | pass_duration_p99 | "
        "error_rate), target, and optional compliance / fast_window / "
        "slow_window / burn_threshold; enables the health engine "
        "('health', status --json health block)",
    )
    parser.add_argument(
        "--alerts",
        metavar="PATH",
        help="append SLO burn-rate alerts to this JSONL file (alerts "
        "always reach the structured log; requires --slo)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable the continuous pass profiler "
        "('profile [VIEW]' shows rolling p50/p95/p99 per phase)",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="engine log verbosity on stderr (default: WARNING)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit engine logs as JSON lines instead of text",
    )
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)

    guard: Optional[GuardPolicy] = None
    if (
        args.guard_deadline is not None
        or args.guard_max_delta is not None
        or args.guard_max_rules is not None
        or args.guard_blowup is not None
        or args.quarantine
        or args.strict_reads is not None
    ):
        guard = GuardPolicy(
            budget=MaintenanceBudget(
                deadline_seconds=args.guard_deadline,
                max_delta_tuples=args.guard_max_delta,
                max_rule_firings=args.guard_max_rules,
            ),
            blowup_ratio=args.guard_blowup,
            fallback=args.guard_fallback,
            quarantine_path=args.quarantine,
            strict_reads=(
                args.strict_reads if args.strict_reads is not None else False
            ),
        )

    with open(args.program, "r", encoding="utf-8") as handle:
        source = handle.read()
    if args.recover and (not args.journal or not args.snapshot):
        print("error: --recover requires --journal and --snapshot",
              file=sys.stderr)
        return 1
    slos = None
    if args.slo:
        try:
            with open(args.slo, "r", encoding="utf-8") as handle:
                slos = load_slos(handle.read())
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: bad SLO spec {args.slo}: {exc}", file=sys.stderr)
            return 1
    try:
        if args.recover:
            shell = Shell.recovered(
                source,
                args.snapshot,
                Journal(args.journal),
                strategy=args.strategy,
                semantics=args.semantics,
                checkpoint_every=args.checkpoint_every,
                trace_path=args.trace,
                guard=guard,
                slos=slos,
                alerts_path=args.alerts,
                profile=args.profile,
            )
        else:
            database = load_database(args.data) if args.data else None
            shell = Shell(
                source,
                database,
                strategy=args.strategy,
                semantics=args.semantics,
                journal=Journal(args.journal) if args.journal else None,
                snapshot_path=args.snapshot,
                checkpoint_every=args.checkpoint_every,
                plan_cache=not args.no_plan_cache,
                trace_path=args.trace,
                guard=guard,
                slos=slos,
                alerts_path=args.alerts,
                profile=args.profile,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    interactive = sys.stdin.isatty()
    while not shell.done:
        if interactive:
            try:
                line = input("repro> ")
            except EOFError:
                break
        else:
            line = sys.stdin.readline()
            if not line:
                break
        output = shell.execute(line)
        if output:
            print(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
