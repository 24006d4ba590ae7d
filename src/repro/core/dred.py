"""DRed — Delete and Rederive (Section 7), for recursive views.

Set semantics.  Changes are propagated stratum by stratum; within each
stratum three steps run:

1. **Overestimate deletions** (δ⁻-rules): a semi-naive fixpoint computes
   every stored tuple with *some* derivation touching a deleted tuple.
   For each rule ``p :- s1 & … & sn`` and each position ``i`` we build::

       δ⁻(p) :- s1 & … & δ⁻(s_i) & … & sn & p(head args)

   Side subgoals read the *old* relations ("without incorporating the
   deletions"); the trailing guard keeps the overestimate inside the
   stored materialization.  ``δ⁻(s_i)`` is the deletions of a lower
   stratum / base relation, the *insertions* for a negated lower
   subgoal (¬q dies when q appears), or the growing overestimate for a
   same-stratum (recursive) predicate.  The overestimate is then removed
   from the stored views.

2. **Rederive** (ρ-rules): tuples of the overestimate with an alternative
   derivation in the new database are put back::

       p(head args) :- δ⁻(p)(head args) & s1ⁿ & … & snⁿ

   Side subgoals read *new* values; same-stratum subgoals read the
   partially rederived materialization, iterated to fixpoint.

3. **Insert** (δ⁺-rules): semi-naive propagation of insertions, reading
   new values throughout; for negated subgoals the driver is the final
   deletions of the lower stratum (¬q is born when q disappears).

Aggregate views (normalized GROUPBY rules) are maintained by
Algorithm 6.1 between strata, with the resulting group-tuple deletions
and insertions feeding the δ⁻/δ⁺ drivers of higher strata — this is the
"first algorithm to handle aggregation in recursive views" part of the
paper.

Theorem 7.1 (checked by the test suite against naive recomputation):
after the run, the materialization equals the view of the updated
database.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import names
from repro.core.agg_maintenance import AggregateView
from repro.core.normalize import NormalizedProgram
from repro.core.strategy_pass import StrategyPass
from repro.datalog.ast import Literal, Rule, Subgoal
from repro.datalog.terms import Variable
from repro.datalog.stratify import Stratification
from repro.errors import MaintenanceError
from repro.eval.rule_eval import Resolver
from repro.eval.seminaive import seminaive
from repro.storage.changeset import Changeset
from repro.storage.database import Database
from repro.storage.relation import CountedRelation, PreImageView

logger = logging.getLogger(__name__)


@dataclass
class DRedStats:
    """Work counters for one DRed run (drives experiments E3, E6, E7)."""

    overestimated: int = 0  # tuples in the step-1 overestimate
    rederived: int = 0      # overestimated tuples put back by step 2
    inserted: int = 0       # tuples added by step 3
    deleted: int = 0        # net deletions (overestimated − rederived)
    rules_fired: int = 0    # rewritten rules handed to the fixpoints
    seconds: float = 0.0
    #: Wall seconds per pass phase: seed / overestimate / rederive / insert.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def _per_deletion(self, examined: int) -> float:
        """``examined`` / |actual deletions|; 1.0 when nothing was examined.

        A pass that examined tuples but deleted none overshot by all of
        them, so the denominator floors at one deletion.
        """
        return examined / max(self.deleted, 1) if examined else 1.0

    @property
    def overdeletion_ratio(self) -> float:
        """|overestimate| / |actual deletions| (1.0 = no overshoot)."""
        return self._per_deletion(self.overestimated)


@dataclass
class DRedResult:
    """Net per-view deletions and insertions of one DRed run."""

    deletions: Dict[str, CountedRelation]
    insertions: Dict[str, CountedRelation]
    stats: DRedStats = field(default_factory=DRedStats)

    def delta(self, view: str) -> CountedRelation:
        """The signed set-level delta of ``view`` (+1 inserts, −1 deletes)."""
        out = CountedRelation(names.delta(view))
        for row, _ in self.insertions.get(view, CountedRelation()).items():
            out.add(row, 1)
        for row, _ in self.deletions.get(view, CountedRelation()).items():
            out.add(row, -1)
        return out


class DRedMaintenance(StrategyPass):
    """One DRed maintenance pass; create per changeset and call :meth:`run`."""

    checkpoint_prefix = "dred"
    #: The per-stratum ``stats`` counters the ``stratum`` span reports.
    stratum_counters = ("overestimated", "rederived", "inserted")

    def __init__(
        self,
        normalized: NormalizedProgram,
        stratification: Stratification,
        database: Database,
        views: Dict[str, CountedRelation],
        aggregate_views: Dict[str, AggregateView],
        old_rules: Optional[List[Rule]] = None,
        full_round0_rules: frozenset = frozenset(),
        deletion_seeds: Optional[Dict[str, CountedRelation]] = None,
        **plumbing,
    ) -> None:
        super().__init__(
            normalized, stratification, database, views, aggregate_views,
            **plumbing,
        )
        #: Rules that existed before the change — deletion propagation
        #: (step 1) must follow derivations as they *were* (rule-change
        #: maintenance passes the pre-change rule set here).
        self.old_rules: List[Rule] = (
            old_rules if old_rules is not None else list(normalized.program.rules)
        )
        #: Rules whose step-3 evaluation must be a full round-0 pass:
        #: freshly-added rules, whose every derivation is an insertion.
        self.full_round0_rules = full_round0_rules
        #: Extra per-predicate deletion seeds (derivations of removed rules).
        self.deletion_seeds = deletion_seeds if deletion_seeds is not None else {}
        self.stats = DRedStats()
        #: The pre-pass state of every relation changed so far (base and
        #: derived): read-through views over the rows' pre-images.  The
        #: undo log shares the pre-image maps, so crash safety records
        #: nothing of its own.
        self._old: Dict[str, PreImageView] = {}
        #: Net set-level deletions/insertions per predicate, so far.
        self._del: Dict[str, CountedRelation] = {}
        self._add: Dict[str, CountedRelation] = {}

    # ------------------------------------------------------------ resolvers

    def _current_resolver(self) -> Resolver:
        """Plain names → the *current* state (old for untouched strata)."""
        return Resolver(Resolver(self.database, self.views))

    def _old_resolver(self) -> Resolver:
        """Plain names → the pre-change state."""
        return Resolver(Resolver(self.database, self.views), self._old)

    def _save_old(self, predicate: str, relation: CountedRelation) -> None:
        """Call before the pass first mutates ``relation``."""
        if predicate not in self._old:
            old = self._old[predicate] = PreImageView(relation)
            if self.undo is not None:
                # The pre-images double as the rollback record, shared.
                self.undo.note_rows(relation, old.pre_images)

    def _deletions_of(self, predicate: str) -> CountedRelation:
        found = self._del.get(predicate)
        return found if found is not None else CountedRelation()

    def _insertions_of(self, predicate: str) -> CountedRelation:
        found = self._add.get(predicate)
        return found if found is not None else CountedRelation()

    # -------------------------------------------------------------- the run

    def run(self, changes: Changeset) -> DRedResult:
        """Execute the three DRed steps for every stratum, bottom-up."""
        try:
            return super().run(changes)
        finally:
            # Success or unwind: close the recorders this pass opened.
            for old in self._old.values():
                old.release()

    def _maintain(self, _changes: Changeset) -> None:
        """Per stratum: aggregates, then delete, insert and finalize."""
        stats = self.stats
        new_by_stratum = self._group_by_stratum(self.normalized.program.rules)
        old_by_stratum = self._group_by_stratum(self.old_rules)
        for stratum in range(1, self.strat.max_stratum + 1):
            new_rules = new_by_stratum.get(stratum, [])
            for rule in new_rules:
                if rule.head.predicate in self.aggregate_views:
                    self._maintain_aggregate(rule)
            normal_new = self._non_aggregate(new_rules)
            normal_old = self._non_aggregate(old_by_stratum.get(stratum, []))
            if not normal_new and not normal_old:
                continue
            self.checkpoint("stratum")
            stratum_preds = {
                rule.head.predicate for rule in normal_new + normal_old
            }
            with self.tracer.span(
                "stratum", f"stratum {stratum}", stratum=stratum
            ) as stratum_span:
                before = [getattr(stats, name) for name in self.stratum_counters]
                examined = self._delete_step(
                    normal_new, normal_old, stratum_preds
                )
                inserted0 = stats.inserted
                with self.phase("insert") as phase_span:
                    inserted = self._step3_insert(normal_new, stratum_preds)
                    self.faults.fire("count_merge")
                    phase_span.set(inserted=stats.inserted - inserted0)
                self._finalize_stratum(stratum_preds, examined, inserted)
                stratum_span.set(**{
                    name: getattr(stats, name) - then
                    for name, then in zip(self.stratum_counters, before)
                })

    def _delete_step(
        self, new_rules: List[Rule], old_rules: List[Rule], stratum_preds: set
    ) -> Dict[str, CountedRelation]:
        """Steps 1–2: overestimate and prune, then rederive survivors.

        Returns the tuples the step examined (the overestimate); the
        ones no longer stored are the stratum's deletions.
        """
        stats = self.stats
        overestimated0 = stats.overestimated
        with self.phase("overestimate") as phase_span:
            overestimate = self._step1_overestimate(old_rules, stratum_preds)
            self._prune(overestimate)
            self.faults.fire("rederivation")
            phase_span.set(overestimated=stats.overestimated - overestimated0)
        rederived0 = stats.rederived
        with self.phase("rederive") as phase_span:
            self._step2_rederive(new_rules, overestimate)
            phase_span.set(rederived=stats.rederived - rederived0)
        return overestimate

    def _result(self) -> DRedResult:
        deletions = self._idb(self._del)
        self.stats.deleted = sum(len(rel) for rel in deletions.values())
        return DRedResult(deletions, self._idb(self._add), self.stats)

    def _idb(
        self, relations: Dict[str, CountedRelation]
    ) -> Dict[str, CountedRelation]:
        """The nonempty entries of ``relations`` for derived predicates."""
        idb = self.normalized.program.idb_predicates
        return {name: rel for name, rel in relations.items() if rel and name in idb}

    # ------------------------------------------------------------ sub-steps

    def _group_by_stratum(self, rules) -> Dict[int, List[Rule]]:
        grouped: Dict[int, List[Rule]] = {}
        for rule in rules:
            stratum = self.strat.stratum_of[rule.head.predicate]
            grouped.setdefault(stratum, []).append(rule)
        return grouped

    def _non_aggregate(self, rules: List[Rule]) -> List[Rule]:
        return [
            rule for rule in rules
            if rule.head.predicate not in self.aggregate_views
        ]

    def _seed(self, changes: Changeset) -> None:
        """Canonicalize to set semantics, save old states, update the edb."""
        for name, delta in changes:
            if name in self.normalized.program.idb_predicates:
                raise MaintenanceError(
                    f"cannot change derived relation {name} directly"
                )
            if self.undo is not None and name not in self.database:
                self.undo.note_base_created(self.database, name)
            relation = self.database.ensure_relation(name)
            deletions = CountedRelation(f"del({name})")
            insertions = CountedRelation(f"add({name})")
            for row, count in delta.items():
                present = relation.contains_positive(row)
                if count < 0:
                    if not present:
                        raise MaintenanceError(
                            f"changeset deletes {row!r} from {name} but it "
                            f"is not stored"
                        )
                    deletions.set_count(row, 1)
                elif count > 0 and not present:
                    insertions.set_count(row, 1)
            if not deletions and not insertions:
                continue
            self._save_old(name, relation)
            for row in deletions.rows():
                relation.discard(row)
            for row in insertions.rows():
                relation.set_count(row, 1)
            self._del[name] = deletions
            self._add[name] = insertions

    def _step1_overestimate(
        self, rules: List[Rule], stratum_preds: set
    ) -> Dict[str, CountedRelation]:
        """Semi-naive computation of the δ⁻ overestimate for the stratum."""
        sources: Dict[str, CountedRelation] = {}
        delta_rules = self._driven_rules(
            rules,
            names.overestimate,
            lambda subgoal: self._step1_driver(subgoal, stratum_preds, sources),
            guarded=True,  # keeps δ⁻(p) ⊆ P
        ) + self._seed_rules(stratum_preds, names.overestimate, sources)
        if not delta_rules:
            return {}

        targets = {
            names.overestimate(pred): CountedRelation(names.overestimate(pred))
            for pred in stratum_preds
        }
        self.stats.rules_fired += len(delta_rules)
        self.guard.tick(rules=len(delta_rules))
        resolver = Resolver(self._old_resolver(), sources)
        seminaive(
            delta_rules,
            targets,
            resolver,
            plan_cache=self.plan_cache,
            tracer=self.tracer,
            guard=self.guard,
        )
        overestimate = {
            pred: targets[names.overestimate(pred)] for pred in stratum_preds
        }
        overestimated = sum(len(r) for r in overestimate.values())
        self.stats.overestimated += overestimated
        self.guard.tick(tuples=overestimated)
        self.checkpoint("overestimate")
        return overestimate

    @staticmethod
    def _driven_rules(
        rules: List[Rule],
        head_name: Callable[[str], str],
        driver: Callable[[Subgoal], Optional[Literal]],
        guarded: bool,
    ) -> List[Rule]:
        """One rewritten rule per body position ``driver`` replaces.

        The head is renamed by ``head_name``; a ``guarded`` rewrite
        also re-checks the original head against the stored state.
        """
        out: List[Rule] = []
        for rule in rules:
            head = Literal(head_name(rule.head.predicate), rule.head.args)
            guard = (rule.head,) if guarded else ()
            for j, subgoal in enumerate(rule.body):
                replacement = driver(subgoal)
                if replacement is None:
                    continue
                body = list(rule.body)
                body[j] = replacement
                out.append(Rule(head, tuple(body) + guard))
        return out

    def _seed_rules(
        self,
        stratum_preds: set,
        head_name: Callable[[str], str],
        sources: Dict[str, CountedRelation],
    ) -> List[Rule]:
        """Rule-change seeds: every derivation of a removed rule is a
        deletion candidate for its head predicate."""
        out: List[Rule] = []
        for predicate in sorted(stratum_preds):
            seed = self.deletion_seeds.get(predicate)
            if not seed:
                continue
            name = names.source("seed", predicate)
            sources[name] = seed
            arity = seed.arity if seed.arity is not None else len(next(iter(seed)))
            variables = tuple(Variable(f"V{i}") for i in range(arity))
            out.append(
                Rule(
                    Literal(head_name(predicate), variables),
                    (Literal(name, variables), Literal(predicate, variables)),
                )
            )
        return out

    def _step1_driver(
        self,
        subgoal: Subgoal,
        stratum_preds: set,
        sources: Dict[str, CountedRelation],
    ) -> Optional[Literal]:
        """The δ⁻ driver literal for one body position (None = no driver)."""
        if not isinstance(subgoal, Literal):
            return None
        predicate = subgoal.predicate
        if subgoal.negated:
            # ¬q loses tuples exactly where q gained them.
            gained = self._insertions_of(predicate)
            if not gained:
                return None
            name = names.source("add", predicate)
            sources[name] = gained
            return Literal(name, subgoal.args)
        if predicate in stratum_preds:
            # Recursive driver: the growing overestimate itself.
            return Literal(names.overestimate(predicate), subgoal.args)
        lost = self._deletions_of(predicate)
        if not lost:
            return None
        name = names.source("del", predicate)
        sources[name] = lost
        return Literal(name, subgoal.args)

    def _prune(self, doomed: Dict[str, CountedRelation]) -> None:
        """Remove ``doomed`` rows from the stored materializations."""
        for predicate, rows in doomed.items():
            if not rows:
                continue
            view = self.views[predicate]
            if self.guard.blowup_enabled:
                # Blowup heuristic before the prune touches the view: a
                # deletion set rivaling the view itself means recompute
                # would be cheaper.
                self.guard.observe_delta_ratio(predicate, len(rows), len(view))
            self._save_old(predicate, view)
            for row in rows.rows():
                view.discard(row)

    def _step2_rederive(
        self, rules: List[Rule], overestimate: Dict[str, CountedRelation]
    ) -> Dict[str, CountedRelation]:
        """Put back overestimated tuples with alternative derivations."""
        if not any(rows for rows in overestimate.values()):
            return {}
        rederive_rules: List[Rule] = []
        sources: Dict[str, CountedRelation] = {}
        for rule in rules:
            rows = overestimate.get(rule.head.predicate)
            if not rows:
                continue
            name = names.overestimate(rule.head.predicate)
            sources[name] = rows
            seed = Literal(name, rule.head.args)
            rederive_rules.append(Rule(rule.head, (seed,) + rule.body))
        if not rederive_rules:
            return {}
        targets = {
            rule.head.predicate: self.views[rule.head.predicate]
            for rule in rederive_rules
        }
        self.stats.rules_fired += len(rederive_rules)
        self.guard.tick(rules=len(rederive_rules))
        resolver = Resolver(self._current_resolver(), sources)
        rederived = seminaive(
            rederive_rules,
            targets,
            resolver,
            plan_cache=self.plan_cache,
            tracer=self.tracer,
            guard=self.guard,
        )
        count = sum(len(r) for r in rederived.values())
        self.stats.rederived += count
        self.guard.tick(tuples=count)
        self.checkpoint("rederive")
        return rederived

    def _step3_insert(
        self, rules: List[Rule], stratum_preds: set
    ) -> Dict[str, CountedRelation]:
        """Semi-naive propagation of insertions through the stratum."""
        insert_rules: List[Rule] = []
        fire_round0: List[bool] = []
        sources: Dict[str, CountedRelation] = {}
        for rule in rules:
            recursive_body = False
            for j, subgoal in enumerate(rule.body):
                if not isinstance(subgoal, Literal):
                    continue
                predicate = subgoal.predicate
                if not subgoal.negated and predicate in stratum_preds:
                    recursive_body = True
                    continue
                if subgoal.negated:
                    # ¬q gains tuples exactly where q lost them.
                    driver = self._deletions_of(predicate)
                    tag = "delneg"
                else:
                    driver = self._insertions_of(predicate)
                    tag = "add"
                if not driver:
                    continue
                name = names.source(tag, predicate)
                sources[name] = driver
                body = list(rule.body)
                body[j] = Literal(name, subgoal.args)
                insert_rules.append(Rule(rule.head, tuple(body)))
                fire_round0.append(True)
            if rule in self.full_round0_rules:
                # A freshly-added rule: every one of its derivations is an
                # insertion, so it evaluates fully (and its delta variants
                # propagate recursive growth as usual).
                insert_rules.append(rule)
                fire_round0.append(True)
            elif recursive_body:
                # Plain rule: only its delta variants fire, propagating
                # same-stratum growth (a full evaluation would recompute
                # the view from scratch).
                insert_rules.append(rule)
                fire_round0.append(False)
        if not insert_rules:
            return {}
        targets = {
            pred: self.views[pred]
            for pred in {rule.head.predicate for rule in insert_rules}
        }
        for pred in targets:
            self._save_old(pred, targets[pred])
        self.stats.rules_fired += len(insert_rules)
        self.guard.tick(rules=len(insert_rules))
        resolver = Resolver(self._current_resolver(), sources)
        inserted = seminaive(
            insert_rules,
            targets,
            resolver,
            fire_round0=fire_round0,
            plan_cache=self.plan_cache,
            tracer=self.tracer,
            guard=self.guard,
        )
        count = sum(len(r) for r in inserted.values())
        self.stats.inserted += count
        self.guard.tick(tuples=count)
        self.checkpoint("insert")
        return inserted

    def _finalize_stratum(
        self,
        stratum_preds: set,
        overestimate: Dict[str, CountedRelation],
        inserted: Dict[str, CountedRelation],
    ) -> None:
        """Compute the stratum's net deletions/insertions for upper strata."""
        for predicate in stratum_preds:
            view = self.views[predicate]
            old = self._old.get(predicate)
            deletions = CountedRelation(f"del({predicate})")
            for row in overestimate.get(predicate, CountedRelation()).rows():
                if not view.contains_positive(row):
                    deletions.set_count(row, 1)
            insertions = CountedRelation(f"add({predicate})")
            for row in inserted.get(predicate, CountedRelation()).rows():
                if old is None or not old.contains_positive(row):
                    insertions.set_count(row, 1)
            if deletions:
                self._del[predicate] = deletions
            if insertions:
                self._add[predicate] = insertions

    def _maintain_aggregate(self, rule: Rule) -> None:
        """Algorithm 6.1 for a normalized GROUPBY rule inside DRed."""
        predicate = rule.head.predicate
        view = self.aggregate_views[predicate]
        grouped = view.aggregate.relation.predicate
        lost = self._deletions_of(grouped)
        gained = self._insertions_of(grouped)
        if not lost and not gained:
            return
        delta = CountedRelation(names.delta(grouped))
        for row in gained.rows():
            delta.add(row, 1)
        for row in lost.rows():
            delta.add(row, -1)
        old_grouped = self._old.get(grouped)
        if old_grouped is None:
            old_grouped = self._current_resolver().relation(grouped)
        delta_t = view.maintain(old_grouped, delta, undo=self.undo)
        self.faults.fire("aggregate_merge")
        if not delta_t:
            return
        stored = self.views[predicate]
        self._save_old(predicate, stored)
        deletions = CountedRelation(f"del({predicate})")
        insertions = CountedRelation(f"add({predicate})")
        for row, count in delta_t.items():
            if count < 0:
                stored.discard(row)
                deletions.set_count(row, 1)
            else:
                stored.set_count(row, 1)
                insertions.set_count(row, 1)
        if deletions:
            self._del[predicate] = deletions
        if insertions:
            self._add[predicate] = insertions
