"""B/F — Backward/Forward counting maintenance, for recursive views.

DRed (Section 7 of the source paper, :mod:`repro.core.dred`) deletes
optimistically: step 1 overestimates *every* tuple with some derivation
touching a deletion and step 2 pays to rederive the survivors.  On
graphs dense in alternative derivations the overestimate — and the
rederivation bill — is pathological.  The Backward/Forward algorithm
(Hu, Motik & Horrocks, *Optimised Maintenance of Datalog
Materialisations*) inverts the bet: before deleting a tuple, search
*backward* for an alternative derivation that survives the update, and
only propagate *forward* the tuples that genuinely died.

This implementation interleaves the two directions wave by wave,
per stratum:

1. **Forward step**: collect this wave's deletion *candidates* — the
   stored tuples with some derivation touching the wave's driver.
   Wave 1 is driven by the external changes (deletions of lower strata
   / base relations for positive subgoals, insertions for negated
   ones, plus any rule-change deletion seeds); wave *k*+1 only by the
   tuples wave *k* actually **deleted**.  Side subgoals read the
   *pre-change* state (a derivation both of whose supports died must
   still be found) and a trailing head guard plus a stored-view filter
   keep candidates inside the live materialization.

2. **Backward step**: each fresh candidate is verified *in place* by a
   top-down proof search over the new state (:class:`_Prover`): try
   every rule with the head bound to the candidate row; base and
   lower-stratum subgoals read the maintained current state;
   same-stratum supports are **never trusted** — each is proved
   recursively down to facts, so the check needs no global affected
   closure.  Atoms on the search path are blocked from supporting
   themselves, which makes the check exact under cyclic mutual support
   (a clique of tuples supporting only each other proves nothing).
   Successes memoize absolutely; failures memoize Tarjan-style: when a
   root's whole search region never leaned on anything outside itself,
   every atom in the region is unconditionally underivable.

3. **Forward deletion**: only the candidates the backward step could
   not prove are removed from the view — and only they drive the next
   wave.  Tuples that survive the check stop the propagation cold:
   on graphs dense in alternative derivations the wave front dies at
   distance one while DRed's overestimate floods the whole downstream
   cone.  Insertions then propagate with the unchanged DRed step 3.

The pass plugs into every cross-cutting layer exactly like DRed (whose
machinery it inherits): old-state reads and shadow-commit undo through
the row pre-images behind :attr:`_old` (never a copy of a relation),
cooperative guard checkpoints (``bf.*``), crash points
``backward_check`` / ``forward_delete`` / ``count_merge``, span tracing
(pass → stratum → forward/backward/insert phases with wave attributes)
and the shared plan cache for the rewritten delta rules.

Correctness contract (enforced by the differential-oracle battery):
after the run the materialization equals the view of the updated
database — bf ≡ dred ≡ recompute — and, unlike DRed, a tuple with a
surviving alternative derivation is never removed from the visible
view, not even transiently: the backward check never mutates anything
(``tests/test_bf.py``).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import names
from repro.core.dred import DRedMaintenance, DRedResult, DRedStats
from repro.datalog.ast import Literal, Rule, Subgoal
from repro.datalog.terms import Variable
from repro.eval.rule_eval import (
    EvalContext,
    Resolver,
    _key_spec,
    directly_bound_variables,
    match_args,
    plan_body,
    solutions,
)
from repro.eval.seminaive import seminaive
from repro.storage.changeset import Changeset
from repro.storage.relation import CountedRelation


@dataclass
class BFStats(DRedStats):
    """Work counters for one B/F run.

    ``rederived`` (inherited) counts candidates the backward check put
    back; ``candidates`` is B/F's analogue of DRed's ``overestimated``
    (``overestimated`` itself stays 0 — B/F never overdeletes).
    """

    candidates: int = 0  # deletion candidates across all waves
    waves: int = 0       # forward waves run (saturation depth)

    @property
    def verified(self) -> int:
        """Candidates with a surviving alternative derivation."""
        return self.rederived

    @property
    def check_ratio(self) -> float:
        """|candidates| / |actual deletions| (1.0 = perfectly targeted).

        The B/F analogue of DRed's ``overdeletion_ratio``; the dense-
        alternative-derivation benchmark exists to show this staying
        near 1 while DRed's ratio explodes.
        """
        return self._per_deletion(self.candidates)


@dataclass
class BFResult(DRedResult):
    """Net per-view deltas of one B/F run, plus the candidate sets.

    ``candidates`` maps each maintained predicate to the union of every
    wave's deletion candidates — the set of tuples the backward check
    examined.  Tests compare it against DRed's overestimate to prove
    the "never transiently removed" property is doing real work.
    """

    candidates: Dict[str, CountedRelation] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.candidates is None:
            self.candidates = {}


#: Sentinel "leaned on no in-progress assumption" index (see _Prover).
_UNBLOCKED = float("inf")


class _Prover:
    """The backward check for one stratum: top-down proof search.

    A candidate ``p(row)`` is provable iff some rule for ``p`` has a
    solution with the head bound to ``row`` whose same-stratum supports
    are all recursively provable; base and lower-stratum subgoals are
    settled directly by the join against the maintained current state.
    Same-stratum supports are *never* trusted from the stored view —
    the view may still hold tuples a later wave will kill — so every
    proof bottoms out in facts.  Atoms on the search path are blocked
    from supporting themselves (breaking cyclic mutual support); every
    tuple with a well-founded derivation has one whose paths never
    repeat an atom (a rank-minimal tree), so blocking loses no genuine
    proofs.

    Memoization is shared across all candidates and waves of the
    stratum.  Successes are always absolute (``proven`` — a found proof
    bottoms out in facts or earlier proofs, never in an in-progress
    assumption, because blocked atoms only ever answer *no*).  Failures
    cache Tarjan-style: each atom gets a global discovery index, blocked
    hits propagate the index they leaned on as a low-link, and when a
    root completes with ``low >= index`` its entire still-open region is
    an unfounded set — every rule of every atom in it was exhausted
    without escaping the region — so all of it is marked ``disproven``
    at once.  (A proper ancestor's success instead pops the region
    unmarked: those blocked answers were relative to an assumption that
    just became true.)  Without region-level failure caching a failing
    cyclic region is re-explored once per candidate that touches it —
    catastrophic on dense cyclic graphs.
    """

    def __init__(
        self,
        ctx: EvalContext,
        rules_for: Dict[str, List[Rule]],
    ) -> None:
        self.ctx = ctx
        self.rules_for = rules_for
        self.proven: set = set()
        self.disproven: set = set()
        self._index: Dict[tuple, int] = {}
        self._region: List[tuple] = []
        self._next_index = 0
        self._analyzed: Dict[str, list] = {}

    def _rules(self, predicate: str) -> list:
        """Per-rule check machinery for ``predicate``, analyzed once.

        Every check of a ``p`` candidate binds the same head variables,
        so the seed-binding shape, the adornment — and hence the plan —
        are constant per rule; redoing any of that per point-query would
        pay the analysis thousands of times over.  Each entry is
        ``(rule, head_names, fast, compiled)``:

        * ``head_names`` — the head's variable names when they are all
          distinct plain variables, so the seed binding is one
          ``dict(zip(head_names, row))``; ``None`` forces the slow
          consistency-checked build (repeated variables, constants).
        * ``fast`` — a hand-rolled point-query plan (see :meth:`_walk`),
          or ``None``.  The generic ``solutions`` generator stack costs
          tens of microseconds per call — fatal when the backward check
          issues thousands of fully-bound point queries.  For the common
          shape (all-variable head, body of positive literals only) we
          precompute the join order and per-literal key specs and walk
          them with plain dict/index operations instead: fully-bound
          literals become a single membership probe (no index build at
          all) or a recursive check, partially-bound ones an index
          lookup.  Anything fancier (negation, comparisons, aggregates,
          constants in the head) falls back to ``solutions``.
        * ``compiled`` — the head-adorned ``solutions`` plan for that
          fallback, pre-fetched from the shared cache.
        """
        analyzed = self._analyzed.get(predicate)
        if analyzed is not None:
            return analyzed
        analyzed = []
        for rule in self.rules_for.get(predicate, ()):
            all_vars = all(
                isinstance(arg, Variable) for arg in rule.head.args
            )
            name_list = tuple(
                arg.name
                for arg in rule.head.args
                if isinstance(arg, Variable)
            )
            head_names = (
                name_list
                if all_vars and len(set(name_list)) == len(name_list)
                else None
            )
            fast = None
            if all_vars:
                order = plan_body(rule.body, None, self.ctx)
                if all(
                    isinstance(subgoal, Literal) and not subgoal.negated
                    for subgoal in order
                ):
                    bound = set(name_list)
                    steps = []
                    for subgoal in order:
                        spec = _key_spec(subgoal, bound)
                        key_set = set(spec[0])
                        free: List[tuple] = []
                        simple = True
                        for position, arg in enumerate(subgoal.args):
                            if position in key_set:
                                continue
                            if (
                                isinstance(arg, Variable)
                                and arg.name not in bound
                            ):
                                free.append((position, arg.name))
                            else:
                                simple = False
                                break
                        if simple and len({n for _, n in free}) != len(
                            free
                        ):
                            simple = False  # repeated free var: p(X,X)
                        steps.append(
                            (
                                subgoal,
                                spec,
                                self.ctx.resolver.relation(
                                    subgoal.predicate
                                ),
                                subgoal.predicate in self.rules_for,
                                tuple(free) if simple else None,
                            )
                        )
                        bound |= directly_bound_variables(subgoal, bound)
                    fast = tuple(steps)
            compiled = None
            if fast is None and self.ctx.plan_cache is not None:
                compiled = self.ctx.plan_cache.plan(
                    rule, None, frozenset(name_list), self.ctx
                )
            analyzed.append((rule, head_names, fast, compiled))
        self._analyzed[predicate] = analyzed
        return analyzed

    def _walk(self, steps, i: int, binding, low):
        """Join the literals ``steps[i:]`` under ``binding``; ``(ok, low)``.

        Each step carries the literal, its key spec, its resolved
        relation, a same-stratum flag, and (when the non-key positions
        are plain distinct variables) a direct binding extractor.
        Same-stratum support rows recurse through :meth:`_check` as they
        are enumerated; failed supports accumulate their low-link and
        the walk backtracks to the next match.
        """
        if i == len(steps):
            return True, low
        literal, (key_positions, key_terms), rel, recursive, free = steps[i]
        if len(key_positions) == len(literal.args):
            row_list = [None] * len(key_positions)
            for position, term in zip(key_positions, key_terms):
                row_list[position] = term.evaluate(binding)
            row = tuple(row_list)
            if not rel.contains_positive(row):
                # The view over-approximates the new state all through
                # the delete phase, so absence is absence — and for
                # same-stratum supports this pre-filter keeps the
                # recursion inside rows that were ever derivable.
                return False, low
            if recursive:
                ok, sub_low = self._check(literal.predicate, row)
                if not ok:
                    return False, min(low, sub_low)
            return self._walk(steps, i + 1, binding, low)
        key = tuple(term.evaluate(binding) for term in key_terms)
        for row in rel.lookup(key_positions, key):
            if free is not None:
                extended = dict(binding)
                for position, name in free:
                    extended[name] = row[position]
            else:
                extended = match_args(literal.args, row, binding)
                if extended is None:
                    continue
            if recursive:
                ok, sub_low = self._check(literal.predicate, row)
                if not ok:
                    low = min(low, sub_low)
                    continue
            ok, low = self._walk(steps, i + 1, extended, low)
            if ok:
                return True, low
        return False, low

    def provable(self, predicate: str, row: tuple) -> bool:
        """Does ``predicate(row)`` keep a derivation in the new state?"""
        ok, _low = self._check(predicate, row)
        return ok

    def _check(self, predicate: str, row: tuple):
        atom = (predicate, row)
        if atom in self.proven:
            return True, _UNBLOCKED
        if atom in self.disproven:
            return False, _UNBLOCKED
        held = self._index.get(atom)
        if held is not None:
            # In progress: a derivation may not support itself.
            return False, held
        index = self._next_index
        self._next_index += 1
        self._index[atom] = index
        self._region.append(atom)
        low = _UNBLOCKED
        for rule, head_names, fast, compiled in self._rules(predicate):
            if head_names is not None:
                seed_binding = dict(zip(head_names, row))
            else:
                seed_binding = {}
                consistent = True
                for arg, value in zip(rule.head.args, row):
                    if isinstance(arg, Variable):
                        if seed_binding.get(arg.name, value) != value:
                            consistent = False
                            break
                        seed_binding[arg.name] = value
                if not consistent:
                    continue
            if fast is not None:
                ok, low = self._walk(fast, 0, seed_binding, low)
                if ok:
                    self.proven.add(atom)
                    self._pop_region(atom, disprove=False)
                    return True, _UNBLOCKED
                continue
            for binding, count in solutions(
                rule,
                self.ctx,
                initial_binding=seed_binding,
                compiled=compiled,
            ):
                if count <= 0:
                    continue
                head_row = tuple(
                    arg.evaluate(binding) for arg in rule.head.args
                )
                if head_row != row:
                    continue
                proved_all = True
                for subgoal in rule.body:
                    if (
                        not isinstance(subgoal, Literal)
                        or subgoal.negated
                    ):
                        continue
                    if subgoal.predicate not in self.rules_for:
                        continue  # base/lower stratum: ctx settled it
                    support_row = tuple(
                        arg.evaluate(binding) for arg in subgoal.args
                    )
                    ok, sub_low = self._check(
                        subgoal.predicate, support_row
                    )
                    if not ok:
                        low = min(low, sub_low)
                        proved_all = False
                        break
                if proved_all:
                    self.proven.add(atom)
                    self._pop_region(atom, disprove=False)
                    return True, _UNBLOCKED
        if low >= index:
            self._pop_region(atom, disprove=True)
            return False, _UNBLOCKED
        # Leaned on a live ancestor: stay open for that root to settle.
        return False, low

    def _pop_region(self, atom: tuple, disprove: bool) -> None:
        """Close ``atom``'s region: everything discovered after it.

        On failure the region is an unfounded set — cache all of it.
        On success the blocked descendants above ``atom`` just lost
        their blocker; drop them uncached so later checks retry fresh.
        """
        while True:
            popped = self._region.pop()
            del self._index[popped]
            if disprove:
                self.disproven.add(popped)
            if popped == atom:
                return


class BFMaintenance(DRedMaintenance):
    """One B/F maintenance pass; create per changeset and call :meth:`run`.

    DRed's stratum loop with the delete step replaced: the
    forward/backward wave loop of :meth:`_delete_step` instead of
    overestimate-prune-rederive.
    """

    checkpoint_prefix = "bf"
    stratum_counters = ("candidates", "verified", "inserted")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = BFStats()
        #: Every wave's deletion candidates per predicate, for the result.
        self._candidates: Dict[str, CountedRelation] = {}

    # -------------------------------------------------------------- the run

    def run(self, changes: Changeset) -> BFResult:
        """Run the backward/forward pass for every stratum, bottom-up."""
        # The backward proof search recurses one level per support-chain
        # hop (plus the join generators under it); give long derivation
        # chains headroom beyond the interpreter default.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20_000))
        try:
            return super().run(changes)
        finally:
            sys.setrecursionlimit(limit)

    def _result(self) -> BFResult:
        result = super()._result()
        return BFResult(
            result.deletions,
            result.insertions,
            self.stats,
            candidates=self._idb(self._candidates),
        )

    # --------------------------------------------------------- the wave loop

    def _delete_step(
        self,
        new_rules: List[Rule],
        old_rules: List[Rule],
        stratum_preds: set,
    ) -> Dict[str, CountedRelation]:
        """Interleave forward/backward waves; return the examined candidates.

        Each wave collects fresh candidates, verifies them immediately,
        deletes only the disproven ones, and lets *only those* drive the
        next wave — a candidate with a surviving derivation stops the
        propagation through it.  The prover (and its memo tables) is
        shared across all waves of the stratum.
        """
        stats = self.stats
        cumulative = {
            predicate: CountedRelation(names.source("cand", predicate))
            for predicate in stratum_preds
        }
        rules_for: Dict[str, List[Rule]] = {}
        for rule in new_rules:
            rules_for.setdefault(rule.head.predicate, []).append(rule)
        prover = _Prover(
            ctx=EvalContext(
                self._current_resolver(),
                unit_counts=lambda _n: True,
                plan_cache=self.plan_cache,
            ),
            rules_for=rules_for,
        )

        frontier: Optional[Dict[str, CountedRelation]] = None
        while True:
            # ---- forward step: this wave's fresh candidates.
            wave = stats.waves + 1
            with self.phase("forward", wave=wave) as phase_span:
                fresh = self._collect_candidates(
                    old_rules, stratum_preds, frontier, cumulative
                )
                found = sum(len(rows) for rows in fresh.values())
                phase_span.set(candidates=found)
                if found:
                    stats.waves += 1
                    stats.candidates += found
                    self.guard.tick(tuples=found)
            if not found:
                break
            self.checkpoint("wave")
            self.faults.fire("backward_check")

            # ---- backward step: verify the fresh candidates in place.
            dead_by_pred: Dict[str, CountedRelation] = {}
            with self.phase(
                "backward", wave=wave, candidates=found
            ) as phase_span:
                if frontier is None:  # the stratum's first check
                    stats.rules_fired += len(new_rules)
                    self.guard.tick(rules=len(new_rules))
                verified = 0
                for predicate in sorted(fresh):
                    dead = CountedRelation(f"del({predicate})")
                    for row in fresh[predicate].rows():
                        if prover.provable(predicate, row):
                            verified += 1
                        else:
                            dead.set_count(row, 1)
                    if dead:
                        dead_by_pred[predicate] = dead
                stats.rederived += verified
                phase_span.set(verified=verified)

            # ---- forward deletion: only disproven rows leave the view.
            deleted = sum(len(rows) for rows in dead_by_pred.values())
            with self.phase("forward", wave=wave, deleted=deleted):
                self._prune(dead_by_pred)
                self.faults.fire("forward_delete")
                self.checkpoint("delete")
            if not dead_by_pred:
                break  # every candidate survived: nothing propagates
            frontier = dead_by_pred
        for predicate, rows in cumulative.items():
            if rows:
                self._candidates[predicate] = rows
        return cumulative

    def _collect_candidates(
        self,
        rules: List[Rule],
        stratum_preds: set,
        frontier: Optional[Dict[str, CountedRelation]],
        cumulative: Dict[str, CountedRelation],
    ) -> Dict[str, CountedRelation]:
        """One bounded delta round: fresh tuples whose derivations touch
        the frontier, added to ``cumulative`` as they are found.

        ``frontier is None`` means wave 1: external drivers only (with
        no stratum predicates given, same-stratum subgoals, whose
        deletions do not exist yet, drive nothing) plus deletion seeds.
        Afterwards the previous wave's *confirmed deletions* drive
        same-stratum positions — verified survivors never propagate.
        Side subgoals read the pre-change state and results are
        post-filtered to rows actually stored and not examined before.
        """
        sources: Dict[str, CountedRelation] = {}
        head_name = functools.partial(names.source, "cand")
        if frontier is None:
            cand_rules = self._driven_rules(
                rules,
                head_name,
                lambda subgoal: self._step1_driver(subgoal, set(), sources),
                guarded=False,
            ) + self._seed_rules(stratum_preds, head_name, sources)
        else:
            cand_rules = self._driven_rules(
                rules,
                head_name,
                lambda subgoal: self._frontier_driver(subgoal, frontier, sources),
                guarded=False,
            )
        # No head guard literal: the stored-view post-filter below
        # already keeps candidates ⊆ the view, and a trailing guard
        # would add a full-key probe of the old state without shrinking
        # any join intermediate.
        if not cand_rules:
            return {}

        targets = {
            names.source("cand", predicate): CountedRelation(
                names.source("cand", predicate)
            )
            for predicate in stratum_preds
        }
        self.stats.rules_fired += len(cand_rules)
        self.guard.tick(rules=len(cand_rules))
        resolver = Resolver(self._old_resolver(), sources)
        # No candidate rule mentions a candidate target in its body, so
        # this terminates after one productive round — the wave bound.
        seminaive(
            cand_rules,
            targets,
            resolver,
            plan_cache=self.plan_cache,
            tracer=self.tracer,
            guard=self.guard,
        )
        fresh: Dict[str, CountedRelation] = {}
        for predicate in stratum_preds:
            view = self.views[predicate]
            kept = cumulative[predicate]
            new_rows = CountedRelation(names.source("wave", predicate))
            for row in targets[names.source("cand", predicate)].rows():
                if view.contains_positive(row) and not kept.contains_positive(row):
                    kept.set_count(row, 1)
                    new_rows.set_count(row, 1)
            if new_rows:
                fresh[predicate] = new_rows
        return fresh

    def _frontier_driver(
        self,
        subgoal: Subgoal,
        frontier: Dict[str, CountedRelation],
        sources: Dict[str, CountedRelation],
    ) -> Optional[Literal]:
        """Wave-k+1 driver: the previous wave's confirmed deletions."""
        if not isinstance(subgoal, Literal) or subgoal.negated:
            return None
        rows = frontier.get(subgoal.predicate)
        if not rows:
            return None
        name = names.source("wave", subgoal.predicate)
        sources[name] = rows
        return Literal(name, subgoal.args)
