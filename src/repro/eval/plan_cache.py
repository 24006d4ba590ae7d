"""Compiled delta-plan cache: plan each rule once, reuse across passes.

The maintenance algorithms fire the same small set of rewritten rules on
every pass, yet :func:`~repro.eval.rule_eval.plan_body` used to run
afresh on every firing — join ordering, safety checks, and index key
spec derivation were all recomputed per rule per pass.  For the small
changesets the paper's algorithms are built for (maintenance cost should
track the size of the *change*, cf. Hu/Motik/Horrocks and Veldhuizen),
that fixed per-pass overhead dominates the actual join work.

A :class:`PlanCache` memoizes every compiled artifact that depends only
on the *program*, not on the data:

* **compiled plans** — the ordered body, per-position index key specs,
  seed and the generated join kernel (:mod:`repro.eval.kernel`), keyed
  by ``(rule, seed, adornment)`` where the adornment is the set of
  initially-bound variables;
* **delta-variant rewrites** — the expansion/factored delta rules of
  :mod:`repro.core.delta_rules` and the semi-naive one-delta-subgoal
  variants of :mod:`repro.eval.seminaive`;
* **relevance filters** — the [BCL89] pre-filter compiled per program.

Index key specs referenced by a cached plan are *declared* on their
relations (:meth:`~repro.storage.relation.CountedRelation.declare_index`)
at compile time, so the indexes are built once and maintained
incrementally instead of lazily rebuilt per query.  A literal keyed on
every position declares nothing: it probes the row store itself.

Keys are structural: :class:`~repro.datalog.ast.Rule` is a frozen
dataclass, so the fresh-but-equal rule objects DRed constructs each pass
hit the same entries.  The cache is owned by a
:class:`~repro.core.maintenance.ViewMaintainer` and shared by every pass
it runs; ``invalidate()`` drops everything and is wired into ``alter()``
and rule-change maintenance, so no plan (or index key spec) ever
outlives the program that produced it.  Caching is purely a performance
layer: a cached plan is exactly what planning would produce again, up to
the size-based tie-breaks in join ordering (sizes are read at compile
time; the order stays safe regardless of later growth).
"""

from __future__ import annotations

import logging
from typing import Dict, FrozenSet, Optional

from repro.datalog.ast import Literal, Rule
from repro.eval.rule_eval import (
    CompiledPlan,
    EvalContext,
    compile_plan,
    unit_signature,
)

logger = logging.getLogger(__name__)

__all__ = ["CompiledPlan", "PlanCache"]


class PlanCache:
    """Program-lifetime cache of compiled plans and delta-rule rewrites.

    Also the home of the maintenance perf counters that the plans feed:
    ``hits``/``misses`` per plan lookup, ``invalidations`` (entries
    dropped by program changes), and ``index_probes`` (indexed lookups
    executed by plans run under this cache).
    """

    __slots__ = (
        "_plans",
        "_variants",
        "_relevance",
        "hits",
        "misses",
        "invalidations",
        "index_probes",
    )

    def __init__(self) -> None:
        self._plans: Dict[tuple, CompiledPlan] = {}
        self._variants: Dict[tuple, tuple] = {}
        self._relevance: dict = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.index_probes = 0

    # -------------------------------------------------------------- plans

    def _size_signature(self, rule: Rule, ctx: EvalContext) -> tuple:
        """The argsort of the body relations' current sizes.

        Join ordering breaks boundness ties by relation size, so a plan
        is a pure function of the rule *and the relative size order* of
        its body relations.  Keying on the rank permutation (not the
        sizes themselves) makes a cached plan exactly what fresh
        planning would produce, while staying hit as long as relative
        sizes don't flip — the usual case for repeated small-delta
        passes, where deltas stay tiny and bases stay big.
        """
        probe = self._variants.get(("sig", rule))
        if probe is None:
            probe = tuple(
                (index, subgoal.predicate)
                for index, subgoal in enumerate(rule.body)
                if type(subgoal) is Literal and not subgoal.negated
            )
            self._variants[("sig", rule)] = probe
        relation = ctx.resolver.relation
        if len(probe) == 2:
            # The common shape (binary-join delta rules): avoid the
            # sorted() machinery.  Equal sizes keep body order, matching
            # the stable sort below.
            (first, first_pred), (second, second_pred) = probe
            if len(relation(first_pred)) <= len(relation(second_pred)):
                return (first, second)
            return (second, first)
        if len(probe) < 2:
            return tuple(index for index, _ in probe)
        sizes = sorted(
            (len(relation(predicate)), index) for index, predicate in probe
        )
        return tuple(index for _, index in sizes)

    def plan(
        self,
        rule: Rule,
        seed: Optional[int],
        adornment: FrozenSet[str],
        ctx: EvalContext,
    ) -> CompiledPlan:
        """The compiled plan for ``rule`` under ``adornment``; compile on miss.

        ``adornment`` is the set of variable names bound before the body
        runs (non-empty only for provenance-style seeded evaluation); it
        changes which positions are indexable, so it is part of the key,
        as is the count policy the context applies to each literal.  The
        plan writes its join kernel on its first run.
        """
        key = (
            rule, seed, adornment, self._size_signature(rule, ctx),
            unit_signature(rule, ctx),
        )
        found = self._plans.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        compiled = compile_plan(rule, seed, adornment, ctx, declare=True)
        self._plans[key] = compiled
        return compiled

    # ----------------------------------------------------- variant rewrites

    def expansion_variants(self, rule: Rule, changed: FrozenSet[str]) -> tuple:
        """Cached expansion delta rules of ``rule`` w.r.t. ``changed``.

        ``changed`` may be the full per-stratum changed set: the rewrite
        only depends on its intersection with the rule's body predicates,
        so the key is restricted to that intersection here — keeping the
        hit rate high across passes that change different (irrelevant)
        relations.
        """
        body = self._variants.get(("body", rule))
        if body is None:
            body = frozenset(
                subgoal.predicate
                for subgoal in rule.body
                if isinstance(subgoal, Literal)
            )
            self._variants[("body", rule)] = body
        changed = changed & body
        key = ("expansion", rule, changed)
        found = self._variants.get(key)
        if found is not None:
            self.hits += 1
            return found
        from repro.core.delta_rules import expansion_delta_rules

        self.misses += 1
        variants = tuple(expansion_delta_rules(rule, set(changed)))
        self._variants[key] = variants
        return variants

    def factored_variants(self, rule: Rule) -> tuple:
        """Cached factored (Definition 4.1) delta rules of ``rule``."""
        key = ("factored", rule)
        found = self._variants.get(key)
        if found is not None:
            self.hits += 1
            return found
        from repro.core.delta_rules import factored_delta_rules

        self.misses += 1
        variants = tuple(factored_delta_rules(rule))
        self._variants[key] = variants
        return variants

    def seminaive_variants(self, rule: Rule, targets: FrozenSet[str]) -> tuple:
        """Cached one-delta-subgoal variants for the semi-naive fixpoint."""
        key = ("seminaive", rule, targets)
        found = self._variants.get(key)
        if found is not None:
            self.hits += 1
            return found
        from repro.eval.seminaive import _delta_variants

        self.misses += 1
        variants = tuple(_delta_variants(rule, targets))
        self._variants[key] = variants
        return variants

    def resolver_recipe(self, rule: Rule) -> tuple:
        """Cached override recipe for a counting delta rule's resolver.

        The recipe — which body predicates resolve to old/Δ/ν/Δ¬
        relations — is pure rule structure; only the relations themselves
        change per pass.  See ``counting.resolver_overrides_recipe``.
        """
        key = ("resolver", rule)
        found = self._variants.get(key)
        if found is not None:
            self.hits += 1
            return found
        from repro.core.counting import resolver_overrides_recipe

        self.misses += 1
        recipe = resolver_overrides_recipe(rule)
        self._variants[key] = recipe
        return recipe

    # ----------------------------------------------------- program artifacts

    def relevance_filter(self, program):
        """The compiled [BCL89] relevance filter for ``program`` (cached)."""
        found = self._relevance.get(program)
        if found is not None:
            self.hits += 1
            return found
        from repro.core.irrelevance import RelevanceFilter

        self.misses += 1
        compiled = RelevanceFilter(program)
        self._relevance[program] = compiled
        return compiled

    # -------------------------------------------------------------- control

    def invalidate(self) -> int:
        """Drop every cached entry (program changed); returns #dropped.

        Counters other than ``invalidations`` are preserved — they are
        lifetime totals, surfaced via ``MaintenanceStats``.
        """
        dropped = len(self._plans) + len(self._variants) + len(self._relevance)
        self._plans.clear()
        self._variants.clear()
        self._relevance.clear()
        self.invalidations += dropped
        if dropped:
            logger.debug("plan cache invalidated: %d entries dropped", dropped)
        return dropped

    def __len__(self) -> int:
        """Number of cached plans + variant rewrites + program artifacts."""
        return len(self._plans) + len(self._variants) + len(self._relevance)

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<PlanCache |{len(self)}| hits={self.hits} "
            f"misses={self.misses} hit_rate={self.hit_rate():.2f}>"
        )
