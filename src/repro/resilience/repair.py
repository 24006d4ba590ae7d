"""Self-healing: rebuild diverged views from the base relations.

:meth:`ViewMaintainer.consistency_check` raises
:class:`~repro.errors.DivergenceError` when a stored materialization no
longer matches recomputation — external database mutation, a bug, or
state corruption survived from before crash safety existed.  The opt-in
repair path here recomputes every view from the base relations, replaces
exactly the damaged ones (in place, so held references stay valid),
rebuilds the aggregate group states that depend on them, and reports
what was healed.

Usage::

    try:
        maintainer.consistency_check()
    except DivergenceError:
        report = maintainer.heal()
        print(report.summary())
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MaintenanceError
from repro.obs.metrics import get_default_registry
from repro.storage.relation import CountedRelation

logger = logging.getLogger(__name__)


@dataclass
class RepairReport:
    """What :func:`repair_divergence` found and fixed.

    ``healed`` maps each rebuilt view to ``(missing, extra)`` — the
    number of set-level tuples that were absent from / spurious in the
    stored materialization.  Count-only divergence (right tuples, wrong
    multiplicities) heals with ``(0, 0)``.  ``epoch`` is the MVCC epoch
    the repair itself committed (``None``: MVCC off or nothing healed).
    """

    healed: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    aggregates_reset: List[str] = field(default_factory=list)
    epoch: Optional[int] = None

    def is_clean(self) -> bool:
        """True when nothing needed repair."""
        return not self.healed

    def summary(self) -> str:
        if self.is_clean():
            return "all views consistent; nothing healed"
        parts = [
            f"{view} (missing {missing}, extra {extra})"
            for view, (missing, extra) in sorted(self.healed.items())
        ]
        text = f"healed {len(self.healed)} view(s): " + ", ".join(parts)
        if self.aggregates_reset:
            text += "; aggregate states rebuilt: " + ", ".join(
                self.aggregates_reset
            )
        return text


def view_matches(maintainer, actual: CountedRelation, expected: CountedRelation) -> bool:
    """The comparator :meth:`consistency_check` uses, shared with repair.

    Counting's stored counts are meaningful (under either semantics), so
    the full multiplicities must match; the set-only strategies answer
    for the set projections alone.
    """
    if maintainer.set_only:
        return actual.as_set() == expected.as_set()
    return actual.to_dict() == expected.to_dict()


def repair_divergence(
    maintainer, validated_epoch: Optional[int] = None
) -> RepairReport:
    """Rebuild every diverged view from the base relations.

    Repaired relations are patched *in place* (their row stores are
    replaced, the objects stay), group states of all aggregate views are
    rebuilt whenever anything was healed, and the returned
    :class:`RepairReport` lists the damage.  A clean maintainer returns
    an empty report — calling this is always safe.

    ``validated_epoch`` guards against racing the writer: when given
    (by ``consistency_check(repair=True)``), the repair refuses to
    patch if the database has committed a newer epoch since the
    divergence was observed, or a pass is currently in flight — the
    evidence is stale; re-run the check.  Under MVCC the patch itself
    runs in one autocommitted epoch, so pinned snapshot readers see
    either the damaged state or the healed state, never a mix.
    """
    from repro.storage.mvcc import autocommit

    mvcc = maintainer.database.mvcc
    if mvcc is not None and validated_epoch is not None:
        if mvcc.in_flight or mvcc.epoch != validated_epoch:
            raise MaintenanceError(
                f"refusing to repair: divergence was validated at epoch "
                f"{validated_epoch} but the database is now at epoch "
                f"{mvcc.epoch}"
                + (" with a pass in flight" if mvcc.in_flight else "")
                + "; re-run consistency_check()"
            )
    report = RepairReport()
    damaged: Dict[str, CountedRelation] = {}
    for name, expected in maintainer._rebuild_views().items():
        actual = maintainer.views.get(name)
        if actual is not None and view_matches(maintainer, actual, expected):
            continue
        stored = actual.as_set() if actual is not None else set()
        damaged[name] = expected
        report.healed[name] = (
            len(expected.as_set() - stored), len(stored - expected.as_set())
        )
    if damaged:
        # One epoch for the whole patch set: snapshot readers see the
        # damaged state or the healed state, never a mix (a clean heal
        # commits nothing and bumps no epoch).  Aggregate group states
        # are derived caches over the (possibly damaged) grouped
        # relations; adopting rebuilds them all from the repaired state
        # rather than guessing which drifted.
        with autocommit(mvcc):
            maintainer._adopt_views(damaged)
        if mvcc is not None:
            report.epoch = mvcc.epoch
        report.aggregates_reset = sorted(maintainer.aggregate_views)
        logger.warning("divergence repaired: %s", report.summary())
        get_default_registry().counter(
            "repro_heal_healed_views_total",
            "Views rebuilt by repair_divergence.",
        ).inc(len(report.healed))
    return report
