"""Changeset admission control.

Validates a changeset at ``apply()``/``apply_many()`` entry — before any
state is touched — so a poison changeset can be quarantined instead of
aborting mid-pass.  The checks mirror what the engines would reject
later (schema/arity, writes to derived relations, deletions violating
the Lemma 4.1 subset precondition) plus basic type sanity, phrased as
:class:`~repro.errors.PoisonChangesetError` so the caller can tell an
inadmissible *input* apart from an engine failure.
"""

from __future__ import annotations

from repro.errors import PoisonChangesetError
from repro.storage.changeset import Changeset


def validate_changeset(maintainer, changes: Changeset) -> None:
    """Raise :class:`PoisonChangesetError` if ``changes`` is inadmissible.

    ``maintainer`` supplies the schema context: the program's derived
    predicates, the stored base relations, and the set-only rule (DRed
    and B/F run set semantics over the base relations, so over-deletion
    means "row absent"; counting means "more copies than stored").
    """
    derived = maintainer.normalized.program.idb_predicates
    for name, delta in changes:
        if name in derived:
            raise PoisonChangesetError(
                f"changeset writes derived relation {name!r}; only base "
                "relations accept changes",
                relation=name,
            )
        stored = maintainer.database.get(name)
        # initialize() fixed every base predicate's arity from the program.
        arity = stored.arity if stored is not None else None
        for row, _count in delta.items():
            if not isinstance(row, tuple):
                raise PoisonChangesetError(
                    f"row {row!r} for {name} is not a tuple",
                    relation=name,
                )
            if arity is not None and len(row) != arity:
                raise PoisonChangesetError(
                    f"row {row!r} has arity {len(row)} but {name} "
                    f"stores arity {arity}",
                    relation=name,
                )
        if maintainer.set_only:
            for row, _count in delta.negative_items():
                if stored is None or not stored.contains_positive(row):
                    raise PoisonChangesetError(
                        f"changeset deletes {row!r} from {name} but it "
                        "is not stored",
                        relation=name,
                    )
        else:
            for row, count in delta.negative_items():
                held = stored.count(row) if stored is not None else 0
                if held + count < 0:
                    raise PoisonChangesetError(
                        f"changeset deletes {-count} copies of {row!r} "
                        f"from {name} but only {held} are stored",
                        relation=name,
                    )
