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


def _expected_arity(maintainer, name: str, stored) -> object:
    """Best arity evidence available: stored schema, program use, rows.

    Base relations built with ``insert_rows`` carry no declared arity,
    so fall back to how the program's rule bodies use the predicate and
    finally to the width of the rows already stored.  ``None`` means no
    evidence — the row is admitted and later layers decide.
    """
    if stored is not None and stored.arity is not None:
        return stored.arity
    for rule in maintainer.normalized.program:
        for subgoal in rule.body:
            args = getattr(subgoal, "args", None)
            if args is not None and getattr(
                subgoal, "predicate", None
            ) == name:
                return len(args)
    if stored is not None:
        for row in stored:
            return len(row)
    return None


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
        arity = _expected_arity(maintainer, name, stored)
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
