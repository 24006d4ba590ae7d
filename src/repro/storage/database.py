"""A named store of counted relations (the edb, plus materializations).

The evaluator and the maintenance algorithms both see the database as a
uniform mapping from relation name to :class:`CountedRelation`.  Base
relations are updated directly through changesets; derived relations are
only written by the evaluator / maintainer.

:meth:`Database.apply_changeset` enforces the Lemma 4.1 precondition:
deleted base tuples must be a subset (as a multiset) of the stored
relation — deleting more copies of a row than exist raises
:class:`~repro.errors.MaintenanceError` before anything is mutated.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import MaintenanceError, SchemaError, UnknownRelationError
from repro.storage.changeset import Changeset
from repro.storage.relation import CountedRelation


class Database:
    """A mutable collection of named counted relations.

    With ``mvcc=True`` (the default) the database owns a
    :class:`~repro.storage.mvcc.VersionManager`: every commit stamps a
    monotonically increasing epoch, relations keep a bounded chain of
    committed versions (``retain_versions`` entries per relation at
    most), and readers take :meth:`snapshot` handles pinned to an
    epoch.  Direct writes outside a maintenance pass commit their own
    mini-epoch; maintenance passes bracket the whole pass in one epoch
    via the maintainer.  ``mvcc=False`` restores the bare store
    (scratch databases, the recompute oracle).

    ``sanitize=True`` attaches a
    :class:`repro.analysis.sanitizer.RuntimeSanitizer` to the version
    manager: every protocol edge (begin/commit/abort/read) checks the
    paper's invariants and raises
    :class:`~repro.errors.SanitizerError` on the first violation.
    ``sanitize=None`` (the default) consults the ``REPRO_SANITIZE``
    environment variable (``1``/``true``/``yes`` enable), so smokes
    and soaks can opt whole process trees in without code changes.
    """

    __slots__ = ("_relations", "_mvcc")

    def __init__(
        self,
        mvcc: bool = True,
        retain_versions: int = 8,
        sanitize: Optional[bool] = None,
    ) -> None:
        self._relations: Dict[str, CountedRelation] = {}
        if mvcc:
            from repro.storage.mvcc import VersionManager

            self._mvcc: Optional["VersionManager"] = VersionManager(
                retain_versions=retain_versions
            )
            if sanitize is None:
                import os

                sanitize = os.environ.get(
                    "REPRO_SANITIZE", ""
                ).strip().lower() in ("1", "true", "yes", "on")
            if sanitize:
                from repro.analysis.sanitizer import RuntimeSanitizer

                self._mvcc.sanitizer = RuntimeSanitizer()
        else:
            self._mvcc = None

    @property
    def sanitizer(self):
        """The attached RuntimeSanitizer, or ``None`` when disabled."""
        return self._mvcc.sanitizer if self._mvcc is not None else None

    # ----------------------------------------------------------------- mvcc

    @property
    def mvcc(self):
        """The :class:`~repro.storage.mvcc.VersionManager`, or ``None``."""
        return self._mvcc

    @property
    def epoch(self) -> int:
        """The last committed epoch (0 when MVCC is off)."""
        return self._mvcc.epoch if self._mvcc is not None else 0

    def snapshot(self, epoch: Optional[int] = None):
        """Pin a consistent read handle (a context manager).

        ``epoch=None`` pins the current committed epoch.  Raises
        :class:`~repro.errors.MaintenanceError` when MVCC is off.
        """
        if self._mvcc is None:
            raise MaintenanceError(
                "snapshots need MVCC; this database was built with "
                "mvcc=False"
            )
        return self._mvcc.snapshot(epoch)

    def _autocommit(self):
        from repro.storage.mvcc import autocommit

        return autocommit(self._mvcc)

    # --------------------------------------------------------------- schema

    def create_relation(self, name: str, arity: Optional[int] = None) -> CountedRelation:
        """Create an empty relation; error if the name already exists."""
        if name in self._relations:
            raise SchemaError(f"relation {name} already exists")
        relation = CountedRelation(name, arity)
        self._relations[name] = relation
        if self._mvcc is not None:
            self._mvcc.register(name, relation)
        return relation

    def ensure_relation(self, name: str, arity: Optional[int] = None) -> CountedRelation:
        """Return the relation, creating an empty one if missing."""
        relation = self._relations.get(name)
        if relation is None:
            relation = CountedRelation(name, arity)
            self._relations[name] = relation
            if self._mvcc is not None:
                self._mvcc.register(name, relation)
        elif arity is not None and relation.arity is None:
            relation.arity = arity
        return relation

    def fix_arities(self, arities: Dict[str, Optional[int]]) -> None:
        """Give each named relation its arity, creating the missing ones.

        ``add``/``merge`` then refuse a row of another length before
        anything changes.  A stored relation of another arity is a
        :class:`SchemaError`, raised before any relation changes; only a
        relation with no arity yet (rows added unchecked) has its rows
        read.
        """
        for name, arity in arities.items():
            relation = self._relations.get(name)
            if arity is not None and relation is not None and (
                relation.arity not in (None, arity) or (
                    relation.arity is None
                    and any(len(row) != arity for row in relation.rows())
                )
            ):
                raise SchemaError(
                    f"relation {name} holds rows that are not of arity {arity}"
                )
        for name, arity in arities.items():
            self.ensure_relation(name, arity)

    def adopt_relation(self, name: str, relation: CountedRelation) -> CountedRelation:
        """Install an existing relation object under ``name``.

        Replacing a different object already bound to ``name`` severs
        MVCC history (old epochs can no longer be reconstructed across
        the object swap).
        """
        current = self._relations.get(name)
        self._relations[name] = relation
        if self._mvcc is not None and current is not relation:
            self._mvcc.rebind({name: relation})
        return relation

    def drop_relation(self, name: str) -> None:
        if name not in self._relations:
            raise UnknownRelationError(f"relation {name} does not exist")
        del self._relations[name]
        if self._mvcc is not None:
            self._mvcc.unregister(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation(self, name: str) -> CountedRelation:
        relation = self._relations.get(name)
        if relation is None:
            raise UnknownRelationError(f"relation {name} does not exist")
        return relation

    def get(self, name: str) -> Optional[CountedRelation]:
        return self._relations.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def __iter__(self) -> Iterator[CountedRelation]:
        return iter(self._relations.values())

    # ----------------------------------------------------------------- data

    def insert(self, name: str, row: Iterable[object], count: int = 1) -> None:
        """Directly insert into a (base) relation, count 1 by default."""
        with self._autocommit():
            self.ensure_relation(name).add(tuple(row), count)

    def insert_rows(self, name: str, rows: Iterable[Iterable[object]]) -> None:
        with self._autocommit():
            relation = self.ensure_relation(name)
            for row in rows:
                relation.add(tuple(row), 1)

    def delete(self, name: str, row: Iterable[object], count: int = 1) -> None:
        """Directly delete from a (base) relation.

        Raises if the relation does not hold enough copies of the row.
        """
        relation = self.relation(name)
        row = tuple(row)
        if relation.count(row) < count:
            raise MaintenanceError(
                f"cannot delete {count} copies of {row!r} from {name}: "
                f"only {relation.count(row)} stored"
            )
        with self._autocommit():
            relation.add(row, -count)

    def apply_changeset(self, changes: Changeset) -> None:
        """Apply a base-relation changeset atomically.

        Validates the whole changeset first (deletions must not exceed
        stored multiplicities, rows must match declared arities) so a
        failed apply leaves the database untouched.
        """
        for name, delta in changes:
            relation = self._relations.get(name)
            if relation is not None and relation.arity is not None:
                for row in delta.rows():
                    if len(row) != relation.arity:
                        raise SchemaError(
                            f"relation {name} has arity {relation.arity}; "
                            f"changeset row {row!r} has length {len(row)}"
                        )
            for row, count in delta.negative_items():
                stored = relation.count(row) if relation is not None else 0
                if stored + count < 0:  # count is negative
                    raise MaintenanceError(
                        f"changeset deletes {-count} copies of {row!r} from "
                        f"{name} but only {stored} are stored (Lemma 4.1 "
                        f"requires deletions to be a subset of the database)"
                    )
        with self._autocommit():
            for name, delta in changes:
                self.ensure_relation(name).merge(delta)

    # -------------------------------------------------------------- utility

    def copy(self) -> "Database":
        """A deep copy of every relation (indexes rebuild lazily).

        The clone gets its own fresh version manager (epoch 0, empty
        chains) when this database has one — version history is not
        copied; it describes *this* store's commits, not the clone's.
        """
        if self._mvcc is not None:
            clone = Database(retain_versions=self._mvcc.retain_versions)
        else:
            clone = Database(mvcc=False)
        for name, relation in self._relations.items():
            copied = relation.copy()
            clone._relations[name] = copied
            if clone._mvcc is not None:
                clone._mvcc.register(name, copied)
        return clone

    def total_rows(self) -> int:
        """Total number of distinct rows across all relations."""
        return sum(len(relation) for relation in self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        names = set(self._relations) | set(other._relations)
        for name in names:
            mine = self._relations.get(name)
            theirs = other._relations.get(name)
            mine_rows = mine.to_dict() if mine is not None else {}
            theirs_rows = theirs.to_dict() if theirs is not None else {}
            if mine_rows != theirs_rows:
                return False
        return True

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Database is mutable and unhashable")

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}|{len(rel)}|" for name, rel in sorted(self._relations.items())
        )
        return f"<Database {sizes}>"
