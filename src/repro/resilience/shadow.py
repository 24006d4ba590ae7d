"""Shadow-commit overlay: the undo log behind crash-safe ``apply()``.

A maintenance pass mutates shared state in many places — base relations,
stored view counts, aggregate group states — and the paper's algorithms
assume every pass runs to completion.  :class:`UndoLog` removes that
assumption: the maintenance engine notes the pre-image of every cell it
is about to touch (one ``(relation, row, old count)`` entry per changed
row, one saved group state per touched group), and
:meth:`UndoLog.unwind` replays the notes in reverse, restoring the
pre-pass state byte-identically.

The overhead is proportional to the *change*, not the database: a pass
touching 10 rows records 10 pre-images, no matter how large the views
are.  DRed and B/F read their old state through the first-touch
pre-image map each relation they mutate records
(:class:`~repro.storage.relation.PreImageView`); that map is shared with
the undo log, so old-state reads and rollback are one record.  On
success the log is simply dropped.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.storage.relation import CountedRelation, Row


class UndoLog:
    """Reverse-order log of pre-images; ``unwind()`` restores them all.

    Note-methods are cheap and may be called redundantly: entries are
    unwound newest-first, so the *earliest* note for a cell wins and
    later notes for the same cell are harmlessly overwritten on the way
    back.

    With ``track_rows=False`` the row-level notes (:meth:`note_count`,
    :meth:`note_counts`, :meth:`note_rows`) become no-ops: the MVCC
    layer (:mod:`repro.storage.mvcc`) already records every touched
    row's pre-image in the open epoch, and rollback restores row state
    by *discarding the uncommitted version* instead of replaying the
    undo log.  Everything else — aggregate group states, created base
    relations, reassigned attributes, remapped dicts — stays live; MVCC
    versions relation rows, not object graphs.
    """

    __slots__ = ("_ops", "track_rows")

    def __init__(self, track_rows: bool = True) -> None:
        self._ops: List[Tuple] = []
        self.track_rows = track_rows

    def __len__(self) -> int:
        return len(self._ops)

    # ------------------------------------------------------------- recording

    def note_count(self, relation: CountedRelation, row: Row) -> None:
        """Record one row's current count before it changes."""
        if not self.track_rows:
            return
        self._ops.append(("count", relation, row, relation.count(row)))

    def note_counts(self, relation: CountedRelation, rows: Iterable[Row]) -> None:
        """Record current counts for every row about to be merged into."""
        if not self.track_rows:
            return
        ops = self._ops
        count = relation.count
        for row in rows:
            ops.append(("count", relation, row, count(row)))

    def note_rows(
        self, relation: CountedRelation, pre_images: Mapping[Row, int]
    ) -> None:
        """Share a pre-image map of ``relation``: ``{row: count before}``.

        One entry however many rows the pass goes on to touch: the map
        is the one the relation itself fills in ahead of each mutation
        while it records (DRed's and B/F's old state reads through the
        same map), or one built by a caller that knows every row it is
        about to change (the recompute fallback).  Shared, not copied.
        """
        if not self.track_rows:
            return
        self._ops.append(("rows", relation, pre_images))

    def note_base_created(self, database, name: str) -> None:
        """Record that a base relation is about to be created."""
        self._ops.append(("drop_base", database, name))

    def note_group(self, states: Dict[Row, tuple], key: Row) -> None:
        """Record one aggregate group's state before it changes."""
        self._ops.append(("group", states, key, states.get(key)))

    def note_attr(self, obj: Any, attribute: str) -> None:
        """Record an attribute's current value before reassignment."""
        self._ops.append(("attr", obj, attribute, getattr(obj, attribute)))

    def note_mapping(self, mapping: Dict) -> None:
        """Record a dict's current contents before in-place mutation."""
        self._ops.append(("mapping", mapping, dict(mapping)))

    # -------------------------------------------------------------- unwinding

    def unwind(self) -> int:
        """Restore every pre-image, newest first; returns ops replayed."""
        ops = self._ops
        for op in reversed(ops):
            kind = op[0]
            if kind == "count":
                _, relation, row, old_count = op
                relation.set_count(row, old_count)
            elif kind == "rows":
                _, relation, pre_images = op
                for row, before in pre_images.items():
                    relation.set_count(row, before)
            elif kind == "drop_base":
                _, database, name = op
                if name in database:
                    database.drop_relation(name)
            elif kind == "group":
                _, states, key, old_state = op
                if old_state is None:
                    states.pop(key, None)
                else:
                    states[key] = old_state
            elif kind == "attr":
                _, obj, attribute, old_value = op
                setattr(obj, attribute, old_value)
            else:  # "mapping"
                _, mapping, old_items = op
                mapping.clear()
                mapping.update(old_items)
        replayed = len(ops)
        self._ops = []
        return replayed
