"""Counted relations: multisets of tuples with derivation counts.

Section 3 of the paper defines relations whose tuples carry a *count*:
the number of distinct derivations under duplicate semantics.  Change
relations (``Δ(P)``) carry positive counts for insertions and negative
counts for deletions.  Two operations are redefined for counted
relations:

* the union ``⊎`` adds counts and drops tuples whose counts cancel to 0
  (:meth:`CountedRelation.merge`, :meth:`CountedRelation.add`);
* the join multiplies counts of joined tuples (implemented in
  :mod:`repro.eval.rule_eval`).

A :class:`CountedRelation` never stores a zero count.  Stored
materializations must satisfy the Lemma 4.1 invariant (no negative
counts) — :meth:`assert_nonnegative` checks it; delta relations may mix
signs freely.

Relations maintain hash indexes over column subsets.  Indexes are created
lazily by the evaluator and maintained incrementally on every mutation,
so repeated small maintenance batches never pay a full re-index.  Index
key specs can additionally be *declared* (:meth:`declare_index`) —
declared specs survive :meth:`clear`, :meth:`replace_rows`, and
:meth:`copy`, so a compiled plan that probes a declared index never pays
a surprise full rebuild after the relation is reset or rolled back.

An index maps a key to a compact *bucket*: the bare row when one row has
that key, a list of rows up to :data:`LIST_BUCKET_MAX`, and a dict
(``row → None``) beyond that, so large buckets keep O(1) removal.  A
single-column spec is keyed by the bare value, a wider one by the tuple
of values (what :func:`key_getter` returns).  :func:`bucket_rows` turns
a bucket back into an iterable of rows.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple,
)

from repro.errors import MaintenanceError, SchemaError

#: A database tuple.  Values are arbitrary hashable Python objects.
Row = Tuple[object, ...]

#: The most rows a list bucket holds; one more turns it into a dict.
LIST_BUCKET_MAX = 32

_GETTERS: Dict[Tuple[int, ...], Callable[[Row], object]] = {}


def key_getter(positions: Tuple[int, ...]) -> Callable[[Row], object]:
    """A row's index key on ``positions``: the bare value for one column,
    the tuple of values for several (``operator.itemgetter``)."""
    getter = _GETTERS.get(positions)
    if getter is None:
        getter = _GETTERS[positions] = itemgetter(*positions)
    return getter


def bucket_rows(bucket) -> Tuple[Row, ...]:
    """The rows of an index bucket, as a tuple the caller may keep."""
    if bucket is None:
        return ()
    if type(bucket) is tuple:
        return (bucket,)
    return tuple(bucket)


def _bucket_add(index: dict, key, row: Row) -> None:
    bucket = index.get(key)
    if bucket is None:
        # A bare row must be told apart from a list or dict of rows.
        index[key] = row if type(row) is tuple else [row]
    elif type(bucket) is tuple:
        index[key] = [bucket, row]
    elif type(bucket) is list:
        if len(bucket) < LIST_BUCKET_MAX:
            bucket.append(row)
        else:
            grown = dict.fromkeys(bucket)
            grown[row] = None
            index[key] = grown
    else:
        bucket[row] = None


def _bucket_remove(index: dict, key, row: Row) -> None:
    bucket = index.get(key)
    if bucket is None:
        return
    if type(bucket) is tuple:
        del index[key]
        return
    if type(bucket) is list:
        bucket.remove(row)
        left = len(bucket)
    else:
        del bucket[row]
        left = len(bucket)
        if left > LIST_BUCKET_MAX // 4:
            return
        bucket = list(bucket)
        index[key] = bucket
    if left == 1 and type(bucket[0]) is tuple:
        index[key] = bucket[0]
    elif left == 0:
        del index[key]


class CountedRelation:
    """A multiset of rows with signed multiplicities.

    The public mutators are :meth:`add` (⊎ of a single row),
    :meth:`merge` (⊎ of a whole relation), and :meth:`clear`; all keep
    the no-zero-counts invariant and all secondary indexes up to date.
    """

    __slots__ = (
        "name", "arity", "_rows", "_indexes", "_declared",
        "_pending", "_versions",
    )

    def __init__(
        self,
        name: str = "",
        arity: Optional[int] = None,
        rows: Optional[Iterable[Tuple[Row, int]]] = None,
    ) -> None:
        self.name = name
        self.arity = arity
        self._rows: Dict[Row, int] = {}
        # positions → {key → bucket}; maintained incrementally.
        self._indexes: Dict[Tuple[int, ...], dict] = {}
        # Declared index key specs: re-registered across clear/replace/copy.
        self._declared: Set[Tuple[int, ...]] = set()
        # MVCC hooks (repro.storage.mvcc).  While an epoch is open,
        # ``_pending`` maps each row touched so far to its pre-image
        # count; ``None`` means no epoch is recording.  ``_versions`` is
        # the committed backward-delta chain: ``(epoch, pre_images)``
        # entries, oldest first.  Pre-images are recorded *before* the
        # mutation they shadow — concurrent snapshot readers rely on
        # that ordering for torn-read freedom.
        self._pending: Optional[Dict[Row, int]] = None
        self._versions: list = []
        if rows is not None:
            for row, count in rows:
                self.add(row, count)

    # ------------------------------------------------------------ basic ops

    def add(self, row: Row, count: int = 1) -> int:
        """⊎ a single row: returns the row's new count (0 if removed)."""
        if count == 0:
            return self._rows.get(row, 0)
        if self.arity is not None and len(row) != self.arity:
            self._check_arity(row)
        old = self._rows.get(row, 0)
        pending = self._pending
        if pending is not None and row not in pending:
            pending[row] = old
        new = old + count
        if new == 0:
            del self._rows[row]
            if old != 0:
                self._index_remove(row)
        else:
            self._rows[row] = new
            if old == 0:
                self._index_insert(row)
        return new

    def discard(self, row: Row) -> int:
        """Remove a row entirely regardless of count; returns the old count."""
        old = self._rows.get(row, 0)
        if old == 0:
            return 0
        pending = self._pending
        if pending is not None and row not in pending:
            pending[row] = old
        del self._rows[row]
        self._index_remove(row)
        return old

    def set_count(self, row: Row, count: int) -> None:
        """Force a row's count (0 removes the row)."""
        self.add(row, count - self._rows.get(row, 0))

    def merge(self, other: "CountedRelation | Mapping[Row, int]") -> None:
        """In-place ⊎ with another counted relation (Section 3).

        A batch: the counts are summed first, then each index is brought
        up to date in one loop over the rows that appeared or vanished.
        Row arities are checked before anything changes.
        """
        arity = self.arity
        if other is self:
            items = list(self._rows.items())  # ⊎ with itself mutates the source
        elif isinstance(other, CountedRelation):
            items = other._rows.items()
            if arity is not None and other.arity != arity:
                for row in other._rows:
                    if len(row) != arity:
                        self._check_arity(row)
        else:
            items = other.items()
            if arity is not None:
                items = list(items)
                for row, _count in items:
                    if len(row) != arity:
                        self._check_arity(row)
        self._merge_items(items)

    def absorb(self, counts: Dict[Row, int]) -> None:
        """⊎ a ``{row: count}`` dict the caller hands over and drops.

        An empty relation that records no pre-images adopts the dict as
        its row store and builds each index once; otherwise this is
        :meth:`merge`.  The caller vouches that ``counts`` holds no zero
        counts and only rows of this relation's arity.
        """
        if not counts:
            return
        if self._rows or self._pending is not None or type(counts) is not dict:
            self._merge_items(counts.items())
            return
        self._rows = counts
        for positions, index in self._indexes.items():
            index.clear()
            self._fill_index(positions, index)

    def _merge_items(self, items: Iterable[Tuple[Row, int]]) -> None:
        rows = self._rows
        pending = self._pending
        indexes = self._indexes
        born: list = []
        dead: list = []
        for row, count in items:
            if not count:
                continue
            old = rows.get(row, 0)
            if pending is not None and row not in pending:
                pending[row] = old
            new = old + count
            if new:
                rows[row] = new
                if not old:
                    born.append(row)
            else:
                del rows[row]
                dead.append(row)
        if not indexes:
            return
        for positions, index in indexes.items():
            key_of = key_getter(positions)
            for row in dead:
                _bucket_remove(index, key_of(row), row)
            for row in born:
                _bucket_add(index, key_of(row), row)

    def _check_arity(self, row: Row) -> None:
        if len(row) != self.arity:
            raise SchemaError(
                f"relation {self.name or '<anon>'} has arity {self.arity}; "
                f"got row of length {len(row)}: {row!r}"
            )

    def merged(self, other: "CountedRelation") -> "CountedRelation":
        """Pure ⊎: a fresh relation equal to ``self ⊎ other``."""
        result = self.copy()
        result.merge(other)
        return result

    def clear(self) -> None:
        """Remove every row; all registered index key specs stay live.

        Built indexes are emptied, not dropped, and declared specs are
        re-registered, so cached plans probing them after a clear pay no
        full rebuild — the (empty) indexes are simply maintained forward.
        """
        pending = self._pending
        if pending is not None:
            for row, count in self._rows.items():
                if row not in pending:
                    pending[row] = count
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        for positions in self._declared:
            self._indexes.setdefault(positions, {})

    def copy(self, name: Optional[str] = None) -> "CountedRelation":
        """A deep copy (indexes are not copied; they rebuild lazily).

        Declared index key specs carry over, so the clone rebuilds them
        once on first probe and maintains them incrementally after that.
        """
        clone = CountedRelation(name if name is not None else self.name, self.arity)
        clone._rows = dict(self._rows)
        clone._declared = set(self._declared)
        return clone

    def replace_rows(self, rows: Mapping[Row, int]) -> None:
        """Replace the whole row store in place (rollback/repair hook).

        Keeps this object's identity — references held elsewhere stay
        valid — while the contents become exactly ``rows``.  Ad-hoc
        indexes are dropped (they rebuild lazily); declared index key
        specs are rebuilt immediately so cached plans keep their
        always-on indexes through rollback and repair.
        """
        pending = self._pending
        if pending is not None:
            for row, count in self._rows.items():
                if count != rows.get(row, 0) and row not in pending:
                    pending[row] = count
            for row, count in rows.items():
                if count != 0 and row not in self._rows and row not in pending:
                    pending[row] = 0
        self._rows = dict(rows)
        self._indexes = {}
        for positions in self._declared:
            self.ensure_index(positions)

    # ----------------------------------------------------------- inspection

    def count(self, row: Row) -> int:
        """The stored count of ``row`` (0 when absent)."""
        return self._rows.get(row, 0)

    def __contains__(self, row: Row) -> bool:
        return self._rows.get(row, 0) != 0

    def contains_positive(self, row: Row) -> bool:
        """Set-semantics membership: present with a positive count."""
        return self._rows.get(row, 0) > 0

    def __len__(self) -> int:
        """Number of *distinct* rows."""
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def items(self) -> Iterator[Tuple[Row, int]]:
        """Iterate ``(row, count)`` pairs.

        Snapshots the backing dict so callers may mutate while iterating
        (the maintenance algorithms interleave reads and ⊎ updates).
        """
        return iter(list(self._rows.items()))

    def rows(self) -> Iterator[Row]:
        """Iterate distinct rows (snapshot, like :meth:`items`)."""
        return iter(list(self._rows.keys()))

    def positive_items(self) -> Iterator[Tuple[Row, int]]:
        """``(row, count)`` pairs with positive counts (the insertions)."""
        return iter([(r, c) for r, c in self._rows.items() if c > 0])

    def negative_items(self) -> Iterator[Tuple[Row, int]]:
        """``(row, count)`` pairs with negative counts (the deletions)."""
        return iter([(r, c) for r, c in self._rows.items() if c < 0])

    def total_count(self) -> int:
        """Sum of all counts — the duplicate-semantics cardinality."""
        return sum(self._rows.values())

    def to_dict(self) -> Dict[Row, int]:
        """A plain dict snapshot ``{row: count}``."""
        return dict(self._rows)

    def as_set(self) -> frozenset:
        """The set projection: rows with positive counts."""
        return frozenset(r for r, c in self._rows.items() if c > 0)

    # ------------------------------------------------- set-semantics helpers

    def set_view(self, name: str = "") -> "CountedRelation":
        """A copy with every positive count normalized to 1.

        This is the ``set(P)`` of Algorithm 4.1 statement (2) and the
        Section 5.1 convention that lower-stratum tuples count as 1.
        """
        view = CountedRelation(name or self.name, self.arity)
        for row, count in self._rows.items():
            if count > 0:
                view._rows[row] = 1
        return view

    def set_difference_delta(self, old: "CountedRelation") -> "CountedRelation":
        """``set(self) − set(old)`` as a signed delta (statement (2)).

        Rows appearing (count became positive) get +1; rows disappearing
        get −1; rows present on both sides are dropped even if their
        counts differ — that is the whole point of the optimization.
        """
        delta = CountedRelation(f"Δset({self.name})", self.arity)
        for row, count in self._rows.items():
            if count > 0 and not old.contains_positive(row):
                delta._rows[row] = 1
        for row, count in old._rows.items():
            if count > 0 and not self.contains_positive(row):
                delta._rows[row] = -1
        return delta

    def assert_nonnegative(self) -> None:
        """Check the Lemma 4.1 invariant over every stored row."""
        self.check_nonnegative(self._rows)

    def check_nonnegative(self, rows: Iterable[Row]) -> None:
        """Check the Lemma 4.1 invariant on ``rows`` only.

        After ``merge(delta)`` a count can only have gone negative at a
        row of ``delta``, so a maintenance pass checks those rows and
        the cost tracks the change, not the materialization.
        """
        stored = self._rows
        for row in rows:
            count = stored.get(row, 0)
            if count < 0:
                raise MaintenanceError(
                    f"stored relation {self.name or '<anon>'} holds row "
                    f"{row!r} with negative count {count} — more deletions "
                    f"were applied than derivations exist"
                )

    # -------------------------------------------------------------- indexes

    def declare_index(self, positions: Tuple[int, ...]) -> None:
        """Register ``positions`` as an always-on index key spec.

        The index is built now (if absent) and maintained incrementally
        on every mutation, like any other; unlike lazily-created
        indexes it is re-registered by :meth:`clear`,
        :meth:`replace_rows`, and :meth:`copy`.  Compiled plans declare
        the specs they probe so repeated maintenance passes never pay a
        full rebuild.
        """
        if not positions:
            return
        self._declared.add(tuple(positions))
        self.ensure_index(tuple(positions))

    def declared_indexes(self) -> Tuple[Tuple[int, ...], ...]:
        """The declared index key specs, sorted (introspection/tests)."""
        return tuple(sorted(self._declared))

    def ensure_index(self, positions: Tuple[int, ...]) -> dict:
        """Build (once) and return the hash index on ``positions``.

        The index maps a key (:func:`key_getter` of ``positions``) to
        the bucket of rows carrying that key (see the module docstring).
        Subsequent mutations keep it current.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            self._fill_index(positions, index)
            self._indexes[positions] = index
        return index

    def _fill_index(self, positions: Tuple[int, ...], index: dict) -> None:
        key_of = key_getter(positions)
        for row in self._rows:
            _bucket_add(index, key_of(row), row)

    def lookup(self, positions: Tuple[int, ...], key: Row) -> Iterable[Row]:
        """Rows whose values at ``positions`` equal ``key`` (via index)."""
        if not positions:
            return self.rows()
        index = self.ensure_index(positions)
        return bucket_rows(index.get(key[0] if len(positions) == 1 else key))

    def _index_insert(self, row: Row) -> None:
        for positions, index in self._indexes.items():
            _bucket_add(index, key_getter(positions)(row), row)

    def _index_remove(self, row: Row) -> None:
        for positions, index in self._indexes.items():
            _bucket_remove(index, key_getter(positions)(row), row)

    # ------------------------------------------------------------- equality

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CountedRelation):
            return self._rows == other._rows
        if isinstance(other, dict):
            return self._rows == other
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("CountedRelation is mutable and unhashable")

    def __repr__(self) -> str:
        label = self.name or "relation"
        preview = ", ".join(
            f"{row}:{count}" for row, count in sorted(self._rows.items())[:8]
        )
        suffix = ", ..." if len(self._rows) > 8 else ""
        return f"<{label} |{len(self._rows)}| {{{preview}{suffix}}}>"


class PreImageView:
    """A relation as it stood before the changes a pre-image map records.

    Read-through, never a copy: ``live`` overlaid with ``pre_images``,
    the first-touch map ``{row: count before}`` that ``live`` fills in
    ahead of every mutation while it is recording (``_pending``).  With
    no map given the view reads the recorder an MVCC epoch opened, or
    opens one itself — :meth:`release` then closes it — so old-state
    reads, rollback and MVCC share one record of what a pass changed.

    It answers what the evaluator asks of a relation.  A probe costs the
    live index probe, minus the rows born since, plus a probe of the
    small indexed relation of touched rows that existed before; only a
    scan (:meth:`items`) is sized by the relation.
    """

    __slots__ = ("live", "pre_images", "recording", "_size", "_touched", "_seen")

    def __init__(
        self,
        live: CountedRelation,
        pre_images: Optional[Dict[Row, int]] = None,
    ) -> None:
        self.live = live
        if pre_images is None:
            pre_images = live._pending
        #: True when this view opened the recorder (nobody else had).
        self.recording = pre_images is None
        if self.recording:
            pre_images = live._pending = {}
        self.pre_images = pre_images
        # The pre-state's size never changes; the map is normally still
        # empty here, so counting it once is free.
        self._size = len(live) + sum(
            (before != 0) - (row in live) for row, before in pre_images.items()
        )
        # Touched rows that existed before, indexed for lookup();
        # ``_seen`` is how much of the (append-only) map it reflects.
        self._touched = CountedRelation()
        self._seen = 0

    def release(self) -> None:
        """Close the recorder if this view opened it; reads keep working."""
        if self.recording:
            self.recording = False
            self.live._pending = None

    @property
    def arity(self) -> Optional[int]:
        return self.live.arity

    def count(self, row: Row) -> int:
        before = self.pre_images.get(row)
        return self.live.count(row) if before is None else before

    def __contains__(self, row: Row) -> bool:
        return self.count(row) != 0

    def contains_positive(self, row: Row) -> bool:
        return self.count(row) > 0

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[Tuple[Row, int]]:
        pre_images = self.pre_images
        live = self.live
        for row, count in live.items():
            before = pre_images.get(row, count)
            if before:
                yield row, before
        for row, before in list(pre_images.items()):
            if before and row not in live:
                yield row, before

    def rows(self) -> Iterator[Row]:
        return (row for row, _ in self.items())

    def declare_index(self, positions: Tuple[int, ...]) -> None:
        self.live.declare_index(positions)

    def lookup(self, positions: Tuple[int, ...], key: Row) -> Iterable[Row]:
        if not positions:
            return self.rows()
        live = self.live
        rows = live.lookup(positions, key)
        pre_images = self.pre_images
        if not pre_images:
            return rows
        touched = self._touched
        if self._seen != len(pre_images):
            for row, before in islice(pre_images.items(), self._seen, None):
                touched.add(row, before)
            self._seen = len(pre_images)
        found = [row for row in rows if pre_images.get(row, 1)]
        found.extend(
            row for row in touched.lookup(positions, key) if row not in live
        )
        return found


def relation_from_rows(
    name: str, rows: Iterable[Row], arity: Optional[int] = None
) -> CountedRelation:
    """Build a counted relation from plain rows, each with count 1.

    Duplicate rows accumulate counts — handy for bag-semantics fixtures.
    """
    relation = CountedRelation(name, arity)
    for row in rows:
        relation.add(tuple(row), 1)
    return relation
