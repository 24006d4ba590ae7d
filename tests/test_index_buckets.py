"""Compact index buckets stay exact under every mutation path.

Index buckets are a bare row, a list, or (past ``LIST_BUCKET_MAX`` rows)
a dict.  A derandomized property runs random sequences of ``add``,
``discard``, ``merge``, ``absorb``, ``set_count``, ``clear``,
``replace_rows``, ``copy``, an MVCC epoch that is aborted, and an undo
log that is unwound.  After every step each declared index must answer
what an index rebuilt from ``_rows`` answers, and every bucket must
have its compact shape.  Inside the epoch, a ``PreImageView`` of the
relation must answer lookups exactly as a materialized copy of the old
state does.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience.shadow import UndoLog
from repro.storage.mvcc import VersionManager
from repro.storage.relation import (
    LIST_BUCKET_MAX,
    CountedRelation,
    PreImageView,
    bucket_rows,
    key_getter,
)

from conftest import indexed_reads

SPECS = ((0,), (1,), (0, 1))

# Column 0 has three values, so its buckets outgrow a list; column 1
# has forty, so its buckets stay bare rows and short lists.
rows = st.tuples(st.integers(0, 2), st.integers(0, 39))
counts = st.integers(-2, 3).filter(bool)
# A run of rows sharing one column-0 key, sized around the list limit,
# so buckets grow into dicts and (with negative counts) shrink back.
runs = st.builds(
    lambda key, start, size, count: {
        (key, column): count for column in range(start, min(start + size, 40))
    },
    st.integers(0, 2), st.integers(0, 8),
    st.integers(LIST_BUCKET_MAX // 4, LIST_BUCKET_MAX + 8), counts,
)
batches = st.one_of(st.dictionaries(rows, counts, max_size=8), runs)

mutation = st.one_of(
    st.tuples(st.just("add"), rows, counts),
    st.tuples(st.just("discard"), rows),
    st.tuples(st.just("set_count"), rows, st.integers(-1, 2)),
    st.tuples(st.just("merge"), batches),
    st.tuples(st.just("merge_relation"), batches),
    st.tuples(st.just("absorb"), batches),
    st.tuples(st.just("clear")),
    st.tuples(st.just("replace_rows"), batches),
)
step = st.one_of(
    mutation,
    st.tuples(st.just("copy")),
    st.tuples(st.just("abort"), st.lists(mutation, max_size=6)),
    st.tuples(st.just("unwind"), st.lists(mutation, max_size=6)),
)


def _mutate(relation: CountedRelation, op, undo=None) -> None:
    kind, *args = op
    if kind in ("add", "set_count", "discard"):
        if undo is not None:
            undo.note_count(relation, args[0])
        getattr(relation, kind)(*args)
    elif kind in ("merge", "merge_relation", "absorb"):
        if undo is not None:
            undo.note_counts(relation, args[0])
        if kind == "merge":
            relation.merge(args[0])
        elif kind == "merge_relation":
            relation.merge(CountedRelation("Δ", 2, args[0].items()))
        else:
            relation.absorb(dict(args[0]))
    elif kind == "clear":
        if undo is not None:
            undo.note_counts(relation, list(relation))
        relation.clear()
    else:  # replace_rows
        if undo is not None:
            undo.note_counts(relation, list(relation) + list(args[0]))
        relation.replace_rows(args[0])


def _assert_indexes_exact(relation: CountedRelation) -> None:
    rebuilt = CountedRelation("rebuilt", 2)
    rebuilt.merge(relation.to_dict())
    for positions in relation.declared_indexes():
        rebuilt.declare_index(positions)
    assert indexed_reads(relation) == indexed_reads(rebuilt)
    for positions, index in relation._indexes.items():
        key_of = key_getter(positions)
        seen = 0
        for key, bucket in index.items():
            if type(bucket) is list:
                assert 2 <= len(bucket) <= LIST_BUCKET_MAX
            elif type(bucket) is dict:
                assert len(bucket) > LIST_BUCKET_MAX // 4
            else:
                assert type(bucket) is tuple
            for row in bucket_rows(bucket):
                assert key_of(row) == key and row in relation
                seen += 1
        assert seen == len(relation)


def _assert_old_state(view: PreImageView, old: dict) -> None:
    copy = CountedRelation("old", 2)
    copy.merge(old)
    keys = {row for row in old} | {row for row in view.live}
    for positions in SPECS:
        key_of = key_getter(positions)
        for row in keys:
            key = key_of(row) if len(positions) > 1 else (key_of(row),)
            assert sorted(view.lookup(positions, key)) == sorted(
                copy.lookup(positions, key)
            )
    for row in keys:
        assert view.count(row) == copy.count(row)


@settings(
    max_examples=200, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(batches, st.lists(step, max_size=12))
def test_declared_indexes_answer_like_a_rebuilt_index(initial, steps):
    relation = CountedRelation("r", 2)
    for positions in SPECS:
        relation.declare_index(positions)
    relation.merge(initial)
    _assert_indexes_exact(relation)
    for op in steps:
        kind = op[0]
        if kind == "copy":
            relation = relation.copy()
        elif kind == "abort":
            before = relation.to_dict()
            versions = VersionManager()
            versions.register("r", relation)
            versions.begin()
            view = PreImageView(relation)
            for inner in op[1]:
                _mutate(relation, inner)
                _assert_indexes_exact(relation)
                _assert_old_state(view, before)
            versions.abort()
            assert relation.to_dict() == before
        elif kind == "unwind":
            before = relation.to_dict()
            undo = UndoLog()
            for inner in op[1]:
                _mutate(relation, inner, undo)
            _assert_indexes_exact(relation)
            undo.unwind()
            assert relation.to_dict() == before
        else:
            _mutate(relation, op)
        _assert_indexes_exact(relation)
