"""Property-based tests (hypothesis) on the core invariants.

The big ones:

* ⊎ is a commutative group action on counted relations (Section 3);
* Theorem 4.1 — counting's delta equals the recount oracle's ground
  truth on arbitrary graphs and changesets, under both semantics;
* Theorem 7.1 — DRed's result equals recomputation on arbitrary graphs
  and changesets;
* maintenance followed by the inverse changeset restores the original
  materialization.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.recount import true_view_deltas
from repro.core.maintenance import ViewMaintainer
from repro.datalog.parser import parse_program, parse_rule
from repro.eval.stratified import materialize
from repro.storage.changeset import Changeset
from repro.storage.relation import CountedRelation

from conftest import HOP_TRI_SRC, ONLY_TRI_SRC, TC_SRC, database_with

# ---------------------------------------------------------------- strategies

rows = st.tuples(st.integers(0, 7), st.integers(0, 7))
counted_entries = st.dictionaries(rows, st.integers(-4, 4).filter(bool),
                                  max_size=12)

edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=1,
    max_size=24,
    unique=True,
)


def _relation(entries) -> CountedRelation:
    relation = CountedRelation("r")
    for row, count in entries.items():
        relation.add(row, count)
    return relation


@st.composite
def graph_and_changes(draw):
    """A graph plus a valid changeset over it (dels ⊆ edges, fresh ins)."""
    edges = draw(edge_lists)
    delete_count = draw(st.integers(0, min(3, len(edges))))
    deletions = edges[:delete_count]
    insertions = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
                lambda e: e[0] != e[1] and e not in edges
            ),
            max_size=3,
            unique=True,
        )
    )
    changes = Changeset()
    for edge in deletions:
        changes.delete("link", edge)
    for edge in insertions:
        changes.insert("link", edge)
    return edges, changes


# -------------------------------------------------------------- ⊎ algebra


@given(counted_entries, counted_entries)
def test_merge_commutative(left_entries, right_entries):
    left_first = _relation(left_entries).merged(_relation(right_entries))
    right_first = _relation(right_entries).merged(_relation(left_entries))
    assert left_first.to_dict() == right_first.to_dict()


@given(counted_entries, counted_entries, counted_entries)
def test_merge_associative(a, b, c):
    left = _relation(a).merged(_relation(b)).merged(_relation(c))
    right = _relation(a).merged(_relation(b).merged(_relation(c)))
    assert left.to_dict() == right.to_dict()


@given(counted_entries)
def test_merge_inverse_cancels(entries):
    relation = _relation(entries)
    inverse = CountedRelation("inv")
    for row, count in relation.items():
        inverse.add(row, -count)
    assert relation.merged(inverse).to_dict() == {}


@given(counted_entries)
def test_no_zero_counts_stored(entries):
    relation = _relation(entries)
    assert all(count != 0 for _row, count in relation.items())


@given(counted_entries)
def test_set_view_idempotent(entries):
    relation = _relation(entries)
    once = relation.set_view()
    twice = once.set_view()
    assert once.to_dict() == twice.to_dict()


@given(counted_entries, st.lists(st.integers(0, 1), min_size=1, max_size=2))
def test_index_consistent_after_mutations(entries, positions):
    relation = _relation(entries)
    key_positions = tuple(sorted(set(positions)))
    relation.ensure_index(key_positions)
    relation.add((0, 0), 1)
    relation.discard((1, 1))
    for row in relation.rows():
        key = tuple(row[p] for p in key_positions)
        assert row in set(relation.lookup(key_positions, key))


# ------------------------------------------------------ maintenance theorems


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(graph_and_changes(), st.sampled_from(["set", "duplicate"]))
def test_theorem_4_1_counting_matches_oracle(case, semantics):
    edges, changes = case
    program = parse_program(HOP_TRI_SRC)
    db = database_with(edges)
    truth = true_view_deltas(program, db, changes, semantics)
    maintainer = ViewMaintainer.from_source(
        HOP_TRI_SRC, db, semantics=semantics
    ).initialize()
    report = maintainer.apply(changes.copy())
    for view in ("hop", "tri_hop"):
        expected = truth[view].to_dict() if view in truth else {}
        assert report.delta(view).to_dict() == expected


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(graph_and_changes())
def test_counting_with_negation_matches_recompute(case):
    edges, changes = case
    maintainer = ViewMaintainer.from_source(
        ONLY_TRI_SRC, database_with(edges)
    ).initialize()
    maintainer.apply(changes.copy())
    maintainer.consistency_check()


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(graph_and_changes())
def test_theorem_7_1_dred_matches_recompute(case):
    edges, changes = case
    maintainer = ViewMaintainer.from_source(
        TC_SRC, database_with(edges), strategy="dred"
    ).initialize()
    maintainer.apply(changes.copy())
    db = database_with(edges)
    db.apply_changeset(changes)
    oracle = materialize(parse_program(TC_SRC), db)
    assert maintainer.relation("tc").as_set() == oracle["tc"].as_set()


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(graph_and_changes())
def test_apply_then_inverse_restores_views(case):
    edges, changes = case
    maintainer = ViewMaintainer.from_source(
        HOP_TRI_SRC, database_with(edges)
    ).initialize()
    before = {
        view: maintainer.relation(view).to_dict()
        for view in maintainer.view_names()
    }
    maintainer.apply(changes.copy())
    maintainer.apply(changes.inverted())
    after = {
        view: maintainer.relation(view).to_dict()
        for view in maintainer.view_names()
    }
    assert before == after


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(graph_and_changes())
def test_counting_modes_agree(case):
    edges, changes = case
    results = {}
    for mode in ("expansion", "factored"):
        maintainer = ViewMaintainer.from_source(
            HOP_TRI_SRC, database_with(edges), counting_mode=mode
        ).initialize()
        maintainer.apply(changes.copy())
        results[mode] = {
            view: maintainer.relation(view).to_dict()
            for view in maintainer.view_names()
        }
    assert results["expansion"] == results["factored"]


# ------------------------------------------------------------ parser roundtrip


simple_rules = st.sampled_from([
    "hop(X, Y) :- link(X, Z), link(Z, Y).",
    "p(X) :- q(X), not r(X).",
    "m(S, M) :- GROUPBY(u(S, C), [S], M = MIN(C)).",
    "t(X, Y, C1 + C2) :- a(X, C1), b(Y, C2), C1 < C2.",
    "f(1, 'two').",
])


@given(simple_rules)
def test_parse_str_roundtrip(source):
    rule = parse_rule(source)
    assert parse_rule(str(rule)) == rule
