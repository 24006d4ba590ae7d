"""Differential-oracle suite: maintenance ≡ recomputation, at scale.

Hypothesis generates stratified programs (joins, unions, filters,
negation, GROUPBY aggregates over a base ``link`` relation) together
with model-tracked streams of insert/delete changesets (deletions only
ever remove rows the model says exist, so every changeset is valid
against the state it meets).  Each case then runs the real maintenance
machinery — counting, DRed and B/F, batched (``apply_many``) and
unbatched, plan cache on and off, set and duplicate semantics — and
checks it against two independent oracles:

* **recount** (:func:`repro.baselines.recount.true_view_deltas`): the
  per-pass signed deltas must equal a from-scratch before/after diff
  (Theorem 4.1);
* **recompute**: the maintained views must equal a fresh
  materialization of the final database — both via the maintainer's own
  ``consistency_check()`` and against a database tracked independently
  of the maintainer (guarding against the maintainer corrupting its own
  base relations and then agreeing with them).

A third oracle covers the MVCC layer: snapshots pinned at
hypothesis-chosen points between passes must keep reading exactly the
recompute of the oracle database as it stood at acquire time
(``test_interleaved_snapshots_match_recompute_at_pinned_epoch``).

The suite runs 770 generated maintenance cases (see the
``max_examples`` settings: 25×6 counting + 15×6×2 DRed/B-F +
15×6×2×2 recursive DRed/B-F over two programs + 40×2 interleaved
snapshots), derandomized so CI is reproducible.  Any divergence is a
real bug: the oracles share no code path with the incremental
algorithms.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.baselines.recount import true_view_deltas
from repro.core.maintenance import ViewMaintainer
from repro.errors import SafetyError, StratificationError
from repro.guard import GuardPolicy, MaintenanceBudget
from repro.datalog.parser import parse_program
from repro.datalog.safety import check_program_safety
from repro.datalog.stratify import stratify
from repro.eval.stratified import materialize
from repro.storage.changeset import Changeset
from repro.storage.database import Database

from conftest import TC_SRC, database_with

# ------------------------------------------------------------------ programs

NODE = st.integers(0, 7)
EDGE = st.tuples(NODE, NODE).filter(lambda e: e[0] != e[1])


@st.composite
def stratified_program(draw):
    """Source for a random stratified program over base ``link``.

    Views are built bottom-up, each referencing only ``link`` or an
    earlier *graph-shaped* (binary, node-valued) view — so the program
    is stratified by construction.  Every program ends with one
    negation view and one GROUPBY aggregate view, so the features the
    paper treats specially (Section 5's Δ¬ and Section 6's aggregate
    maintenance) are exercised in every single case.
    """
    graph_views = ["link"]
    rules = []

    def fresh(prefix):
        return f"{prefix}{len(rules)}"

    for _ in range(draw(st.integers(1, 3))):
        prev = draw(st.sampled_from(graph_views))
        shape = draw(st.sampled_from(["join", "union", "filter"]))
        name = fresh("v")
        if shape == "join":
            rules.append(f"{name}(X,Y) :- {prev}(X,Z), link(Z,Y).")
        elif shape == "union":
            rules.append(f"{name}(X,Y) :- {prev}(X,Y).")
            rules.append(f"{name}(X,Y) :- link(Y,X).")
        else:
            rules.append(f"{name}(X,Y) :- {prev}(X,Y), X < Y.")
        graph_views.append(name)

    negated = draw(st.sampled_from(graph_views))
    neg_name = fresh("neg")
    rules.append(f"{neg_name}(X,Y) :- link(X,Y), not {negated}(X,Y).")
    graph_views.append(neg_name)

    grouped = draw(st.sampled_from(graph_views))
    function = draw(st.sampled_from(["COUNT", "MIN", "MAX", "SUM"]))
    rules.append(
        f"agg(X, M) :- GROUPBY({grouped}(X, Y), [X], M = {function}(Y))."
    )
    return "\n".join(rules)


# The defect menu for the analyzer-soundness tests below: each entry is
# a rule (or rule pair) that the engine's own gatekeepers —
# ``check_program_safety`` / ``stratify`` — must reject.  Spanning every
# rejection family keeps the analyzer's error codes honest on both
# sides: accepted programs must lint clean of errors, rejected ones must
# produce at least one.
DEFECTS = [
    "bad(X, W) :- link(X, Y).",                      # unbound head var
    "bad(X) :- link(X, Y), not link(X, W).",         # unsafe negation
    "bad(X) :- link(X, Y), W < 3.",                  # unsafe comparison
    "bad(X).",                                       # non-ground fact
    "bad(X, Y) :- GROUPBY(link(X, Y), [X], M = COUNT(Y)).",  # agg leak
    "bad(X) :- link(X, Y), not bad(X).",             # negative self-cycle
    (
        "odd(X) :- link(X, Y), not even(X).\n"
        "even(X) :- link(X, Y), not odd(X)."         # mutual neg cycle
    ),
]


@st.composite
def rejected_program(draw):
    """A generated stratified program with one injected defect."""
    base = draw(stratified_program())
    defect = draw(st.sampled_from(DEFECTS))
    rules = base.split("\n")
    position = draw(st.integers(0, len(rules)))
    rules.insert(position, defect)
    return "\n".join(rules)


def _gatekeepers_accept(source):
    """Does the engine's own front door admit this program?"""
    program = parse_program(source)
    try:
        check_program_safety(program)
        stratify(program)
    except (SafetyError, StratificationError):
        return False
    return True


# ------------------------------------------------------- analyzer soundness


@settings(max_examples=220, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stratified_program())
def test_analyzer_has_no_error_false_positives(case):
    """Accepted program ⇒ zero error-severity diagnostics.

    Every generated program is stratified and safe by construction, so
    the engine admits it; an error-level diagnostic on any of them would
    be a false positive (warnings — singleton variables and the like —
    are allowed).  The advisor's recommendation must also equal the
    dispatch ``ViewMaintainer`` applies under ``strategy="auto"``.
    """
    assert _gatekeepers_accept(case)
    report = analyze(case)
    assert report.ok, [
        (d.code, d.message) for d in report.errors()
    ]
    expected = "bf" if report.stratification.is_recursive else "counting"
    assert report.advice.overall == expected


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=rejected_program())
def test_analyzer_flags_every_rejected_program(case):
    """Rejected program ⇒ at least one error-severity diagnostic.

    Each injected defect trips ``check_program_safety`` or ``stratify``,
    and the analyzer must agree — with an error code from the RV0xx
    band, so ``repro lint`` (default ``--fail-on error``) exits nonzero
    on exactly the programs the engine would refuse to load.
    """
    assert not _gatekeepers_accept(case)
    report = analyze(case)
    errors = report.errors()
    assert errors, f"analyzer missed the defect in:\n{case}"
    assert all(e.code.startswith("RV0") for e in errors)
    assert report.exit_code() == 1


# ------------------------------------------------------------------- streams


@st.composite
def update_stream(draw, set_model=False):
    """Initial edges plus a model-tracked list of valid changesets.

    The model (a row → count multiset) is updated as each changeset is
    drawn, so deletions always target rows that exist *at that point in
    the stream* — the validity contract ``Changeset`` enforces.

    With ``set_model=True`` the stream is additionally *set-valid*:
    inserts only add absent rows and deletes only remove rows with a
    single copy.  DRed canonicalizes its base relations to set
    semantics (a duplicate insert is a no-op), so only set-valid
    streams mean the same thing to DRed and to a multiset-tracked
    oracle database.
    """
    edges = draw(st.lists(EDGE, min_size=2, max_size=10, unique=True))
    model = {edge: 1 for edge in edges}

    stream = []
    for _ in range(draw(st.integers(1, 3))):
        changes = Changeset()
        net = {}
        for _ in range(draw(st.integers(1, 3))):
            present = [row for row, count in model.items()
                       if count + net.get(row, 0) > 0]
            if present and draw(st.booleans()):
                row = draw(st.sampled_from(present))
                changes.delete("link", row)
                net[row] = net.get(row, 0) - 1
            else:
                row = draw(EDGE)
                if set_model and model.get(row, 0) + net.get(row, 0) > 0:
                    continue  # would create a duplicate: skip this op
                changes.insert("link", row)
                net[row] = net.get(row, 0) + 1
        if not any(net.values()):
            continue
        for row, count in net.items():
            model[row] = model.get(row, 0) + count
        stream.append(changes)
    return edges, stream


CONFIGS = [
    pytest.param(
        cache, batched, None, id=f"cache-{cache}-batched-{batched}"
    )
    for cache in (True, False)
    for batched in (True, False)
] + [
    # The same contract must hold inside the guard envelope: with an
    # enabled (but unreachable) budget metering every pass, and with
    # every pass forced through the recompute fallback.
    pytest.param(True, False, "enabled", id="guard-enabled"),
    pytest.param(True, False, "forced", id="guard-forced"),
]


def _guard_policy(mode):
    if mode == "enabled":
        return GuardPolicy(
            budget=MaintenanceBudget(
                deadline_seconds=3600.0,
                max_delta_tuples=10**9,
                max_rule_firings=10**9,
            )
        )
    if mode == "forced":
        return GuardPolicy(force_fallback=True)
    return None


def _buckets(stream, size=2):
    return [stream[i:i + size] for i in range(0, len(stream), size)]


def _final_state_matches(maintainer, source, oracle_db, semantics):
    """Maintained views ≡ fresh materialization of the tracked database."""
    truth = materialize(parse_program(source), oracle_db, semantics=semantics)
    for view in maintainer.view_names():
        maintained = maintainer.relation(view)
        if semantics == "set":
            assert maintained.as_set() == truth[view].as_set(), view
        else:
            assert maintained.to_dict() == truth[view].to_dict(), view
    maintainer.consistency_check()


# ---------------------------------------------------------- counting ≡ oracle


@pytest.mark.parametrize("cache,batched,guard", CONFIGS)
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stratified_program(), updates=update_stream(),
       semantics=st.sampled_from(["set", "duplicate"]))
def test_counting_matches_oracles(cache, batched, guard, case, updates,
                                  semantics):
    edges, stream = updates
    program = parse_program(case)
    maintainer = ViewMaintainer.from_source(
        case, database_with(edges), strategy="counting",
        semantics=semantics, plan_cache=cache, guard=_guard_policy(guard),
    ).initialize()
    oracle_db = database_with(edges)

    if batched:
        for bucket in _buckets(stream):
            maintainer.apply_many(changes.copy() for changes in bucket)
            for changes in bucket:
                oracle_db.apply_changeset(changes.copy())
    else:
        for changes in stream:
            truth = true_view_deltas(
                program, oracle_db, changes, semantics
            )
            report = maintainer.apply(changes.copy())
            for view in maintainer.view_names():
                expected = truth[view].to_dict() if view in truth else {}
                assert report.delta(view).to_dict() == expected, view
            oracle_db.apply_changeset(changes.copy())

    _final_state_matches(maintainer, case, oracle_db, semantics)


@settings(max_examples=15, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stratified_program(), updates=update_stream(),
       semantics=st.sampled_from(["set", "duplicate"]))
def test_sanitized_counting_matches_recompute(case, updates, semantics):
    """The runtime sanitizer stays silent on every correct workload.

    Same recompute oracle as above, but the maintained database runs
    with ``Database(sanitize=True)``: a single false-positive trap
    (SanitizerError) on any generated program/stream fails the case,
    and the views must still match the oracle bit-for-bit.
    """
    edges, stream = updates
    db = Database(sanitize=True)
    db.insert_rows("link", edges)
    maintainer = ViewMaintainer.from_source(
        case, db, strategy="counting", semantics=semantics,
    ).initialize()
    oracle_db = database_with(edges)
    for changes in stream:
        maintainer.apply(changes.copy())
        oracle_db.apply_changeset(changes.copy())
    _final_state_matches(maintainer, case, oracle_db, semantics)
    assert db.sanitizer.trapped == 0
    assert db.sanitizer.checks > 0


# --------------------------------------------------------- DRed/B-F ≡ oracle


@pytest.mark.parametrize("strategy", ["dred", "bf"])
@pytest.mark.parametrize("cache,batched,guard", CONFIGS)
@settings(max_examples=15, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stratified_program(), updates=update_stream(set_model=True))
def test_dred_matches_recompute(strategy, cache, batched, guard, case,
                                updates):
    edges, stream = updates
    maintainer = ViewMaintainer.from_source(
        case, database_with(edges), strategy=strategy, plan_cache=cache,
        guard=_guard_policy(guard),
    ).initialize()
    oracle_db = database_with(edges)

    if batched:
        for bucket in _buckets(stream):
            maintainer.apply_many(changes.copy() for changes in bucket)
            for changes in bucket:
                oracle_db.apply_changeset(changes.copy())
    else:
        for changes in stream:
            maintainer.apply(changes.copy())
            oracle_db.apply_changeset(changes.copy())
            _final_state_matches(maintainer, case, oracle_db, "set")

    _final_state_matches(maintainer, case, oracle_db, "set")


# ------------------------------------------------------ snapshots ≡ oracle


def _snapshot_matches(snap, frozen_db, program, view_names, semantics):
    """Pinned snapshot ≡ recompute over the oracle state at acquire time.

    ``frozen_db`` is the independently-tracked oracle database copied at
    the instant the snapshot was pinned; the snapshot's base relations
    must equal it row-for-row and its views must equal a fresh
    materialization of it — no matter how many epochs have committed
    since.
    """
    assert (
        snap.relation("link").to_dict()
        == frozen_db.relation("link").to_dict()
    )
    truth = materialize(program, frozen_db, semantics=semantics)
    for view in view_names:
        read = snap.relation(view)
        if semantics == "set":
            assert read.as_set() == truth[view].as_set(), view
        else:
            assert read.to_dict() == truth[view].to_dict(), view


@pytest.mark.parametrize("strategy", ["counting", "bf"])
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_interleaved_snapshots_match_recompute_at_pinned_epoch(
    strategy, data
):
    """Snapshots acquired/released at arbitrary points in the stream.

    Hypothesis shuffles snapshot acquire/release actions between the
    ``apply``/``apply_many`` calls of a generated update stream.  Each
    acquired snapshot is paired with an ``oracle_db.copy()`` frozen at
    the same instant, and re-verified against it after *every*
    subsequent pass: a later commit leaking into a pinned read — a torn
    read — fails here deterministically, without threads.  Runs on both
    the counting engine (set and duplicate semantics) and B/F (set
    semantics, set-valid streams — the semantics it is defined for).
    """
    case = data.draw(stratified_program(), label="program")
    if strategy == "bf":
        semantics = "set"
        edges, stream = data.draw(
            update_stream(set_model=True), label="updates"
        )
    else:
        semantics = data.draw(
            st.sampled_from(["set", "duplicate"]), label="semantics"
        )
        edges, stream = data.draw(update_stream(), label="updates")
    db = Database(retain_versions=64)
    db.insert_rows("link", edges)
    maintainer = ViewMaintainer.from_source(
        case, db, strategy=strategy, semantics=semantics
    ).initialize()
    oracle_db = database_with(edges)
    program = parse_program(case)
    view_names = maintainer.view_names()

    open_snaps = []

    def acquire():
        open_snaps.append((db.snapshot(), oracle_db.copy()))

    def release(index):
        snap, frozen = open_snaps.pop(index)
        _snapshot_matches(snap, frozen, program, view_names, semantics)
        snap.close()

    remaining = list(stream)
    while remaining:
        if data.draw(st.booleans(), label="acquire before pass"):
            acquire()
        if open_snaps and data.draw(st.booleans(), label="release one"):
            release(data.draw(
                st.integers(0, len(open_snaps) - 1), label="which"
            ))
        if len(remaining) >= 2 and data.draw(
            st.booleans(), label="batch two"
        ):
            batch, remaining = remaining[:2], remaining[2:]
            maintainer.apply_many(changes.copy() for changes in batch)
            for changes in batch:
                oracle_db.apply_changeset(changes.copy())
        else:
            changes, remaining = remaining[0], remaining[1:]
            maintainer.apply(changes.copy())
            oracle_db.apply_changeset(changes.copy())
        for snap, frozen in open_snaps:
            _snapshot_matches(snap, frozen, program, view_names, semantics)

    while open_snaps:
        release(len(open_snaps) - 1)
    _final_state_matches(maintainer, case, oracle_db, semantics)
    assert db.mvcc.retained_entries() == 0


#: Recursive rule shapes beyond TC's: a comparison in a recursive rule,
#: a negated lower-stratum literal, head constants and a repeated head
#: variable — B/F's backward check must bind and filter each of them.
RECURSIVE_SHAPES_SRC = """
r(X, Y) :- link(X, Y).
r(X, Y) :- r(X, Z), link(Z, Y), X != Y.
hub(X) :- link(X, Y), link(X, Z), Y < Z.
from0(0, Y) :- link(0, Y).
from0(0, Y) :- from0(0, Z), link(Z, Y), not hub(Z).
same(X, X) :- link(0, X).
same(X, X) :- same(Y, Y), link(Y, X).
"""

RECURSIVE_CASES = [
    pytest.param(TC_SRC, *config.values, id=config.id) for config in CONFIGS
] + [
    pytest.param(RECURSIVE_SHAPES_SRC, *config.values,
                 id=f"shapes-{config.id}")
    for config in CONFIGS
]


@pytest.mark.parametrize("strategy", ["dred", "bf"])
@pytest.mark.parametrize("source,cache,batched,guard", RECURSIVE_CASES)
@settings(max_examples=15, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(updates=update_stream(set_model=True))
def test_dred_recursive_matches_recompute(source, strategy, cache, batched,
                                          guard, updates):
    """Same contract on recursive programs (fixpoint + rederive /
    backward check + forward waves)."""
    edges, stream = updates
    maintainer = ViewMaintainer.from_source(
        source, database_with(edges), strategy=strategy, plan_cache=cache,
        guard=_guard_policy(guard),
    ).initialize()
    oracle_db = database_with(edges)

    if batched:
        maintainer.apply_many(changes.copy() for changes in stream)
        for changes in stream:
            oracle_db.apply_changeset(changes.copy())
    else:
        for changes in stream:
            maintainer.apply(changes.copy())
            oracle_db.apply_changeset(changes.copy())

    _final_state_matches(maintainer, source, oracle_db, "set")
