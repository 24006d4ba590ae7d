"""Shared fixtures: the paper's example databases and small graphs.

Also installs a per-test wall-clock fence for the ``faults`` and
``soak`` markers: a crash-injection or soak test that hangs (e.g. a
recovery loop replaying a corrupt journal forever) is killed by
``SIGALRM`` after ``FAULTS_TIMEOUT``/``SOAK_TIMEOUT`` seconds instead
of wedging the whole run until the coarse ``make`` fence fires.
POSIX-only (no-op where ``signal.SIGALRM`` is unavailable or off the
main thread); ``pytest-timeout`` isn't in the image, so this is the
dependency-free equivalent.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.storage.database import Database

#: Per-test wall-clock budgets (seconds) by marker.
FAULTS_TIMEOUT = 120
SOAK_TIMEOUT = 300


def _marker_timeout(item) -> int:
    if item.get_closest_marker("soak") is not None:
        return SOAK_TIMEOUT
    if item.get_closest_marker("faults") is not None:
        return FAULTS_TIMEOUT
    return 0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = _marker_timeout(item)
    usable = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(_signum, _frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded its {seconds}s marker timeout"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

#: Example 1.1's link relation.
EXAMPLE_1_1_LINKS = [("a", "b"), ("b", "c"), ("b", "e"), ("a", "d"), ("d", "c")]

#: Example 4.2's initial link relation.
EXAMPLE_4_2_LINKS = [
    ("a", "b"),
    ("a", "d"),
    ("d", "c"),
    ("b", "c"),
    ("c", "h"),
    ("f", "g"),
]

#: Example 6.1's link relation.
EXAMPLE_6_1_LINKS = [
    ("a", "b"),
    ("a", "e"),
    ("a", "f"),
    ("a", "g"),
    ("b", "c"),
    ("c", "d"),
    ("c", "k"),
    ("e", "d"),
    ("f", "d"),
    ("g", "h"),
    ("h", "k"),
]

HOP_SRC = "hop(X, Y) :- link(X, Z), link(Z, Y)."

HOP_TRI_SRC = """
hop(X, Y) :- link(X, Z), link(Z, Y).
tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
"""

ONLY_TRI_SRC = HOP_TRI_SRC + (
    "only_tri_hop(X, Y) :- tri_hop(X, Y), not hop(X, Y).\n"
)

TC_SRC = """
tc(X, Y) :- link(X, Y).
tc(X, Y) :- tc(X, Z), link(Z, Y).
"""


def indexed_reads(relation):
    """What every declared index of ``relation`` answers, key by key."""
    return {
        positions: {
            key: sorted(relation.lookup(positions, key))
            for key in {tuple(row[p] for p in positions) for row in relation}
        }
        for positions in relation.declared_indexes()
    }


def stored_relations(maintainer):
    """Every base relation and view of ``maintainer``, by name."""
    database = maintainer.database
    return {
        **{name: database.relation(name) for name in database.names()},
        **maintainer.views,
    }


def database_with(edges, relation="link") -> Database:
    db = Database()
    db.insert_rows(relation, edges)
    return db


@pytest.fixture
def example_1_1_db() -> Database:
    return database_with(EXAMPLE_1_1_LINKS)


@pytest.fixture
def example_4_2_db() -> Database:
    return database_with(EXAMPLE_4_2_LINKS)


@pytest.fixture
def example_6_1_db() -> Database:
    return database_with(EXAMPLE_6_1_LINKS)
