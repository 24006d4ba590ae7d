"""Hostile input yields a typed error and an intact database.

Two inputs that once slipped through: a base row whose length is not the
arity the program uses (it was stored, and every join then skipped it),
and an aggregate over values outside its function's domain (a bare
``TypeError`` escaped set-up and passes).
"""

from __future__ import annotations

import pytest

from repro.core.maintenance import ViewMaintainer
from repro.errors import EvaluationError, ReproError, SchemaError
from repro.storage.changeset import Changeset
from repro.storage.database import Database

HOP = "hop(X, Y) :- link(X, Z), link(Z, Y)."


def state(maintainer):
    """Base relations, views and group states, as plain values."""
    database = maintainer.database
    return (
        {name: database.relation(name).to_dict() for name in database.names()},
        {name: view.to_dict() for name, view in maintainer.views.items()},
        {
            name: dict(view._states)
            for name, view in maintainer.aggregate_views.items()
        },
    )


@pytest.mark.parametrize("strategy", ["counting", "dred", "bf"])
def test_a_base_row_of_the_wrong_arity_is_refused(strategy):
    database = Database()
    database.insert_rows("link", [(1, 2), (2, 3)])
    maintainer = ViewMaintainer.from_source(
        HOP, database, strategy=strategy
    ).initialize()
    before = state(maintainer)
    with pytest.raises(ReproError):
        maintainer.apply(
            Changeset().insert("link", (2, 4)).insert("link", (3, 4, 5))
        )
    assert state(maintainer) == before
    maintainer.apply(Changeset().insert("link", (3, 4)))
    assert (2, 4) in maintainer.relation("hop")


def test_the_arity_holds_for_a_base_relation_created_by_set_up():
    maintainer = ViewMaintainer.from_source(HOP, Database()).initialize()
    before = state(maintainer)
    with pytest.raises(ReproError):
        maintainer.apply(Changeset().insert("link", (1,)))
    assert state(maintainer) == before


def test_an_aggregate_domain_error_at_set_up_is_typed():
    database = Database()
    database.insert("sales", ("a", "x"))
    maintainer = ViewMaintainer.from_source(
        "t(R, M) :- GROUPBY(sales(R, C), [R], M = SUM(C)).", database
    )
    with pytest.raises(EvaluationError):
        maintainer.initialize()


@pytest.mark.parametrize("strategy", ["counting", "dred"])
@pytest.mark.parametrize("function", ["SUM", "MIN"])
def test_an_aggregate_domain_error_mid_pass_is_typed(strategy, function):
    database = Database()
    database.insert_rows("sales", [("a", 1), ("a", 2), ("b", 5)])
    maintainer = ViewMaintainer.from_source(
        f"t(R, M) :- GROUPBY(sales(R, C), [R], M = {function}(C)).",
        database, strategy=strategy,
    ).initialize()
    before = state(maintainer)
    with pytest.raises(EvaluationError):
        maintainer.apply(
            Changeset().insert("sales", ("b", 1)).insert("sales", ("a", "y"))
        )
    assert state(maintainer) == before
    maintainer.apply(Changeset().insert("sales", ("a", 0)))
    maintainer.consistency_check()


def test_a_stored_base_row_of_the_wrong_arity_fails_set_up():
    database = Database()
    database.insert_rows("link", [(1, 2), (3, 4, 5)])
    with pytest.raises(SchemaError):
        ViewMaintainer.from_source(HOP, database).initialize()


def test_alter_fixes_the_arity_of_a_base_relation_it_introduces():
    database = Database()
    database.insert_rows("link", [(1, 2), (2, 3)])
    maintainer = ViewMaintainer.from_source(HOP, database).initialize()
    maintainer.alter(add=["p(X) :- q(X, Y)."])
    before = state(maintainer)
    with pytest.raises(ReproError):
        maintainer.apply(Changeset().insert("q", (1, 2, 3)))
    assert state(maintainer) == before
    maintainer.apply(Changeset().insert("q", (1, 2)))
    assert (1,) in maintainer.relation("p")


def test_a_failed_alter_leaves_no_base_relation_behind():
    database = Database()
    database.insert_rows("link", [(1, 2), (2, 3)])
    database.insert_rows("q", [(1, 2, 3)])
    maintainer = ViewMaintainer.from_source(HOP, database).initialize()
    before = state(maintainer)
    with pytest.raises(SchemaError):
        maintainer.alter(add=["p(X) :- q(X, Y), r(Y)."])
    assert state(maintainer) == before
    assert database.get("r") is None and database.relation("q").arity is None
