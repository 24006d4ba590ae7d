"""White-box tests of DRed's per-step machinery (§7)."""

from repro.core.dred import DRedMaintenance
from repro.core.maintenance import ViewMaintainer
from repro.core.normalize import normalize_program
from repro.datalog.parser import parse_program
from repro.datalog.stratify import stratify
from repro.eval.stratified import materialize
from repro.storage.changeset import Changeset
from repro.storage.database import Database

from conftest import TC_SRC, database_with


def _setup(source, base_rows):
    normalized = normalize_program(parse_program(source))
    strat = stratify(normalized.program)
    db = Database()
    for name, rows in base_rows.items():
        db.insert_rows(name, rows)
    views = {
        name: relation.set_view(name)
        for name, relation in materialize(
            normalized.program, db, "set", strat
        ).items()
    }
    return normalized, strat, db, views


class TestBaseChangeCanonicalization:
    def test_duplicate_insert_dropped(self):
        normalized, strat, db, views = _setup(TC_SRC, {"link": [(0, 1)]})
        run = DRedMaintenance(normalized, strat, db, views, {})
        run.run(Changeset().insert("link", (0, 1)))
        assert run.stats.inserted == 0
        assert db.relation("link").count((0, 1)) == 1

    def test_old_state_saved_before_base_mutation(self):
        normalized, strat, db, views = _setup(TC_SRC, {"link": [(0, 1)]})
        run = DRedMaintenance(normalized, strat, db, views, {})
        run.run(Changeset().insert("link", (1, 2)))
        assert (1, 2) not in run._old["link"]
        assert (1, 2) in db.relation("link")

    def test_multiplicity_in_changeset_collapses_to_set(self):
        normalized, strat, db, views = _setup(TC_SRC, {"link": [(0, 1)]})
        run = DRedMaintenance(normalized, strat, db, views, {})
        run.run(Changeset().insert("link", (5, 6), count=3))
        assert db.relation("link").count((5, 6)) == 1


class TestOverestimateGuard:
    def test_overestimate_stays_inside_materialization(self):
        """The trailing guard literal keeps δ⁻(p) ⊆ P."""
        edges = [(0, 1), (1, 2), (2, 3), (10, 11)]
        normalized, strat, db, views = _setup(TC_SRC, {"link": edges})
        tc_size = len(views["tc"])
        run = DRedMaintenance(normalized, strat, db, views, {})
        run.run(Changeset().delete("link", (1, 2)))
        assert run.stats.overestimated <= tc_size

    def test_unrelated_component_untouched(self):
        edges = [(0, 1), (1, 2), (10, 11), (11, 12)]
        normalized, strat, db, views = _setup(TC_SRC, {"link": edges})
        run = DRedMaintenance(normalized, strat, db, views, {})
        run.run(Changeset().delete("link", (0, 1)))
        # The 10-11-12 component is unaffected.
        assert (10, 12) in views["tc"]
        assert (10, 11) in views["tc"]


class TestStratumByStratum:
    SRC = TC_SRC + """
    node(X) :- link(X, Y).
    node(Y) :- link(X, Y).
    unreachable(X, Y) :- node(X), node(Y), not tc(X, Y).
    """

    def test_old_copies_kept_for_upper_strata(self):
        # Node 2 keeps an outgoing edge, so it stays in `node` and the
        # broken reachability surfaces in `unreachable`.
        normalized, strat, db, views = _setup(
            self.SRC, {"link": [(0, 1), (1, 2), (2, 3)]}
        )
        run = DRedMaintenance(normalized, strat, db, views, {})
        run.run(Changeset().delete("link", (1, 2)))
        # tc was updated before unreachable's stratum ran; the old copy
        # must still hold the pre-change closure.
        assert (0, 2) in run._old["tc"]
        assert (0, 2) not in views["tc"]
        assert (0, 2) in views["unreachable"]

    def test_net_deltas_filtered_per_predicate(self):
        normalized, strat, db, views = _setup(
            self.SRC, {"link": [(0, 1), (1, 2), (2, 3)]}
        )
        run = DRedMaintenance(normalized, strat, db, views, {})
        result = run.run(Changeset().delete("link", (1, 2)))
        assert set(result.deletions["tc"].rows()) == {
            (1, 2), (0, 2), (1, 3), (0, 3),
        }
        assert (0, 2) in result.insertions["unreachable"]
        # Every node still has an incident edge: node is unchanged.
        assert "node" not in result.deletions


class TestResultDelta:
    def test_delta_merges_both_directions(self):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, database_with([(0, 1)]), strategy="dred"
        ).initialize()
        report = maintainer.apply(
            Changeset().delete("link", (0, 1)).insert("link", (1, 2))
        )
        assert report.delta("tc").to_dict() == {(0, 1): -1, (1, 2): 1}

    def test_overdeletion_ratio_property(self):
        maintainer = ViewMaintainer.from_source(
            TC_SRC, database_with([(0, 1), (1, 2), (0, 2)]), strategy="dred"
        ).initialize()
        report = maintainer.apply(Changeset().delete("link", (0, 1)))
        stats = report.dred.stats
        assert stats.overdeletion_ratio >= 1.0
