"""Workload specs, seeded graphs and O(|Δ|) change streams.

Everything the program under test receives is generated here from the
run's ``--seed``: the initial base rows and a stream of
:class:`~repro.storage.changeset.Changeset` objects.  The generators
deliberately do not use :mod:`repro.workloads` — a later PR that
changes the library's helpers must not change the benchmark's inputs —
and a batch costs O(|Δ|) (swap-remove from a live-row list plus a key
set), so generating a stream never scans the database.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.storage.changeset import Changeset

HOP_SRC = """\
hop(X, Y) :- link(X, Z), link(Z, Y).
tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
"""

TC_SRC = """\
tc(X, Y) :- link(X, Y).
tc(X, Y) :- tc(X, Z), link(Z, Y).
"""

SERVE_SRC = """\
hop(S, D, C) :- link(S, I, C1), link(I, D, C2), C = C1 + C2.
min_cost_hop(S, D, M) :- GROUPBY(hop(S, D, C), [S, D], M = MIN(C)).
reach2(S, D) :- link(S, I, C1), link(I, D, C2).
direct(S, D) :- link(S, D, C).
only_hop(S, D) :- reach2(S, D), not direct(S, D).
"""


@dataclass(frozen=True)
class Spec:
    """One workload: program, graph shape, change size, read mix."""

    name: str
    why: str
    source: str
    #: ``"uniform"`` random digraph, ``"costed"`` (uniform with a cost
    #: column, 1..10) or ``"layered"`` DAG (edges only layer → next).
    graph: str
    nodes: int  # uniform/costed: node count; layered: layer width
    rows: int  # uniform/costed: link rows; layered: fanout per node
    layers: int = 0
    #: Deletes and inserts per changeset (|Δ| = 2 × delta).
    delta: int = 2
    #: Fresh read (pin → relation → 20 probes → release) of ``read_view``
    #: after every ``read_every``-th pass.
    read_view: str = ""
    read_every: int = 0
    #: After every ``hold_every``-th pass a snapshot is pinned and held
    #: for ``hold_for`` passes, then ``held_view`` is read at the old
    #: epoch (0 = never).
    hold_every: int = 0
    hold_for: int = 0
    held_view: str = ""
    #: Explicit ``maintainer.checkpoint()`` after every N-th pass.  A
    #: workload that checkpoints also attaches a snapshot path and ends
    #: with checkpoint → journal tail → ``recover()``.
    checkpoint_every: int = 0
    #: The oracle also folds every subscriber delta onto the initial
    #: views (the subscriber then keeps the deltas it is handed).
    fold_deltas: bool = False
    #: The stream runs for ``--seconds`` *and* at least this many passes,
    #: so the 95th percentile keeps ten samples beyond it on a slow
    #: machine.  The exact work counters are totalled over this prefix,
    #: the part of the time-bounded stream that every run has.
    min_passes: int = 200
    #: Passes replayed by ``recover()`` after the final checkpoint.
    tail_passes: int = 16

    def scaled(self, factor: float) -> "Spec":
        """The same workload on a database ``factor`` times the size.

        |Δ| is kept (the scaling leg compares cost at fixed |Δ|) unless
        the database gets so small that a batch would be over a fiftieth
        of it, which only ``--smoke`` sizes reach.
        """
        if factor == 1.0:
            return self
        if self.graph == "layered":
            return replace(self, nodes=max(6, round(self.nodes * factor)))
        rows = max(200, round(self.rows * factor))
        return replace(
            self,
            nodes=max(100, round(self.nodes * factor)),
            rows=rows,
            delta=min(self.delta, rows // 50),
        )


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="hop_trickle",
            why="tiny change, big database: 4 base changes per pass over "
            "100k link rows, so per-pass fixed cost and any O(|DB|) work "
            "in the wrappers is the number",
            source=HOP_SRC,
            graph="uniform",
            nodes=50_000,
            rows=100_000,
            delta=2,
        ),
        Spec(
            name="hop_burst",
            why="same program and graph, 400 base changes per pass: rule "
            "evaluation, count merges and notify volume dominate and the "
            "wrappers amortise",
            source=HOP_SRC,
            graph="uniform",
            nodes=50_000,
            rows=100_000,
            delta=200,
        ),
        Spec(
            name="tc_churn",
            why="recursive transitive closure over a layered DAG, "
            "maintained by backward/forward: candidate waves, backward "
            "checks and semi-naive insertion, counting bypassed",
            source=TC_SRC,
            graph="layered",
            nodes=500,
            rows=2,
            layers=8,
            delta=2,
        ),
        Spec(
            name="serve_mixed",
            why="negation and MIN aggregation with snapshot reads, held "
            "pins and checkpoints interleaved with the writes: the MVCC, "
            "serialize and recovery layers the other three barely touch",
            source=SERVE_SRC,
            graph="costed",
            nodes=6_000,
            rows=24_000,
            delta=4,
            read_view="only_hop",
            read_every=4,
            hold_every=8,
            hold_for=6,
            held_view="min_cost_hop",
            checkpoint_every=200,
            fold_deltas=True,
        ),
    )
}


Row = Tuple[int, ...]


class EdgeStream:
    """Seeded base rows plus an endless stream of change batches.

    Keeps the live rows in a list (for O(1) uniform sampling with
    swap-remove) and, keyed by ``(src, dst)``, in a dict mapping to the
    full row, so a batch of ``d`` deletes and ``d`` inserts touches
    O(d) entries whatever the database size.  ``rows()`` is the ground
    truth the end-of-run oracle recomputes from.
    """

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self._rng = random.Random(seed)
        # Probes draw from their own generator: how many reads a run
        # fits in must never shift the change stream.
        self._probe_rng = random.Random(seed + 7919)
        self._live: Dict[Tuple[int, int], Row] = {}
        self._keys: List[Tuple[int, int]] = []
        if spec.graph == "layered":
            for layer in range(spec.layers - 1):
                for index in range(spec.nodes):
                    for _ in range(spec.rows):
                        key = (
                            layer * spec.nodes + index,
                            (layer + 1) * spec.nodes
                            + self._rng.randrange(spec.nodes),
                        )
                        self._add(key)
        else:
            while len(self._keys) < spec.rows:
                self._add(self._fresh_key(()))

    def _add(self, key: Tuple[int, int]) -> Row:
        if key in self._live:
            return self._live[key]
        row: Row = key
        if self.spec.graph == "costed":
            row = key + (self._rng.randint(1, 10),)
        self._live[key] = row
        self._keys.append(key)
        return row

    def _fresh_key(self, banned) -> Tuple[int, int]:
        """A key that is neither live nor deleted earlier in this batch
        (delete + insert of one row would cancel out of the changeset)."""
        spec, rng = self.spec, self._rng
        while True:
            if spec.graph == "layered":
                layer = rng.randrange(spec.layers - 1)
                key = (
                    layer * spec.nodes + rng.randrange(spec.nodes),
                    (layer + 1) * spec.nodes + rng.randrange(spec.nodes),
                )
            else:
                key = (rng.randrange(spec.nodes), rng.randrange(spec.nodes))
                if key[0] == key[1]:
                    continue
            if key not in self._live and key not in banned:
                return key

    def rows(self) -> List[Row]:
        """The current base rows of ``link`` (sorted: load order must not
        depend on the stream's history)."""
        return sorted(self._live.values())

    def node_count(self) -> int:
        spec = self.spec
        return spec.nodes * spec.layers if spec.graph == "layered" else spec.nodes

    def batch(self) -> Changeset:
        """Delete ``delta`` live rows and insert ``delta`` fresh ones."""
        changes = Changeset()
        keys, live, rng = self._keys, self._live, self._rng
        removed = set()
        for _ in range(self.spec.delta):
            index = rng.randrange(len(keys))
            key = keys[index]
            keys[index] = keys[-1]
            keys.pop()
            removed.add(key)
            changes.delete("link", live.pop(key))
        for _ in range(self.spec.delta):
            changes.insert("link", self._add(self._fresh_key(removed)))
        return changes

    def take(self, count: int) -> List[Changeset]:
        return [self.batch() for _ in range(count)]

    def probes(self, count: int) -> List[Tuple[int, int]]:
        """Seeded point-lookup keys for one read."""
        nodes, rng = self.node_count(), self._probe_rng
        return [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(count)]
