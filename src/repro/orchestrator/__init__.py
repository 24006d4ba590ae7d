"""Fault-contained orchestration of a DAG of materialized views.

The paper maintains one view over base relations; production systems
stack views on views (the dynamic-table model).  This package schedules
such a DAG: topological refresh driven by per-view lag targets, exact
signed-delta propagation between layers, bounded retries with jittered
backoff, failure cones that quarantine only a fault's transitive
consumers, stale serving from the last committed MVCC epoch, and
operator controls (suspend/resume cascades, revive, forced refresh).

Entry points:

* :class:`Orchestrator` — build from :class:`ViewNode` objects or a
  JSON spec (:meth:`Orchestrator.from_spec`), then ``ingest()`` +
  ``tick()``.
* ``tests/test_orchestrator.py`` — the deterministic fault drills
  (the crash matrix, retries, lag targets under a virtual clock).

See ``docs/orchestration.md`` for the model and
``docs/operations.md`` for the upstream-failure runbook.
"""

from repro.orchestrator.graph import DOWNSTREAM, DependencyGraph, ViewNode
from repro.orchestrator.policy import DEFAULT_RETRY_ON, RefreshPolicy
from repro.orchestrator.scheduler import Orchestrator, TickReport
from repro.orchestrator.state import STATES, NodeStatus

__all__ = [
    "DEFAULT_RETRY_ON",
    "DOWNSTREAM",
    "DependencyGraph",
    "NodeStatus",
    "Orchestrator",
    "RefreshPolicy",
    "STATES",
    "TickReport",
    "ViewNode",
]
