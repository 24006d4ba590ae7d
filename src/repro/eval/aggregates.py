"""Aggregate functions with incremental insert/delete maintenance.

Section 6.2 of the paper classifies aggregate functions following
[DAJ91]:

* *incrementally computable* functions (``SUM``, ``COUNT``) update a
  group's value from the old value and the change alone;
* functions *decomposable* into incrementally computable pieces
  (``AVG``, ``VAR``, ``STDDEV`` — maintained from ``(count, sum,
  sum-of-squares)``);
* functions that are incrementally computable for insertions but not for
  all deletions (``MIN``, ``MAX`` — deleting the current extremum forces
  a recompute of the group from the stored relation).

Each function is a small state machine: :meth:`AggregateFunction.insert`
and :meth:`AggregateFunction.delete` either return the new state or
``None``, meaning "recompute this group from scratch" (the fallback the
paper describes for non-incrementally-computable cases).  Multiplicities
are first-class: a row with count ``k`` contributes ``k`` copies of its
aggregated value, matching duplicate semantics.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import EvaluationError

#: Aggregate state is an opaque tuple; ``None`` signals "needs recompute".
State = Tuple


class AggregateFunction:
    """Interface for group-level aggregate maintenance."""

    #: Registry name, e.g. ``"MIN"``.
    name: str = ""

    def initial(self) -> State:
        """State of an empty group."""
        raise NotImplementedError

    def insert(self, state: State, value: object, count: int) -> Optional[State]:
        """Fold ``count`` copies of ``value`` into ``state``.

        Returns the new state, or ``None`` when incremental maintenance
        is impossible and the group must be recomputed.
        """
        raise NotImplementedError

    def delete(self, state: State, value: object, count: int) -> Optional[State]:
        """Remove ``count`` copies of ``value``; ``None`` = recompute."""
        raise NotImplementedError

    def result(self, state: State) -> object:
        """The aggregate value of a non-empty group."""
        raise NotImplementedError

    def is_empty(self, state: State) -> bool:
        """True when the group holds no rows (its tuple disappears)."""
        raise NotImplementedError

    def compute(self, values: Iterable[Tuple[object, int]]) -> State:
        """Recompute a group's state from ``(value, multiplicity)`` pairs."""
        state = self.initial()
        for value, count in values:
            next_state = self.insert(state, value, count)
            if next_state is None:
                raise EvaluationError(
                    f"{self.name}: insert during recompute may not fail"
                )
            state = next_state
        return state


class SumFunction(AggregateFunction):
    """SUM — incrementally computable in both directions ([DAJ91])."""

    name = "SUM"

    def initial(self) -> State:
        return (0, 0)  # (total, multiplicity)

    def insert(self, state: State, value: object, count: int) -> State:
        total, n = state
        return (total + value * count, n + count)

    def delete(self, state: State, value: object, count: int) -> State:
        total, n = state
        return (total - value * count, n - count)

    def result(self, state: State) -> object:
        return state[0]

    def is_empty(self, state: State) -> bool:
        return state[1] == 0


class CountFunction(AggregateFunction):
    """COUNT — counts row multiplicities (SQL ``COUNT(*)`` over the group)."""

    name = "COUNT"

    def initial(self) -> State:
        return (0,)

    def insert(self, state: State, value: object, count: int) -> State:
        return (state[0] + count,)

    def delete(self, state: State, value: object, count: int) -> State:
        return (state[0] - count,)

    def result(self, state: State) -> object:
        return state[0]

    def is_empty(self, state: State) -> bool:
        return state[0] == 0


class MinFunction(AggregateFunction):
    """MIN — incremental for inserts; extremum deletes force a recompute."""

    name = "MIN"
    _better = staticmethod(min)

    def initial(self) -> State:
        return (None, 0)  # (extremum, multiplicity)

    def insert(self, state: State, value: object, count: int) -> State:
        extremum, n = state
        if extremum is None:
            return (value, n + count)
        return (self._better(extremum, value), n + count)

    def delete(self, state: State, value: object, count: int) -> Optional[State]:
        extremum, n = state
        if n - count == 0:
            return (None, 0)
        strictly_worse = (
            extremum is not None
            and value != extremum
            and self._better(extremum, value) == extremum
        )
        if not strictly_worse:
            # Deleting the current extremum (or a value at least as good):
            # the next extremum is not derivable from the old value alone,
            # so the group must be recomputed from the stored relation.
            return None
        return (extremum, n - count)

    def result(self, state: State) -> object:
        return state[0]

    def is_empty(self, state: State) -> bool:
        return state[1] == 0


class MaxFunction(MinFunction):
    """MAX — mirror image of MIN."""

    name = "MAX"
    _better = staticmethod(max)


class AvgFunction(SumFunction):
    """AVG — decomposed into the incrementally computable (sum, count)."""

    name = "AVG"

    def result(self, state: State) -> object:
        total, n = state
        return total / n


class VarFunction(AggregateFunction):
    """Population variance — decomposed into (count, sum, sum-of-squares)."""

    name = "VAR"

    def initial(self) -> State:
        return (0, 0, 0)  # (n, total, total of squares)

    def insert(self, state: State, value: object, count: int) -> State:
        n, total, squares = state
        return (n + count, total + value * count, squares + value * value * count)

    def delete(self, state: State, value: object, count: int) -> State:
        n, total, squares = state
        return (n - count, total - value * count, squares - value * value * count)

    def result(self, state: State) -> object:
        n, total, squares = state
        mean = total / n
        # Guard against tiny negative values from float cancellation.
        return max(squares / n - mean * mean, 0.0)

    def is_empty(self, state: State) -> bool:
        return state[0] == 0


class StdDevFunction(VarFunction):
    """Population standard deviation — sqrt of the decomposed variance."""

    name = "STDDEV"

    def result(self, state: State) -> object:
        return math.sqrt(super().result(state))


#: Registry keyed by the AST's aggregate-function names.
AGGREGATE_REGISTRY: Dict[str, AggregateFunction] = {
    f.name: f
    for f in (
        SumFunction(),
        CountFunction(),
        MinFunction(),
        MaxFunction(),
        AvgFunction(),
        VarFunction(),
        StdDevFunction(),
    )
}


def get_aggregate_function(name: str) -> AggregateFunction:
    try:
        return AGGREGATE_REGISTRY[name]
    except KeyError:
        raise EvaluationError(f"unknown aggregate function {name!r}") from None
