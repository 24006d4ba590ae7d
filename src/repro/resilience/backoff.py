"""One shared jittered-exponential-backoff schedule for every retry loop.

Three retry loops grew up independently — the journal-append retry in
:meth:`ViewMaintainer._append_journal`, subscriber redelivery in
:class:`~repro.core.active.SubscriptionHub`, and the orchestrator's
per-view refresh policy (:mod:`repro.orchestrator`) — each hand-rolling
the same ``delay * 2**k * (1 + jitter * rng.random())`` arithmetic.
:class:`Backoff` is the single implementation they all share.

The schedule: the *k*-th pause (``attempt`` = k, 1-based) is drawn
uniformly from ``[d_k, d_k * (1 + jitter)]`` where
``d_k = min(base * factor**(k-1), max_seconds)``.  Jitter matters
operationally: retriers that failed on the same event must not retry in
lockstep — synchronized retry storms hammer whatever shared backend made
them fail in the first place.

Determinism contract: the RNG is only consulted when a pause actually
happens (``base_seconds > 0``), one draw per pause, so a seeded
schedule replays exactly — tests pin the full pause sequence.  Pass
``sleep=`` to observe or stub the pauses (the orchestrator tests run
with ``sleep=lambda _s: None`` so fault drills take no wall time).
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional

__all__ = ["Backoff"]


class Backoff:
    """A bounded, seeded, jittered exponential backoff schedule.

    ``pause(attempt)`` sleeps the ``attempt``-th delay (1-based) and
    returns the seconds slept (0.0 when the schedule is disabled by a
    non-positive ``base_seconds``).  ``preview(n)`` lists the *undrawn*
    (jitter-free) delays, handy for logs and tests.
    """

    __slots__ = (
        "base_seconds", "factor", "jitter", "max_seconds", "_rng", "_sleep"
    )

    def __init__(
        self,
        base_seconds: float,
        factor: float = 2.0,
        jitter: float = 0.25,
        max_seconds: Optional[float] = None,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if base_seconds < 0:
            raise ValueError(
                f"base_seconds must be >= 0, got {base_seconds}"
            )
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if max_seconds is not None and max_seconds < 0:
            raise ValueError(
                f"max_seconds must be >= 0, got {max_seconds}"
            )
        if rng is not None and seed is not None:
            raise ValueError("pass rng or seed, not both")
        self.base_seconds = base_seconds
        self.factor = factor
        self.jitter = jitter
        self.max_seconds = max_seconds
        self._rng = rng if rng is not None else random.Random(seed)
        self._sleep = sleep

    def delay(self, attempt: int) -> float:
        """The jitter-free delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = self.base_seconds * self.factor ** (attempt - 1)
        if self.max_seconds is not None:
            delay = min(delay, self.max_seconds)
        return delay

    def pause(self, attempt: int) -> float:
        """Sleep the jittered ``attempt``-th delay; returns seconds slept.

        A disabled schedule (``base_seconds == 0``) neither sleeps nor
        consumes a random draw, so enabling/disabling backoff cannot
        shift the RNG stream of anything sharing the generator.
        """
        delay = self.delay(attempt)
        if delay <= 0:
            return 0.0
        pause = delay * (1.0 + self.jitter * self._rng.random())
        self._sleep(pause)
        return pause

    def preview(self, attempts: int) -> List[float]:
        """The first ``attempts`` jitter-free delays (no RNG draws)."""
        return [self.delay(k) for k in range(1, attempts + 1)]

    def __repr__(self) -> str:
        return (
            f"<Backoff base={self.base_seconds} factor={self.factor} "
            f"jitter={self.jitter} max={self.max_seconds}>"
        )
