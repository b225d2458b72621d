"""The alignment service's virtual clock.

The batcher's flush deadline in :mod:`repro.serve` is driven through a
:class:`VirtualClock` instead of ``time`` / ``asyncio.sleep``, for one
reason: **tests never sleep**.  The clock owns a manually-advanced
timeline and a deterministic timer queue — advancing it fires due
timers in ``(deadline, registration order)`` order, so a thousand-request
soak test runs in milliseconds of wall time and produces bit-identical
modeled latencies on every run.  Every command (``repro serve``,
``repro loadgen``) runs the service on one.

The service uses three calls: ``now()`` (current modeled seconds),
``call_at(when, callback)`` (schedule ``callback()`` at ``when``) and
the returned :class:`Timer`'s ``cancel()``.  Its driver moves time with
``advance_to`` / ``advance``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.errors import ServeError

__all__ = ["Timer", "VirtualClock"]


class Timer:
    """A scheduled callback on a :class:`VirtualClock` timeline."""

    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(self, when: float, seq: int, callback: Callable[[], None]) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        # Drop the callback, as asyncio's handles do: a cancelled timer
        # waits in the heap until its deadline passes, and its callback
        # (usually a method of the clock's owner) would keep the owner,
        # which holds the clock, alive in a reference cycle.
        self.cancelled = True
        self.callback = None

    def __lt__(self, other: "Timer") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class VirtualClock:
    """A deterministic, manually-advanced clock with a timer queue.

    Timers fire during :meth:`advance` / :meth:`advance_to`, in
    ``(deadline, registration order)`` order; a firing callback may
    schedule further timers, which fire in the same sweep if they fall
    inside it.  Time never moves backwards.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._timers: List[Timer] = []
        self._seq = 0

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at time ``when`` (>= now, else fires on
        the next advance)."""
        timer = Timer(float(when), self._seq, callback)
        self._seq += 1
        heapq.heappush(self._timers, timer)
        return timer

    def advance_to(self, deadline: float) -> None:
        """Move time forward to ``deadline``, firing every due timer."""
        if deadline < self._now:
            raise ServeError(
                f"cannot advance clock backwards: now={self._now}, "
                f"target={deadline}"
            )
        while self._timers and self._timers[0].when <= deadline:
            timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            # a timer registered in the past fires "now", never rewinds
            self._now = max(self._now, timer.when)
            timer.callback()
        self._now = max(self._now, deadline)

    def advance(self, dt: float = 0.0) -> None:
        """Move time forward by ``dt`` seconds, firing due timers."""
        if dt < 0:
            raise ServeError(f"cannot advance clock by negative dt {dt}")
        self.advance_to(self._now + dt)

    def next_timer(self) -> Optional[float]:
        """Deadline of the earliest pending (non-cancelled) timer."""
        while self._timers and self._timers[0].cancelled:
            heapq.heappop(self._timers)
        return self._timers[0].when if self._timers else None
