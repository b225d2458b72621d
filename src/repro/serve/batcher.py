"""Dynamic micro-batching: coalesce a request stream into MRAM rounds.

The batcher is a *pure* state machine over per-pair work items: the
service feeds it items and a notion of "now" and it hands back formed
batches; it never touches a clock, a future, or the PIM system, which is
what makes it unit-testable with a
:class:`~hypothesis.stateful.RuleBasedStateMachine`.

Policy (the standard serving trade-off):

* **flush on size** — the moment the pending queue holds
  ``max_batch_pairs`` items, a full batch is emitted (largest batch the
  device-side round can absorb at once);
* **flush on deadline** — otherwise the *oldest* pending item waits at
  most ``max_wait_s``; when that deadline passes the whole queue is
  flushed (in chunks of at most ``max_batch_pairs``), bounding tail
  latency under trickle traffic.

Whichever trigger fires first wins.  The service arms a single clock
timer at :meth:`MicroBatcher.next_deadline` and calls
:meth:`MicroBatcher.take_due` when it fires.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

from repro.data.generator import ReadPair
from repro.errors import ConfigError

__all__ = ["BatchPolicy", "WorkItem", "Batch", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """When to flush the pending queue into a device batch."""

    #: flush as soon as this many pairs are pending (one device round).
    max_batch_pairs: int = 64
    #: flush at most this long (modeled seconds) after the oldest pending
    #: pair arrived, whichever of the two triggers comes first.
    max_wait_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_batch_pairs < 1:
            raise ConfigError(
                f"max_batch_pairs must be >= 1, got {self.max_batch_pairs}"
            )
        if self.max_wait_s < 0:
            raise ConfigError(f"max_wait_s must be >= 0, got {self.max_wait_s}")


@dataclass(frozen=True)
class WorkItem:
    """One pair of one request, as the batcher sees it."""

    seq: int  # global pair sequence number (submission order)
    request_seq: int  # owning request's sequence number
    offset: int  # pair index within the owning request
    pair: ReadPair
    arrival_s: float
    #: result-cache key (``None`` when caching is off for this item)
    key: Optional[str] = None


@dataclass
class Batch:
    """A formed batch, ready for dispatch."""

    index: int
    items: List[WorkItem]
    reason: str  # "size" | "deadline" | "drain"
    formed_s: float

    @property
    def num_pairs(self) -> int:
        return len(self.items)

    @property
    def oldest_arrival_s(self) -> float:
        return min(i.arrival_s for i in self.items)

    @property
    def wait_s(self) -> float:
        """How long the batch's oldest pair waited to be formed."""
        return self.formed_s - self.oldest_arrival_s


class MicroBatcher:
    """FIFO pair queue with size- and deadline-triggered batch formation."""

    def __init__(self, policy: Optional[BatchPolicy] = None) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        self._pending: Deque[WorkItem] = deque()
        self._next_index = 0

    # -- queries ----------------------------------------------------------

    @property
    def pending_pairs(self) -> int:
        return len(self._pending)

    def next_deadline(self) -> Optional[float]:
        """When the oldest pending pair must flush (``None`` if empty)."""
        if not self._pending:
            return None
        return self._pending[0].arrival_s + self.policy.max_wait_s

    # -- mutations --------------------------------------------------------

    def _form(self, reason: str, now: float, count: int) -> Batch:
        items = [self._pending.popleft() for _ in range(count)]
        batch = Batch(
            index=self._next_index, items=items, reason=reason, formed_s=now
        )
        self._next_index += 1
        return batch

    def add(self, items: Iterable[WorkItem], now: float) -> List[Batch]:
        """Enqueue items; return any size-triggered full batches."""
        self._pending.extend(items)
        out: List[Batch] = []
        cap = self.policy.max_batch_pairs
        while len(self._pending) >= cap:
            out.append(self._form("size", now, cap))
        return out

    def _flush_all(self, reason: str, now: float) -> List[Batch]:
        out: List[Batch] = []
        cap = self.policy.max_batch_pairs
        while self._pending:
            out.append(self._form(reason, now, min(cap, len(self._pending))))
        return out

    def take_due(self, now: float) -> List[Batch]:
        """Deadline fired: flush everything pending (possibly [])."""
        deadline = self.next_deadline()
        if deadline is None or deadline > now:
            return []
        return self._flush_all("deadline", now)

    def drain(self, now: float) -> List[Batch]:
        """Flush everything regardless of deadlines (shutdown / drain)."""
        return self._flush_all("drain", now)
