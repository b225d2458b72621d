"""Fleet-health ledger: per-DPU circuit breakers and quarantine.

PR 3's recovery layer tolerates faults *within* a run: a dead DPU's
batch is retried, backed off, and requeued onto spares — but nothing
remembers that the DPU was bad, so the next round places work on it
again and pays the full retry tax every time.  At the paper's scale
(2560 DPUs kept busy for millions of pairs) a single persistently bad
rank re-tried forever dominates the modeled run time.

This module is the *across-round* memory: a :class:`FleetHealth` ledger
holds one :class:`CircuitBreaker` per physical DPU, fed by the
:class:`~repro.pim.faults.RecoveryReport` s each round produces (the
per-attempt ``(placement, error)`` log attributes failures to physical
hardware even after requeues).  The round step
(:meth:`~repro.pim.scheduler.BatchScheduler.run`) consults the ledger
when placing a round: quarantined DPUs are
excluded from placement entirely — the round runs on the healthy
remainder (honestly modeled: fewer DPUs means bigger per-DPU batches
and longer kernels) instead of burning retries — and the capacity loss
is surfaced as metrics plus a typed
:class:`~repro.errors.DegradedCapacity` warning.

Breaker discipline (the classic closed → open → half-open machine, on
the *modeled* clock — never wall time, never slept):

* **closed** — the DPU takes placements.  Failures accumulate in a
  sliding window of the most recent ``window`` outcomes; when the
  window holds ``failure_threshold`` failures the breaker *opens*.
* **open** — the DPU is quarantined.  After ``cooldown_s`` modeled
  seconds the breaker moves to *half-open* on its next query.
* **half-open** — probation: the DPU takes placements again (probe
  traffic).  ``probe_successes`` consecutive successes close the
  breaker; any failure reopens it and restarts the cooldown.

Everything is deterministic: breakers are stored and queried in DPU-id
order, state changes depend only on the observed outcome sequence and
the modeled timestamps, and the ledger can be reconstructed exactly by
replaying journaled recovery reports (crash-resume keeps quarantine
decisions identical).
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigError, DegradedCapacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.pim.faults import RecoveryReport

__all__ = ["HealthPolicy", "CircuitBreaker", "FleetHealth", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class HealthPolicy:
    """Tuning knobs for the per-DPU circuit breakers."""

    #: sliding window length (most recent outcomes per DPU considered)
    window: int = 8
    #: failures within the window that open the breaker
    failure_threshold: int = 3
    #: modeled seconds a breaker stays open before probation
    cooldown_s: float = 0.05
    #: consecutive half-open successes required to close the breaker
    probe_successes: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.failure_threshold <= self.window:
            raise ConfigError(
                f"failure_threshold must be in [1, window={self.window}], "
                f"got {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ConfigError("cooldown_s must be >= 0")
        if self.probe_successes < 1:
            raise ConfigError(
                f"probe_successes must be >= 1, got {self.probe_successes}"
            )


class CircuitBreaker:
    """Closed → open → half-open breaker for one physical DPU.

    All timestamps are modeled seconds supplied by the caller; the
    breaker never reads a wall clock.  The open → half-open transition
    happens lazily on :meth:`state` queries once the cooldown has
    elapsed — callers that query in a deterministic order (see
    :class:`FleetHealth`) therefore see deterministic transitions.
    """

    def __init__(self, policy: HealthPolicy) -> None:
        self.policy = policy
        self._state = CLOSED
        self._window: deque[bool] = deque(maxlen=policy.window)
        self._opened_at = 0.0
        self._probe_streak = 0
        #: lifetime counters (diagnostics / ledger snapshots)
        self.failures = 0
        self.successes = 0
        self.times_opened = 0

    # -- queries ---------------------------------------------------------

    def state(self, now: float) -> str:
        """Current state at modeled time ``now`` (may promote to
        half-open once the cooldown has elapsed)."""
        if self._state == OPEN and now >= self._opened_at + self.policy.cooldown_s:
            self._state = HALF_OPEN
            self._probe_streak = 0
        return self._state

    def allows(self, now: float) -> bool:
        """Whether the DPU may take placements at ``now`` (closed or
        half-open probation — open means quarantined)."""
        return self.state(now) != OPEN

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the current sliding window."""
        if not self._window:
            return 0.0
        return sum(self._window) / len(self._window)

    # -- outcomes --------------------------------------------------------

    def record_failure(self, now: float) -> str:
        """Account one failed placement; returns the resulting state."""
        self.failures += 1
        state = self.state(now)
        if state == HALF_OPEN:
            # a probe failed: reopen and restart the cooldown
            self._trip(now)
        else:
            self._window.append(True)
            if sum(self._window) >= self.policy.failure_threshold:
                self._trip(now)
        return self._state

    def record_success(self, now: float) -> str:
        """Account one successful placement; returns the resulting state."""
        self.successes += 1
        state = self.state(now)
        if state == HALF_OPEN:
            self._probe_streak += 1
            if self._probe_streak >= self.policy.probe_successes:
                self._state = CLOSED
                self._window.clear()
                self._probe_streak = 0
        elif state == CLOSED:
            self._window.append(False)
        return self._state

    def _trip(self, now: float) -> None:
        self._state = OPEN
        self._opened_at = now
        self._window.clear()
        self._probe_streak = 0
        self.times_opened += 1

    def to_dict(self, now: float) -> dict:
        return {
            "state": self.state(now),
            "failures": self.failures,
            "successes": self.successes,
            "times_opened": self.times_opened,
            "failure_rate": self.failure_rate,
        }

    # -- state transfer ----------------------------------------------------

    def export_state(self) -> dict:
        """Picklable/JSON-able full internal state (no lazy promotion).

        Unlike :meth:`to_dict` this is a *lossless* snapshot — the
        sliding window, probe streak, and open timestamp travel too, so
        a breaker reconstructed via :meth:`import_state` behaves
        byte-identically from the next outcome on.  This is how a
        process-pool fleet shard ships its health delta home (see
        :class:`~repro.pim.fleet.ShardOutcome`).
        """
        return {
            "state": self._state,
            "window": list(self._window),
            "opened_at": self._opened_at,
            "probe_streak": self._probe_streak,
            "failures": self.failures,
            "successes": self.successes,
            "times_opened": self.times_opened,
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self._state = state["state"]
        self._window = deque(
            (bool(b) for b in state["window"]), maxlen=self.policy.window
        )
        self._opened_at = float(state["opened_at"])
        self._probe_streak = int(state["probe_streak"])
        self.failures = int(state["failures"])
        self.successes = int(state["successes"])
        self.times_opened = int(state["times_opened"])


class FleetHealth:
    """Per-DPU health ledger over one physical fleet.

    Feed it round outcomes (:meth:`observe_report` /
    :meth:`observe_success`), ask it who may take work
    (:meth:`plan_round` / :meth:`available`).  The ledger keeps a
    monotone modeled clock — callers pass timestamps from whatever
    timeline they run on (scheduler model time, the serve virtual
    clock) and the ledger takes the max, so replays and resumed runs
    reconstruct identical breaker states.
    """

    def __init__(
        self,
        num_dpus: int,
        policy: Optional[HealthPolicy] = None,
        registry: Optional["MetricsRegistry"] = None,
        events: Optional["EventLog"] = None,
    ) -> None:
        if num_dpus < 1:
            raise ConfigError(f"num_dpus must be >= 1, got {num_dpus}")
        self.policy = policy if policy is not None else HealthPolicy()
        self.num_dpus = num_dpus
        self.breakers = {d: CircuitBreaker(self.policy) for d in range(num_dpus)}
        self._now = 0.0
        self._registry = registry
        #: optional structured event sink — every breaker state change
        #: becomes a typed ``breaker`` event (dpu, old, new) at the
        #: modeled time the outcome was recorded.
        self.events = events
        self._transitions = None
        self._quarantined_gauge = None
        self._capacity_gauge = None
        if registry is not None:
            self._transitions = registry.counter(
                "pim_breaker_transitions_total",
                "circuit-breaker state transitions, by new state",
            )
            self._quarantined_gauge = registry.gauge(
                "pim_dpus_quarantined", "DPUs currently quarantined (breaker open)"
            )
            self._capacity_gauge = registry.gauge(
                "pim_healthy_capacity",
                "fraction of the fleet available for placement",
            )

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def advance(self, now: float) -> float:
        """Advance the ledger clock (monotone max) and return it."""
        self._now = max(self._now, now)
        return self._now

    # -- outcome ingestion -----------------------------------------------

    def record_failure(self, dpu_id: int, now: Optional[float] = None) -> str:
        now = self.advance(self._now if now is None else now)
        before = self.breakers[dpu_id].state(now)
        after = self.breakers[dpu_id].record_failure(now)
        self._count_transition(before, after, dpu_id, now)
        return after

    def record_success(self, dpu_id: int, now: Optional[float] = None) -> str:
        now = self.advance(self._now if now is None else now)
        before = self.breakers[dpu_id].state(now)
        after = self.breakers[dpu_id].record_success(now)
        self._count_transition(before, after, dpu_id, now)
        return after

    def observe_report(
        self, report: "RecoveryReport", now: Optional[float] = None
    ) -> None:
        """Fold one round's recovery outcomes into the ledger.

        Failures are attributed to *physical* placements via each
        record's ``attempts_log`` (``errors`` alone cannot say which
        DPU misbehaved after a requeue); the final successful placement
        earns a success.  Records are walked in list order — reports
        keep records sorted by logical id — so replaying the same
        report always produces the same breaker states.
        """
        now = self.advance(self._now if now is None else now)
        for rec in report.records:
            for placement, _kind in rec.attempts_log:
                if placement in self.breakers:
                    self.record_failure(placement, now)
            if rec.final_placement is not None and rec.final_placement in self.breakers:
                self.record_success(rec.final_placement, now)

    def observe_success(
        self, dpu_ids: Iterable[int], now: Optional[float] = None
    ) -> None:
        """Credit a clean (fault-free) round to every participating DPU."""
        now = self.advance(self._now if now is None else now)
        for d in sorted(set(dpu_ids)):
            if d in self.breakers:
                self.record_success(d, now)

    # -- placement queries -------------------------------------------------

    def available(self, now: Optional[float] = None) -> tuple[int, ...]:
        """Sorted physical DPU ids allowed to take placements (closed or
        half-open probation).  Queries breakers in id order, so any
        cooldown-driven open → half-open promotions happen
        deterministically."""
        now = self.advance(self._now if now is None else now)
        return tuple(
            d for d in range(self.num_dpus) if self.breakers[d].allows(now)
        )

    def quarantined(self, now: Optional[float] = None) -> tuple[int, ...]:
        now = self.advance(self._now if now is None else now)
        return tuple(
            d for d in range(self.num_dpus) if not self.breakers[d].allows(now)
        )

    def healthy_fraction(self, now: Optional[float] = None) -> float:
        return len(self.available(now)) / self.num_dpus

    def plan_round(self, now: Optional[float] = None) -> tuple[int, ...]:
        """Active placement set for the next scheduler round.

        Quarantined DPUs are excluded; the capacity gauges are updated
        and a :class:`~repro.errors.DegradedCapacity` warning is issued
        when the round runs below full strength.  If *every* breaker is
        open (total quarantine), the full fleet is returned instead —
        refusing to place work at all would deadlock the run, so the
        whole fleet becomes probe traffic (and the warning says so).
        """
        now = self.advance(self._now if now is None else now)
        active = self.available(now)
        quarantined = self.num_dpus - len(active)
        if self._quarantined_gauge is not None:
            self._quarantined_gauge.set(quarantined)
        if self._capacity_gauge is not None:
            self._capacity_gauge.set(len(active) / self.num_dpus if active else 0.0)
        if not active:
            warnings.warn(
                f"all {self.num_dpus} DPUs quarantined at t={now:.6f}; "
                "forcing a full-fleet probe round",
                DegradedCapacity,
                stacklevel=2,
            )
            return tuple(range(self.num_dpus))
        if quarantined:
            warnings.warn(
                f"{quarantined} of {self.num_dpus} DPUs quarantined at "
                f"t={now:.6f}; round placed on {len(active)} healthy DPUs",
                DegradedCapacity,
                stacklevel=2,
            )
        return active

    # -- documents ---------------------------------------------------------

    def states(self, now: Optional[float] = None) -> dict[int, str]:
        now = self.advance(self._now if now is None else now)
        return {d: self.breakers[d].state(now) for d in range(self.num_dpus)}

    def to_dict(self, now: Optional[float] = None) -> dict:
        now = self.advance(self._now if now is None else now)
        return {
            "schema": "repro.pim.health/v1",
            "now": now,
            "num_dpus": self.num_dpus,
            "available": list(self.available(now)),
            "quarantined": list(self.quarantined(now)),
            "breakers": {
                str(d): self.breakers[d].to_dict(now) for d in range(self.num_dpus)
            },
        }

    # -- state transfer ----------------------------------------------------

    def export_state(self) -> dict:
        """Lossless, picklable ledger state (clock + every breaker).

        The fleet coordinator ships this into process-pool shard workers
        (so a worker's ledger starts exactly where the coordinator's
        persistent one left off) and back out again as the
        :class:`~repro.pim.fleet.ShardOutcome` health delta.  Replaying
        an exported state through :meth:`import_state` is byte-identical
        to having observed the outcomes in-process — the property that
        lets ``shard_workers > 1`` carry health ledgers at all.
        """
        return {
            "now": self._now,
            "breakers": {
                str(d): self.breakers[d].export_state()
                for d in range(self.num_dpus)
            },
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        Counters/events attached to this ledger are *not* replayed —
        the process that observed the outcomes already published them.
        """
        self._now = max(self._now, float(state["now"]))
        for key, breaker_state in state["breakers"].items():
            d = int(key)
            if d in self.breakers:
                self.breakers[d].import_state(breaker_state)

    def _count_transition(
        self, before: str, after: str, dpu_id: int, now: float
    ) -> None:
        if before == after:
            return
        if self._transitions is not None:
            self._transitions.inc(to=after)
        if self.events is not None:
            from repro.obs.events import BREAKER

            self.events.publish(BREAKER, now, dpu=dpu_id, old=before, new=after)
