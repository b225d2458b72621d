"""Batch dispatch: from formed batches to per-pair results.

The dispatcher is the bridge between the service's batches and the
existing execution stack: each batch runs through a
:class:`~repro.pim.fleet.FleetCoordinator` (which splits it into
MRAM-sized rounds, stripes them across its shards, runs each round
through its shard's :class:`~repro.pim.scheduler.BatchScheduler` round
step and fans it out over ``PimSystemConfig.workers`` host processes;
a one-shard fleet is the plain multi-round run), optionally
under a :class:`~repro.pim.faults.FaultPlan` so a DPU death mid-batch
retries / requeues without dropping or duplicating a pair.

It also owns the service's **modeled device timeline**: batch ``k``
cannot start before batch ``k-1``'s modeled completion, so at high
arrival rates completions lag arrivals — exactly the signal admission
control needs (see :meth:`BatchDispatcher.in_system_pairs`).  All times
here are modeled seconds on the injectable service clock; nothing
sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.pim.faults import FaultPlan, RecoveryReport, RetryPolicy
from repro.serve.resilience import (
    BACKEND_CPU,
    BACKEND_PIM,
    CpuFallbackBackend,
    FallbackPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cigar import Cigar
    from repro.data.generator import ReadPair
    from repro.pim.fleet import FleetCoordinator, FleetRun
    from repro.pim.scheduler import BatchScheduler

__all__ = ["BatchOutcome", "BatchDispatcher"]

#: per-pair outcome: (score, cigar, (pattern_start, text_start)), or
#: ``None`` for a pair recovery abandoned.
PairResult = Optional[Tuple[int, Optional["Cigar"], Tuple[int, int]]]


@dataclass
class BatchOutcome:
    """Everything the service needs back from one dispatched batch."""

    batch_index: int
    num_pairs: int
    #: one entry per batch pair, in batch order
    results: List[PairResult]
    #: when the batch was handed to the device timeline
    dispatched_s: float
    #: when the modeled device actually started it (>= dispatched_s)
    started_s: float
    #: modeled completion time (started_s + the run's total_seconds)
    completed_s: float
    run: "FleetRun" = field(repr=False, default=None)
    #: which execution path served the batch: ``"pim"`` or
    #: ``"cpu-fallback"`` (fleet health below the fallback threshold)
    backend: str = BACKEND_PIM

    @property
    def service_seconds(self) -> float:
        return self.completed_s - self.started_s

    @property
    def queue_delay_s(self) -> float:
        """Time the batch waited for the device behind earlier batches."""
        return self.started_s - self.dispatched_s


class BatchDispatcher:
    """Runs batches through the fleet on a modeled device timeline."""

    def __init__(
        self,
        fleet: "FleetCoordinator",
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        pairs_per_round: Optional[int] = None,
        fallback: Optional[FallbackPolicy] = None,
    ) -> None:
        #: batches run through :meth:`~repro.pim.fleet.FleetCoordinator.run`
        #: (round-striped across shards, health-aware placement); per-DPU
        #: health ledgers live inside the fleet, one per shard, and see
        #: the dispatcher's device timeline so their clocks never run
        #: backwards.
        self.fleet = fleet
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: optional round-size override forwarded to the fleet
        #: (``None`` = MRAM-capacity-sized rounds).
        self.pairs_per_round = pairs_per_round
        #: optional CPU-fallback policy: batches route to the CPU
        #: baseline while the fleet's healthy capacity sits below
        #: ``fallback.min_healthy_fraction``.
        self.fallback = fallback
        self._cpu_backend: Optional[CpuFallbackBackend] = (
            CpuFallbackBackend(fleet.kernel_config, fallback)
            if fallback is not None
            else None
        )
        #: aggregate recovery report across every dispatched batch, pair
        #: indices rebased to dispatch order (``None`` without faults).
        self.recovery: Optional[RecoveryReport] = None
        self._free_at = 0.0
        self._pair_offset = 0
        self._batches = 0
        # tracks whether the previous batch took the CPU-fallback path,
        # so activation/recovery publish one `fallback` event per edge
        # rather than one per batch.
        self._fallback_active = False
        #: (modeled completion, pairs) of batches possibly still in
        #: flight on the modeled timeline; pruned as "now" advances.
        self._in_flight: List[Tuple[float, int]] = []

    @property
    def scheduler(self) -> "BatchScheduler":
        """Shard 0's scheduler (its ``system.kernel_config`` is the
        service's)."""
        return self.fleet.schedulers[0]

    # -- modeled timeline --------------------------------------------------

    @property
    def batches_dispatched(self) -> int:
        return self._batches

    @property
    def device_free_at(self) -> float:
        """Modeled time the device finishes everything dispatched so far."""
        return self._free_at

    def in_system_pairs(self, now: float) -> int:
        """Pairs dispatched whose modeled completion is still ahead of
        ``now`` — the device-side half of the service's queue bound."""
        self._in_flight = [(t, n) for t, n in self._in_flight if t > now]
        return sum(n for _, n in self._in_flight)

    # -- dispatch ----------------------------------------------------------

    def _healthy_fraction(self, now: float) -> float:
        """Healthy capacity of the fleet, network included.

        A quarantined coordinator<->shard link degrades capacity exactly
        like quarantined DPUs do (the min of device health and
        :meth:`~repro.pim.fleet.FleetCoordinator.link_healthy_fraction`),
        so a partitioned shard pushes batches toward the CPU fallback
        even while its DPUs are perfectly healthy.  Both are 1.0 without
        a health policy and a transport.
        """
        return min(
            self.fleet.healthy_fraction(now),
            self.fleet.link_healthy_fraction(now),
        )

    def _degraded(self, now: float) -> bool:
        """Whether the fleet sits below the CPU-fallback threshold."""
        if self.fallback is None or self.fallback.min_healthy_fraction <= 0.0:
            return False
        return self._healthy_fraction(now) < self.fallback.min_healthy_fraction

    def _note_fallback(self, degraded: bool, now: float) -> None:
        """Publish a ``fallback`` event on each activate/recover edge."""
        if degraded == self._fallback_active:
            return
        self._fallback_active = degraded
        telemetry = self.fleet.telemetry
        if telemetry is None:
            return
        from repro.obs.events import FALLBACK

        telemetry.events.publish(
            FALLBACK,
            now,
            state="active" if degraded else "recovered",
            healthy_fraction=self._healthy_fraction(now),
        )

    def dispatch(self, pairs: List["ReadPair"], now: float) -> BatchOutcome:
        """Align one batch; map results back to batch order.

        The fleet returns per-round results (in global round order)
        with round-local pair indices; they are rebased here so
        ``results[i]`` is batch pair ``i``.  Pairs the recovery layer
        abandoned come back as ``None`` entries rather than being
        silently dropped.

        Under a health policy the batch's rounds run quarantine-aware
        on the device timeline; when healthy capacity is below the
        fallback threshold the whole batch routes to the CPU baseline
        instead — it completes at ``now + cpu seconds`` without touching
        (or waiting for) the PIM device timeline.
        """
        degraded = self._degraded(now) and self._cpu_backend is not None
        self._note_fallback(degraded, now)
        if degraded:
            results_cpu, cpu_seconds = self._cpu_backend.align_batch(list(pairs))
            self._pair_offset += len(pairs)
            completed = now + cpu_seconds
            self._in_flight.append((completed, len(pairs)))
            index = self._batches
            self._batches += 1
            return BatchOutcome(
                batch_index=index,
                num_pairs=len(pairs),
                results=list(results_cpu),
                dispatched_s=now,
                started_s=now,
                completed_s=completed,
                run=None,
                backend=BACKEND_CPU,
            )

        started = max(now, self._free_at)
        run = self.fleet.run(
            list(pairs),
            pairs_per_round=self.pairs_per_round,
            collect_results=True,
            fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
            now=started,
        )
        results: List[PairResult] = [None] * len(pairs)
        start = 0
        for rnd, size in zip(run.per_round, run.schedule.round_sizes()):
            for local, score, cigar in rnd.results:
                region = rnd.regions.get(local, (0, 0))
                results[start + local] = (score, cigar, region)
            start += size

        if run.recovery is not None:
            run.recovery.shift_pairs(self._pair_offset)
            if self.recovery is None:
                self.recovery = RecoveryReport()
            self.recovery.merge(run.recovery)
        self._pair_offset += len(pairs)

        completed = started + run.total_seconds
        self._free_at = completed
        self._in_flight.append((completed, len(pairs)))
        index = self._batches
        self._batches += 1
        return BatchOutcome(
            batch_index=index,
            num_pairs=len(pairs),
            results=results,
            dispatched_s=now,
            started_s=started,
            completed_s=completed,
            run=run,
        )
