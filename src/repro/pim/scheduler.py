"""Host-side batch scheduler for workloads larger than one MRAM fill.

The paper's experiment fits 5M pairs into one distribution round (~430 KB
per DPU against 64 MB banks), but a production workload — or longer
reads — can exceed what the input+output regions of a bank can hold.
The scheduler splits such workloads into rounds sized to MRAM capacity
and runs distribute → launch → gather per round, serialized as the
paper's host loop implies: a round's results are copied back only when
its DPUs complete, and the next round starts after that.

A :class:`BatchScheduler` plans a workload's rounds
(:meth:`~BatchScheduler.plan`), opens its journal
(:meth:`~BatchScheduler.open_journal`) and runs one round
(:meth:`~BatchScheduler.run`).  The loop over rounds lives in
:mod:`repro.pim.fleet`, which drives one scheduler per shard, so a
one-shard :class:`~repro.pim.fleet.FleetCoordinator` is the plain
multi-round run.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.data.generator import ReadPair
from repro.errors import ConfigError, JournalError
from repro.pim.faults import FaultPlan, RetryPolicy
from repro.pim.layout import HEADER_BYTES
from repro.pim.system import PimRunResult, PimSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.wfa_batch import BatchPairView
    from repro.pim.health import FleetHealth
    from repro.pim.journal import RunJournal

__all__ = ["BatchSchedule", "BatchScheduler"]

#: share of each MRAM bank a round's records and metadata may fill.
MRAM_BUDGET_FRACTION = 0.9


@dataclass(frozen=True)
class BatchSchedule:
    """How a workload splits into MRAM-sized rounds."""

    total_pairs: int
    pairs_per_round: int

    @property
    def rounds(self) -> int:
        return math.ceil(self.total_pairs / self.pairs_per_round)

    def round_sizes(self) -> list[int]:
        # An empty workload has zero rounds; the general expression below
        # would fabricate a phantom round of ``pairs_per_round`` pairs
        # (list of -1 copies is empty, then the append contributes
        # ``total - per * (0 - 1) = per``).
        if self.total_pairs == 0:
            return []
        sizes = [self.pairs_per_round] * (self.rounds - 1)
        sizes.append(self.total_pairs - self.pairs_per_round * (self.rounds - 1))
        return sizes


class BatchScheduler:
    """Plans, journals and runs MRAM-sized rounds on one :class:`PimSystem`."""

    def __init__(self, system: PimSystem) -> None:
        self.system = system

    def max_pairs_per_round(self) -> int:
        """Pairs per round whose records fit :data:`MRAM_BUDGET_FRACTION`
        of every DPU's MRAM bank."""
        probe = self.system.plan_layout(1)
        per_pair = probe.input_record_size + probe.result_record_size
        fixed = (
            HEADER_BYTES
            + self.system.config.tasklets * probe.metadata_bytes_per_tasklet
        )
        budget = int(self.system.config.dpu.mram_bytes * MRAM_BUDGET_FRACTION) - fixed
        per_dpu_pairs = max(1, budget // per_pair)
        return per_dpu_pairs * self.system.config.num_dpus

    def plan(self, total_pairs: int, pairs_per_round: Optional[int] = None) -> BatchSchedule:
        """Split ``total_pairs`` into rounds (capacity-sized by default).

        ``total_pairs == 0`` is a valid degenerate workload: the schedule
        has zero rounds and ``round_sizes()`` is empty, so a fleet run of
        no pairs performs no device work.
        """
        if total_pairs < 0:
            raise ConfigError(f"total_pairs must be >= 0, got {total_pairs}")
        cap = self.max_pairs_per_round()
        if pairs_per_round is None:
            pairs_per_round = cap
        if pairs_per_round < 1:
            raise ConfigError("pairs_per_round must be >= 1")
        if pairs_per_round > cap:
            raise ConfigError(
                f"pairs_per_round {pairs_per_round} exceeds MRAM capacity {cap}"
            )
        return BatchSchedule(total_pairs=total_pairs, pairs_per_round=pairs_per_round)

    def _fingerprint(
        self,
        pairs: list[ReadPair],
        schedule: BatchSchedule,
        collect_results: bool,
        fault_plan: Optional[FaultPlan],
        retry_policy: Optional[RetryPolicy],
        health: Optional["FleetHealth"],
    ) -> dict:
        """Journal fingerprint of this run's outcome-determining inputs."""
        from repro.pim.journal import workload_fingerprint

        policy: Optional[RetryPolicy] = None
        if fault_plan is not None:
            policy = retry_policy if retry_policy is not None else RetryPolicy()
        return workload_fingerprint(
            pairs,
            schedule.pairs_per_round,
            self.system.config.num_dpus,
            self.system.config.tasklets,
            self.system.config.metadata_policy,
            collect_results,
            fault_plan=fault_plan,
            retry_policy=policy,
            health_policy=health.policy if health is not None else None,
        )

    def open_journal(
        self,
        journal: Optional[Union[str, Path, "RunJournal"]],
        pairs: list[ReadPair],
        schedule: BatchSchedule,
        collect_results: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional["FleetHealth"] = None,
        resume: bool = False,
    ) -> tuple[Optional["RunJournal"], dict[int, PimRunResult]]:
        """Open a run's journal; returns ``(journal, replay)``.

        A path starts a fresh ``repro.pim.journal/v1`` file stamped with
        this run's fingerprint.  ``resume=True`` on a path, or an open
        :class:`~repro.pim.journal.RunJournal`, loads it, refuses a
        fingerprint mismatch (:class:`~repro.errors.JournalError`) and
        maps each journaled round index to its completed result.
        """
        if journal is None:
            return None, {}
        from repro.pim.journal import RunJournal, result_from_dict

        fingerprint = self._fingerprint(
            pairs, schedule, collect_results, fault_plan, retry_policy, health
        )
        if not resume and not isinstance(journal, RunJournal):
            return RunJournal.create(journal, fingerprint), {}
        if not isinstance(journal, RunJournal):
            journal = RunJournal.load(journal)
        journal.validate_fingerprint(fingerprint)
        num_rounds = schedule.rounds
        replay: dict[int, PimRunResult] = {}
        for index, record in journal.rounds().items():
            if not 0 <= index < num_rounds:
                raise JournalError(
                    f"journal round {index} out of range for a "
                    f"{num_rounds}-round schedule"
                )
            replay[index] = result_from_dict(record["result"])
        return journal, replay

    def _note_round_size(self, pairs_per_round: int) -> None:
        """Publish the run's round size."""
        telemetry = self.system.telemetry
        if telemetry is not None:
            telemetry.registry.gauge(
                "pim_scheduler_pairs_per_round",
                "pairs per MRAM-sized distribution round",
            ).set(pairs_per_round)

    def run(
        self,
        index: int,
        start: int,
        chunk: list[ReadPair],
        clock: float,
        collect_results: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional["FleetHealth"] = None,
        journal: Optional["RunJournal"] = None,
        replay: Optional[PimRunResult] = None,
        views: Optional[Sequence["BatchPairView"]] = None,
    ) -> PimRunResult:
        """One distribute → launch → gather round at modeled time ``clock``.

        ``index`` is the round's place in its run and ``start`` its
        first pair's run-level index (recovery is rebased by it).  The
        caller advances its clock by ``total_seconds +
        recovery_overhead_seconds``.  An executed round records a
        wall-time ``scheduler_round`` span and bumps
        ``pim_scheduler_rounds_total`` when the system has telemetry;
        runs fault-tolerantly under a ``fault_plan``; runs only on the
        DPUs a ``health`` ledger allows and feeds the ledger its
        outcomes at ``clock``; and is appended to ``journal`` before
        the call returns.  ``replay`` is the round's journaled result
        (resume path): replayed rounds skip device work entirely but
        still feed the health ledger and the aggregate report, so a
        resumed run reconstructs the exact state an uninterrupted run
        would have reached.  ``views`` are the chunk's vector-engine
        views, aligned ahead by the caller
        (:meth:`~repro.pim.system.PimSystem.batch_views`).
        """
        telemetry = self.system.telemetry
        size = len(chunk)
        if replay is not None:
            # checkpointed round: splice the journaled result in —
            # recovery is already rebased to global pair indices and
            # the journal-write is already durable.
            result = replay
            if telemetry is not None:
                telemetry.registry.counter(
                    "pim_journal_rounds_replayed_total",
                    "scheduler rounds restored from a journal on resume",
                ).inc()
                from repro.obs.events import JOURNAL_REPLAY

                telemetry.events.publish(
                    JOURNAL_REPLAY, clock, round=index, pairs=size
                )
        else:
            active: Optional[tuple[int, ...]] = None
            if health is not None:
                active = health.plan_round(now=clock)
                if len(active) == self.system.config.num_dpus:
                    active = None
            span = nullcontext()
            if telemetry is not None:
                telemetry.registry.counter(
                    "pim_scheduler_rounds_total",
                    "distribute->launch->gather rounds executed",
                ).inc()
                span = telemetry.profiler.span(
                    "scheduler_round", round=index, pairs=size
                )
            with span:
                result = self.system.align(
                    chunk,
                    collect_results=collect_results,
                    fault_plan=fault_plan,
                    retry_policy=retry_policy,
                    active_dpus=active,
                    views=views,
                )
            if result.recovery is not None:
                result.recovery.shift_pairs(start)
                if telemetry is not None:
                    from repro.obs.events import WATCHDOG

                    # records are kept sorted by logical pair id, so
                    # the published order is deterministic.
                    for rec in result.recovery.records:
                        for placement, kind in rec.attempts_log:
                            if kind == "TaskletStallError":
                                telemetry.events.publish(
                                    WATCHDOG,
                                    clock,
                                    dpu=placement,
                                    round=index,
                                )
            if journal is not None:
                journal.append_round(index, start, size, result)
        if health is not None:
            if result.recovery is not None:
                health.observe_report(result.recovery, now=clock)
            else:
                participants = (
                    result.active_dpus
                    if result.active_dpus is not None
                    else range(self.system.config.num_dpus)
                )
                health.observe_success(participants, now=clock)
        return result
