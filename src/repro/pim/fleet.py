"""Multi-rank sharded fleet: federate many ``PimSystem``\\ s.

The paper's headline throughput comes from a 20-DIMM / 2560-DPU UPMEM
deployment, but one :class:`~repro.pim.system.PimSystem` simulates a
single fleet on a single modeled timeline.  This module adds the
rank/DIMM layer above it: a :class:`FleetCoordinator` partitions a
workload across ``shards`` independent, identically-shaped
:class:`~repro.pim.system.PimSystem` shards and runs them concurrently
on the modeled clock (each shard's rounds stack serially on its own
timeline; the fleet's makespan is the slowest shard's), the way the
authors' follow-up framework paper dispatches work across real PIM
ranks with host-side aggregation.  Its round loop is the only
multi-round loop and :class:`FleetRun` the only multi-round record: a
one-shard fleet is the plain multi-round run.

Sharding model — **round striping**:

* the workload is split into MRAM-sized rounds by
  :meth:`~repro.pim.scheduler.BatchScheduler.plan` (the same
  ``pairs_per_round`` and chunk boundaries at every shard count);
* round ``i`` is placed on shard ``active[i % len(active)]``, where
  ``active`` is the deterministic, health-ordered list of shards whose
  per-shard :class:`~repro.pim.health.FleetHealth` ledger still reports
  at least :data:`MIN_SHARD_HEALTHY_FRACTION` (a constant 0.5) healthy
  DPUs — quarantined shards receive no rounds and a ``rebalance`` event
  is published on every change of the active set;
* each shard executes its rounds through its own
  :class:`~repro.pim.scheduler.BatchScheduler`, one round step
  (:meth:`~repro.pim.scheduler.BatchScheduler.run`) at a time.

The round loop: every fleet run executes its ``(global round, shard,
shard-local index, chunk)`` rows through one loop (:func:`_run_rows`)
on per-shard lanes, inline on the coordinator's persistent systems.
Without a transport a round's work is on its shard at once (instant
delivery); with one it crosses the modeled network first (below).  The
DPU pool sits below the lanes: every system fans its DPU jobs out over
the process's pool in :mod:`repro.pim.parallel`
(``PimSystemConfig.workers``).  The host's only other process pool is
the campaign's cell pool (``repro.qa.campaign._cell_metrics``).
Like the paper's host, which copies one batch to every DPU at once, the
loop aligns the pairs of all the rounds it executes in one engine
stream.

Because every shard has the same shape and a round's outcome is a pure
function of (chunk, system config, fault plan, retry policy), a round
produces the byte-identical :class:`~repro.pim.system.PimRunResult`
no matter which shard runs it or how many shards exist.  Merging the
per-round results back in global round order therefore reconstructs
exactly the one-shard run's result stream — the differential
shard-equivalence property ``tests/test_pim_fleet.py`` pins
(``shards=2/4`` ≡ ``shards=1`` at any worker count).  Placement only
moves modeled *time*, never results.

Journal federation: ``journal=<dir>`` writes one standard
``repro.pim.journal/v1`` file per shard plus a ``manifest.json``
(schema ``repro.pim.fleet/v1``) recording the shard count, the fault
domain, and — crucially — the **placement actually used**, so
:meth:`FleetCoordinator.resume_run` replays a crashed fleet run under
the original placement even if shard health would place differently
today.  The workload fingerprint deliberately excludes both ``workers``
and ``shards`` (see :func:`~repro.pim.journal.workload_fingerprint`);
the manifest is what carries ``shards``.

The one-shard rule: a one-shard fleet adds nothing over its one shard's
rounds, so every caller (serve, ``repro pim-align``, QA, the ledger
scenarios) runs through the fleet at any shard count.  Shard 0 then
reports straight into the caller's telemetry (there is nothing to
federate), and ``journal=`` names shard 0's own journal *file* with no
manifest, because its placement is trivially all-zero.

Fault domains: a :class:`~repro.pim.faults.FaultPlan` handed to
:meth:`FleetCoordinator.run` is interpreted per ``fault_domain``:

* ``"global"`` (default) — fault ``dpu_id``\\ s index the federated
  fleet (``shard * dpus_per_shard + local``); each shard receives the
  slice of faults that land on its DPUs (:func:`slice_fault_plan`).
* ``"uniform"`` — every shard receives the plan verbatim (the same
  local DPU misbehaves on every shard); results stay byte-identical
  across shard counts even under faults, which is what the
  differential suite exploits.

Networked execution: handing the coordinator a non-calm
:class:`~repro.pim.transport.NetworkFaultPlan` routes every round
through the modeled message-passing boundary in
:mod:`repro.pim.transport` — typed envelopes with idempotency keys,
at-least-once redelivery over seeded drop/duplicate/delay/reorder/
partition faults, per-link circuit breakers, and (under
``TransportPolicy(hedge=True)``) hedged re-dispatch that *steals* a
timed-out in-flight round onto the next healthy shard.  Because a
round's outcome is a pure function of its chunk and configuration,
stealing moves only modeled time: the two racing results are
byte-identical and the loser is absorbed by dedup.  A calm plan builds
no transport at all (``fleet.transport is None``): its rounds take the
round loop's instant delivery, byte-identical to the pre-transport
fleet.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.data.generator import ReadPair
from repro.errors import ConfigError, DegradedCapacity, JournalError, TransportError
from repro.pim.faults import FaultPlan, RecoveryReport, RetryPolicy
from repro.pim.kernel import KernelConfig
from repro.pim.scheduler import BatchSchedule, BatchScheduler
from repro.pim.system import PimRunResult, PimSystem
from repro.pim.transport import (
    NetworkFaultPlan,
    ShardTransport,
    TransportPolicy,
    TransportReport,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.wfa_batch import BatchPairView
    from repro.obs.telemetry import RunTelemetry
    from repro.pim.config import PimSystemConfig
    from repro.pim.health import FleetHealth, HealthPolicy
    from repro.pim.journal import RunJournal

__all__ = [
    "MANIFEST_SCHEMA",
    "FAULT_DOMAINS",
    "MIN_SHARD_HEALTHY_FRACTION",
    "FleetRun",
    "FleetCoordinator",
    "slice_fault_plan",
    "shard_journal_name",
]

#: schema tag of the fleet journal manifest.
MANIFEST_SCHEMA = "repro.pim.fleet/v1"

#: manifest file name inside a fleet journal directory.
MANIFEST_NAME = "manifest.json"

FAULT_DOMAINS = ("global", "uniform")


def shard_journal_name(shard: int) -> str:
    """Journal file name for one shard inside a fleet journal directory."""
    return f"shard-{shard:03d}.jsonl"


def slice_fault_plan(
    plan: FaultPlan, shard: int, dpus_per_shard: int
) -> FaultPlan:
    """One shard's slice of a fleet-global fault plan.

    Global fault ``dpu_id``\\ s in ``[shard * dpus_per_shard, (shard+1) *
    dpus_per_shard)`` are kept and rebased to shard-local ids; faults on
    other shards' DPUs are dropped.  The result is never ``None``: a
    plan with no faults on this shard becomes an *empty* plan with the
    same seed, so every shard takes the same (resilient, verified)
    execution path — the property the shard-equivalence suite relies
    on.
    """
    lo = shard * dpus_per_shard
    hi = lo + dpus_per_shard

    def keep(faults):
        return tuple(
            replace(f, dpu_id=f.dpu_id - lo) for f in faults if lo <= f.dpu_id < hi
        )

    return FaultPlan(
        seed=plan.seed,
        deaths=keep(plan.deaths),
        corruptions=keep(plan.corruptions),
        truncations=keep(plan.truncations),
        stalls=keep(plan.stalls),
    )


# -- the round loop ------------------------------------------------------------

#: a shard whose ledger reports fewer healthy DPUs than this fraction is
#: quarantined out of placement (and out of steal-target selection).
MIN_SHARD_HEALTHY_FRACTION = 0.5

#: one row of the round loop: (global round, shard, shard-local index, chunk)
_Row = tuple[int, int, int, list[ReadPair]]


def _admits_rounds(health: Optional["FleetHealth"], now: Optional[float]) -> bool:
    """Whether a shard's device health admits rounds (always, unledgered)."""
    return health is None or health.healthy_fraction(now) >= MIN_SHARD_HEALTHY_FRACTION


class _Lane:
    """One shard's side of a fleet run: its scheduler, health ledger,
    fault slice, journal, replay set and modeled clock."""

    def __init__(
        self,
        rows: Sequence[_Row],
        scheduler: BatchScheduler,
        health: Optional["FleetHealth"],
        *,
        pairs_per_round: int,
        collect_results: bool,
        fault_plan: Optional[FaultPlan],
        retry_policy: Optional[RetryPolicy],
        journal_path: Optional[str],
        resume: bool,
        now: float,
    ) -> None:
        """Journals ``rows`` (the shard's rows, in global round order) to
        ``journal_path`` (a standard per-shard ``repro.pim.journal/v1``
        file) when set; with ``resume`` and an existing journal the shard
        resumes instead of starting fresh."""
        pairs = [pair for row in rows for pair in row[3]]
        self.journal, self.replay = scheduler.open_journal(
            journal_path,
            pairs,
            BatchSchedule(len(pairs), pairs_per_round),
            collect_results,
            fault_plan,
            retry_policy,
            health,
            resume=resume and journal_path is not None and Path(journal_path).exists(),
        )
        self.scheduler = scheduler
        self.health = health
        self.pairs_per_round = pairs_per_round
        self.collect_results = collect_results
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: modeled time the run's work is dispatched
        self.now = now
        #: modeled time the shard is next free
        self.clock = now

    def execute(
        self,
        index: int,
        chunk: list[ReadPair],
        arrive_s: float,
        views: Optional[list["BatchPairView"]] = None,
    ) -> tuple[PimRunResult, float]:
        """Run shard-local round ``index`` once its work has arrived and
        the shard is free, on ``chunk``'s ``views`` when given; returns
        (result, completion time)."""
        self.scheduler._note_round_size(self.pairs_per_round)
        begin = max(arrive_s, self.clock)
        result = self.scheduler.run(
            index,
            index * self.pairs_per_round,
            chunk,
            begin,
            collect_results=self.collect_results,
            fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
            health=self.health,
            journal=self.journal,
            replay=self.replay.get(index),
            views=views,
        )
        self.clock = begin + (result.total_seconds + result.recovery_overhead_seconds)
        return result, self.clock


def _run_rows(
    rows: Sequence[_Row],
    lanes: dict[int, _Lane],
    transport: Optional[ShardTransport] = None,
) -> dict[int, PimRunResult]:
    """The fleet's one round loop; returns each row's result by global
    round.

    Per-shard lane clocks serialize rounds on their shard while shards
    overlap each other.  Without a transport a round's work arrives at
    once; with one (:func:`_round_over_network`) each round additionally
    pays its work-envelope delivery on the way out and its
    result-envelope delivery on the way home, and a delivery that misses
    the hedge deadline (``hedge=True``) steals the round onto the next
    healthy shard.  Results are unaffected by any of it: a round is a
    pure function of its chunk, so the networked ``per_round`` stream is
    byte-identical to the direct path's (pinned in
    ``tests/test_pim_transport.py``).

    The pairs of the rows the loop executes go through one vector-engine
    stream, asked for once because every shard's system has the same
    config (:meth:`~repro.pim.system.PimSystem.batch_views`; ``None``
    where it does not apply).  Journaled rounds being replayed are left
    out, and so is a round that fills an engine run alone
    (:attr:`~repro.pim.kernel.WfaDpuKernel.batch_run_pairs`): sharing a
    run gains it nothing, and its jobs keep taking their views one job
    at a time.  Each row takes its views just before it runs, so at
    most one run's worth of views and the stream's current run are
    alive.  A steal aligns its own pairs.  A pair's result does not
    depend on which run holds it, so no result changes.
    """
    results: dict[int, PimRunResult] = {}
    stream, shared = None, set()
    if rows:
        system = lanes[rows[0][1]].scheduler.system
        cap = system.kernel.batch_run_pairs
        shared = {
            r
            for r, shard, index, chunk in rows
            if len(chunk) <= cap and index not in lanes[shard].replay
        }
        if shared:
            stream = system.batch_views(
                pair for r, _, _, chunk in rows if r in shared for pair in chunk
            )
    for r, shard, index, chunk in rows:
        lane = lanes[shard]
        views = None
        if stream is not None and r in shared:
            views = list(islice(stream, len(chunk)))
        if transport is None:
            result, _ = lane.execute(index, chunk, lane.now, views)
        else:
            survivor, result, recv_s = _round_over_network(
                transport, lanes, r, shard, index, chunk, views
            )
            transport.report.receipts[r] = recv_s
            transport.report.survivors[r] = survivor
        if result.recovery is not None:
            # the lane rebased this round's recovery to its shard-local
            # pair space; lift it to the global one
            result.recovery.shift_pairs((r - index) * lane.pairs_per_round)
        results[r] = result
    if transport is not None:
        now = transport.report.start_s
        transport.report.shard_busy_s = {
            k: lane.clock - now for k, lane in sorted(lanes.items()) if lane.clock > now
        }
    return results


def _round_over_network(
    transport: ShardTransport,
    lanes: dict[int, _Lane],
    r: int,
    shard: int,
    index: int,
    chunk: list[ReadPair],
    views: Optional[list["BatchPairView"]] = None,
) -> tuple[int, PimRunResult, float]:
    """One round's full network round-trip; returns the surviving
    ``(shard, result, coordinator receipt time)``.

    At-least-once on both legs: the work envelope retries until it
    lands (or its redelivery budget exhausts), the round executes at
    ``max(arrival, shard busy)`` on ``views``, and the result envelope
    retries home.  Hedging arms a timer at dispatch: a round whose
    result has not arrived by ``hedge_timeout_s`` is stolen onto the
    next healthy shard, which aligns the pairs itself, and the two
    results race — earliest coordinator receipt survives (tie goes to
    the original), the loser is absorbed by dedup.
    """
    policy = transport.policy
    now = transport.report.start_s
    shards = len(lanes)
    # (receipt, origin-order) candidates; origin 0 = original shard
    candidates: list[tuple[float, int, int, PimRunResult]] = []
    work = transport.deliver("work", r, shard, now)
    # the hedge timer is per-leg: the work envelope must be acked
    # within hedge_timeout_s of dispatch, and the result must land
    # within hedge_timeout_s of the round's modeled completion —
    # a healthy shard that is merely *busy* is never stolen from.
    hedge_needed = (not work.ok) or work.arrive_s > now + policy.hedge_timeout_s
    t_steal = now + policy.hedge_timeout_s
    if work.ok:
        result, done = lanes[shard].execute(index, chunk, work.arrive_s, views)
        back = transport.deliver("result", r, shard, done)
        if back.ok:
            candidates.append((back.arrive_s, 0, shard, result))
        if not hedge_needed and (
            not back.ok or back.arrive_s > done + policy.hedge_timeout_s
        ):
            hedge_needed = True
            t_steal = done + policy.hedge_timeout_s
    if policy.hedge and hedge_needed:
        for offset in range(1, shards):
            target = (shard + offset) % shards
            if not transport.link_ok(target, t_steal):
                continue
            if not _admits_rounds(lanes[target].health, t_steal):
                continue
            transport.note_steal(r, shard, target, t_steal)
            stolen = transport.deliver("work", r, target, t_steal)
            if not stolen.ok:
                continue
            result2, done2 = lanes[target].execute(index, chunk, stolen.arrive_s)
            back2 = transport.deliver("result", r, target, done2)
            if back2.ok:
                candidates.append((back2.arrive_s, 1, target, result2))
                break
    if not candidates:
        raise TransportError(
            f"round {r}: no result reached the coordinator — shard "
            f"{shard}'s link exhausted {policy.max_redeliveries} "
            f"redeliveries and no healthy shard could steal the round; "
            f"the network plan violates the >=1-live-shard liveness "
            f"precondition"
        )
    candidates.sort(key=lambda c: (c[0], c[1]))
    recv_s, _, survivor, result = candidates[0]
    for _ in candidates[1:]:
        transport.absorb_extra_result(r, survivor)
    return survivor, result, recv_s


# -- the merged fleet run ------------------------------------------------------


@dataclass
class FleetRun:
    """Aggregate outcome of one fleet run, in global round order — the
    only multi-round record.

    Each shard's rounds stack serially on its own timeline
    (:attr:`shard_seconds`); shards run concurrently, so
    ``total_seconds`` is the fleet *makespan* (slowest shard), not the
    serial sum.  On one shard the two coincide: the plain multi-round
    run, every round's transfers, launch and kernel plus its exposed
    recovery overhead.
    """

    schedule: BatchSchedule
    shards: int
    #: shard id each global round was placed on
    placements: list[int]
    #: per-round results in global round order (the unsharded stream)
    per_round: list[PimRunResult] = field(default_factory=list)
    #: aggregate recovery report, pair indices global (None without faults)
    recovery: Optional[RecoveryReport] = None
    rounds_replayed: int = 0
    #: per-run transport report when the run went over a faulty network
    #: (None without a transport; see :mod:`repro.pim.transport`)
    transport: Optional[TransportReport] = None

    @property
    def kernel_seconds(self) -> float:
        return sum(r.kernel_seconds for r in self.per_round)

    @property
    def transfer_seconds(self) -> float:
        return sum(r.transfer_seconds for r in self.per_round)

    @property
    def recovery_seconds(self) -> float:
        return sum(r.recovery_overhead_seconds for r in self.per_round)

    @property
    def shard_seconds(self) -> dict[int, float]:
        """Modeled busy seconds per participating shard: its rounds,
        stacked serially on its lane — Σkernel + Σtransfer + Σlaunch +
        Σrecovery overhead, summed in that order."""
        if self.transport is not None:
            return {k: v for k, v in sorted(self.transport.shard_busy_s.items())}
        rounds: dict[int, list[PimRunResult]] = {}
        for shard, result in zip(self.placements, self.per_round):
            rounds.setdefault(shard, []).append(result)
        return {
            k: sum(r.kernel_seconds for r in rounds[k])
            + sum(r.transfer_seconds for r in rounds[k])
            + sum(r.launch_seconds for r in rounds[k])
            + sum(r.recovery_overhead_seconds for r in rounds[k])
            for k in sorted(rounds)
        }

    @property
    def total_seconds(self) -> float:
        """Fleet makespan: shards run concurrently, so the run finishes
        when the slowest shard does.  Over a faulty network the wire is
        on the critical path too: the makespan runs to the latest
        result *receipt* at the coordinator."""
        if self.transport is not None:
            return self.transport.makespan_s
        return max(self.shard_seconds.values(), default=0.0)

    @property
    def serial_seconds(self) -> float:
        """What the same rounds would cost on one shard (scaling denominator)."""
        return sum(self.shard_seconds.values())

    def speedup(self) -> float:
        return self.serial_seconds / self.total_seconds if self.total_seconds else 0.0

    def throughput(self) -> float:
        total = self.schedule.total_pairs
        return total / self.total_seconds if self.total_seconds else 0.0

    def results(self) -> list[tuple[int, int, object]]:
        """Gathered records rebased to workload-global pair indices."""
        out: list[tuple[int, int, object]] = []
        start = 0
        for rnd, size in zip(self.per_round, self.schedule.round_sizes()):
            out.extend((start + local, score, cigar) for local, score, cigar in rnd.results)
            start += size
        return out

    def to_dict(self) -> dict:
        """JSON-ready fleet-run summary (schema ``repro.pim.fleet.run/v1``)."""
        return {
            "schema": "repro.pim.fleet.run/v1",
            "shards": self.shards,
            "rounds": self.schedule.rounds,
            "rounds_replayed": self.rounds_replayed,
            "placements": list(self.placements),
            "total_seconds": self.total_seconds,
            "serial_seconds": self.serial_seconds,
            "shard_seconds": {str(k): v for k, v in self.shard_seconds.items()},
            "throughput_pairs_per_s": self.throughput(),
            "recovery": self.recovery.to_dict() if self.recovery is not None else None,
            "transport": (
                self.transport.to_dict() if self.transport is not None else None
            ),
        }


# -- the coordinator -----------------------------------------------------------


class FleetCoordinator:
    """Places rounds on shards, runs them, federates the outcomes.

    ``config`` describes **one shard** (``config.num_dpus`` DPUs per
    shard; the federation totals ``shards * config.num_dpus``).  Every
    shard gets its own system, scheduler, telemetry (when ``telemetry``
    is given — the argument itself is the *primary* sink for
    coordinator-level events, and each shard's telemetry is federated
    under it via :meth:`~repro.obs.telemetry.RunTelemetry.add_shard`; a
    one-shard fleet reports into ``telemetry`` itself) and, under a
    ``health_policy``, its own :class:`~repro.pim.health.FleetHealth`
    ledger.

    Health-aware placement: before each run the coordinator asks every
    shard ledger for its healthy fraction; shards below
    :data:`MIN_SHARD_HEALTHY_FRACTION` are quarantined out of placement and
    a ``rebalance`` event is published on each change of the active
    set.  If *every* shard is quarantined the full fleet becomes probe
    traffic (mirroring :meth:`~repro.pim.health.FleetHealth.plan_round`).

    Every shard's rounds run inline on its persistent system, ledger
    and telemetry; the host parallelism is each system's DPU pool
    (``config.workers``, :mod:`repro.pim.parallel`), which gives the
    same results at any width.

    ``net_plan``/``transport_policy`` model the coordinator<->shard
    network (:mod:`repro.pim.transport`): under a non-calm
    :class:`~repro.pim.transport.NetworkFaultPlan` every round travels
    as an idempotent envelope with at-least-once redelivery, and with
    ``TransportPolicy(hedge=True)`` a timed-out in-flight round is
    stolen onto the next healthy shard.  Networked runs refuse journals
    (`the wire, not the WAL, is the experiment`).
    """

    def __init__(
        self,
        config: "PimSystemConfig",
        kernel_config: Optional[KernelConfig] = None,
        shards: int = 1,
        *,
        health_policy: Optional["HealthPolicy"] = None,
        fault_domain: str = "global",
        telemetry: Optional["RunTelemetry"] = None,
        net_plan: Optional[NetworkFaultPlan] = None,
        transport_policy: Optional[TransportPolicy] = None,
    ) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if fault_domain not in FAULT_DOMAINS:
            raise ConfigError(
                f"fault_domain must be one of {FAULT_DOMAINS}, got {fault_domain!r}"
            )
        self.shards = shards
        self.config = config
        self.health_policy = health_policy
        self.fault_domain = fault_domain
        #: primary telemetry: coordinator-level events (rebalance) and the
        #: serve layer's own metrics land here; per-shard device telemetry
        #: hangs under it as federated children (none on one shard).
        self.telemetry = telemetry
        self.shard_telemetries: list[Optional["RunTelemetry"]] = []
        self.systems: list[PimSystem] = []
        self.schedulers: list[BatchScheduler] = []
        self.shard_healths: list = []
        for k in range(shards):
            shard_tel = telemetry
            if telemetry is not None and shards > 1:
                shard_tel = telemetry.add_shard(k, k * config.num_dpus)
            system = PimSystem(config, kernel_config, telemetry=shard_tel)
            self.shard_telemetries.append(shard_tel)
            self.systems.append(system)
            self.schedulers.append(BatchScheduler(system))
            health = None
            if health_policy is not None:
                from repro.pim.health import FleetHealth

                health = FleetHealth(
                    config.num_dpus,
                    policy=health_policy,
                    registry=shard_tel.registry if shard_tel is not None else None,
                    events=shard_tel.events if shard_tel is not None else None,
                )
            self.shard_healths.append(health)
        self._last_active: tuple[int, ...] = tuple(range(shards))
        #: modeled network boundary; None under a calm/absent plan, so
        #: the round loop delivers instantly (zero counters, events, time)
        self.net_plan = net_plan
        self.transport: Optional[ShardTransport] = None
        if net_plan is not None and not net_plan.is_calm():
            self.transport = ShardTransport(
                shards,
                net_plan,
                policy=transport_policy,
                registry=telemetry.registry if telemetry is not None else None,
                events=telemetry.events if telemetry is not None else None,
            )
        elif transport_policy is not None and net_plan is None:
            raise ConfigError(
                "transport_policy without a net_plan has nothing to govern; "
                "pass net_plan= (a NetworkFaultPlan, possibly calm)"
            )

    # -- shape -------------------------------------------------------------

    @property
    def dpus_per_shard(self) -> int:
        return self.config.num_dpus

    @property
    def total_dpus(self) -> int:
        """Federated DPU count — the paper-scale number a fleet models."""
        return self.shards * self.config.num_dpus

    @property
    def kernel_config(self) -> KernelConfig:
        return self.systems[0].kernel_config

    def plan(
        self, total_pairs: int, pairs_per_round: Optional[int] = None
    ) -> BatchSchedule:
        """The canonical (unsharded) schedule rounds are striped from."""
        return self.schedulers[0].plan(total_pairs, pairs_per_round)

    # -- health-aware placement --------------------------------------------

    def healthy_fraction(self, now: Optional[float] = None) -> float:
        """Fraction of the *federated* fleet available for placement."""
        if self.health_policy is None:
            return 1.0
        healthy = sum(
            len(h.available(now)) for h in self.shard_healths if h is not None
        )
        return healthy / self.total_dpus

    def available_shards(self, now: Optional[float] = None) -> tuple[int, ...]:
        """Sorted shard ids allowed to take rounds.

        A shard is quarantined when its ledger's healthy fraction falls
        below :data:`MIN_SHARD_HEALTHY_FRACTION`; with every shard
        quarantined the whole fleet is returned as probe traffic.
        """
        active = tuple(
            k
            for k in range(self.shards)
            if _admits_rounds(self.shard_healths[k], now)
        )
        return active if active else tuple(range(self.shards))

    def place_rounds(
        self, num_rounds: int, now: Optional[float] = None
    ) -> list[int]:
        """Deterministic striped placement over the active shards."""
        active = self.available_shards(now)
        self._note_rebalance(active, 0.0 if now is None else now)
        return [active[i % len(active)] for i in range(num_rounds)]

    def _note_rebalance(self, active: tuple[int, ...], now: float) -> None:
        """Publish a ``rebalance`` event on each active-set change."""
        if active == self._last_active:
            return
        excluded = sorted(set(range(self.shards)) - set(active))
        self._last_active = active
        if excluded:
            warnings.warn(
                f"shards {excluded} quarantined at t={now:.6f}; rounds "
                f"rebalanced onto {len(active)} of {self.shards} shards",
                DegradedCapacity,
                stacklevel=3,
            )
        if self.telemetry is not None:
            from repro.obs.events import REBALANCE

            self.telemetry.events.publish(
                REBALANCE,
                now,
                active=len(active),
                shards=self.shards,
                excluded=",".join(str(s) for s in excluded),
            )

    # -- fault domains ------------------------------------------------------

    def _shard_plan(
        self, fault_plan: Optional[FaultPlan], shard: int
    ) -> Optional[FaultPlan]:
        if fault_plan is None:
            return None
        if self.fault_domain == "uniform":
            return fault_plan
        return slice_fault_plan(fault_plan, shard, self.dpus_per_shard)

    # -- journal federation -------------------------------------------------

    @staticmethod
    def _write_manifest(directory: Path, doc: dict) -> None:
        """Atomic manifest write (same temp-file + replace discipline as
        the per-shard journals)."""
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / MANIFEST_NAME
        fd, tmp = tempfile.mkstemp(
            dir=str(directory), prefix=MANIFEST_NAME, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def load_manifest(directory: Union[str, Path]) -> dict:
        """Load and schema-check a fleet journal manifest."""
        path = Path(directory) / MANIFEST_NAME
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise JournalError(f"cannot read fleet manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise JournalError(f"fleet manifest {path} is malformed: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
            raise JournalError(
                f"{path} is not a {MANIFEST_SCHEMA} manifest "
                f"(got {doc.get('schema') if isinstance(doc, dict) else doc!r})"
            )
        return doc

    # -- execution ----------------------------------------------------------

    def run(
        self,
        pairs: list[ReadPair],
        pairs_per_round: Optional[int] = None,
        collect_results: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        journal: Optional[Union[str, Path]] = None,
        now: float = 0.0,
        placements: Optional[list[int]] = None,
        resume: bool = False,
    ) -> FleetRun:
        """Run a workload across the fleet and merge the outcomes.

        ``journal`` names a *directory*: one ``repro.pim.journal/v1``
        file per participating shard plus a ``manifest.json`` recording
        the placement — or, on a one-shard fleet, shard 0's journal
        file itself.  ``placements``/``resume`` are the resume path's
        internals — use :meth:`resume_run`.
        """
        schedule = self.plan(len(pairs), pairs_per_round)
        ppr = schedule.pairs_per_round
        if placements is None:
            placements = self.place_rounds(schedule.rounds, now)
        elif len(placements) != schedule.rounds:
            raise ConfigError(
                f"placement length {len(placements)} does not match the "
                f"{schedule.rounds}-round schedule"
            )
        # the one round loop's rows, in global order
        rows: list[_Row] = []
        shard_rounds: dict[int, int] = {}
        for r, shard in enumerate(placements):
            if not 0 <= shard < self.shards:
                raise ConfigError(f"round {r} placed on unknown shard {shard}")
            index = shard_rounds.get(shard, 0)
            shard_rounds[shard] = index + 1
            rows.append((r, shard, index, pairs[r * ppr : (r + 1) * ppr]))

        if self.transport is not None and (journal is not None or resume):
            raise ConfigError(
                "journaling/resume is not supported over a faulty network "
                "plan; run the networked drill without journal= (the "
                "transport's at-least-once delivery is the durability "
                "story there)"
            )
        if journal is not None and self.shards > 1 and not resume:
            self._write_manifest(
                Path(journal),
                {
                    "schema": MANIFEST_SCHEMA,
                    "shards": self.shards,
                    "dpus_per_shard": self.dpus_per_shard,
                    "fault_domain": self.fault_domain,
                    "pairs_per_round": ppr,
                    "placements": list(placements),
                    "journals": {
                        str(k): shard_journal_name(k) for k in sorted(shard_rounds)
                    },
                    # shard 0's scheduler fingerprints the whole workload
                    # under the fleet-global fault plan; it excludes
                    # ``workers`` and ``shards`` (recorded above)
                    "fingerprint": self.schedulers[0]._fingerprint(
                        pairs,
                        schedule,
                        collect_results,
                        fault_plan,
                        retry_policy,
                        self.shard_healths[0],
                    ),
                },
            )

        # a transport may steal a round onto any shard, so every shard
        # gets a lane; otherwise only the shards that hold rounds do
        lane_shards = (
            range(self.shards) if self.transport is not None else sorted(shard_rounds)
        )
        report = self.transport.begin_run(now) if self.transport is not None else None
        lanes = {
            k: _Lane(
                [row for row in rows if row[1] == k],
                self.schedulers[k],
                self.shard_healths[k],
                pairs_per_round=ppr,
                collect_results=collect_results,
                fault_plan=self._shard_plan(fault_plan, k),
                retry_policy=retry_policy,
                journal_path=self._journal_path(journal, k),
                resume=resume,
                now=now,
            )
            for k in lane_shards
        }
        results = _run_rows(rows, lanes, self.transport)

        per_round = [results[r] for r in range(schedule.rounds)]
        recovery: Optional[RecoveryReport] = None
        for result in per_round:
            if result.recovery is not None:
                if recovery is None:
                    recovery = RecoveryReport()
                recovery.merge(result.recovery)
        return FleetRun(
            schedule=schedule,
            shards=self.shards,
            placements=list(placements),
            per_round=per_round,
            recovery=recovery,
            rounds_replayed=sum(len(lane.replay) for lane in lanes.values()),
            transport=report,
        )

    def _journal_path(
        self, journal: Optional[Union[str, Path]], shard: int
    ) -> Optional[str]:
        """Shard ``shard``'s journal file: the caller's own file on a
        one-shard fleet, else ``shard-NNN.jsonl`` in the directory."""
        if journal is None:
            return None
        if self.shards == 1:
            return str(journal)
        return str(Path(journal) / shard_journal_name(shard))

    def link_healthy_fraction(self, now: Optional[float] = None) -> float:
        """Fraction of coordinator<->shard links not quarantined (1.0
        without a transport) — the serve dispatcher's degraded-network
        backpressure signal."""
        if self.transport is None:
            return 1.0
        return self.transport.link_healthy_fraction(0.0 if now is None else now)

    def resume_run(
        self,
        journal: Union[str, Path],
        pairs: list[ReadPair],
        pairs_per_round: Optional[int] = None,
        collect_results: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        now: float = 0.0,
    ) -> FleetRun:
        """Resume a crashed fleet run from its journal directory.

        Validates the manifest (schema, shard count, fault domain, and
        the workload fingerprint — which excludes ``workers`` and
        ``shards``, so a run journaled at one worker count resumes at
        any other), then re-runs under the **recorded** placement:
        shards whose journals survived replay their completed rounds
        idempotently; shards whose journals are missing or torn
        re-execute.  The merged :class:`FleetRun` — results, recovery,
        health ledgers, per-shard journal bytes — is identical to an
        uninterrupted run's.

        A one-shard fleet resumes from shard 0's journal *file* (no
        manifest; its scheduler checks the fingerprint), so a journal
        written at one shard count refuses to resume at another.
        """
        schedule = self.plan(len(pairs), pairs_per_round)
        if self.shards == 1:
            if not Path(journal).is_file():
                raise JournalError(
                    f"cannot resume from {journal}: a one-shard run "
                    f"journals to a single file"
                )
            placements = [0] * schedule.rounds
        else:
            manifest = self.load_manifest(journal)
            if int(manifest.get("shards", -1)) != self.shards:
                raise JournalError(
                    f"fleet manifest records shards={manifest.get('shards')}, "
                    f"coordinator has shards={self.shards}"
                )
            if manifest.get("fault_domain") != self.fault_domain:
                raise JournalError(
                    f"fleet manifest records fault_domain="
                    f"{manifest.get('fault_domain')!r}, coordinator uses "
                    f"{self.fault_domain!r}"
                )
            expected = self.schedulers[0]._fingerprint(
                pairs,
                schedule,
                collect_results,
                fault_plan,
                retry_policy,
                self.shard_healths[0],
            )
            if manifest.get("fingerprint") != expected:
                recorded = manifest.get("fingerprint") or {}
                mismatched = sorted(
                    key
                    for key in set(recorded) | set(expected)
                    if recorded.get(key) != expected.get(key)
                )
                raise JournalError(
                    "fleet manifest fingerprint does not match the offered "
                    f"workload/configuration (differs in: "
                    f"{', '.join(mismatched) or 'shape'})"
                )
            placements = [int(p) for p in manifest.get("placements", ())]
            if len(placements) != schedule.rounds:
                raise JournalError(
                    f"fleet manifest records {len(placements)} placements for a "
                    f"{schedule.rounds}-round schedule"
                )
        return self.run(
            pairs,
            pairs_per_round=pairs_per_round,
            collect_results=collect_results,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            journal=journal,
            now=now,
            placements=placements,
            resume=True,
        )

    # -- federation ----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """One coherent snapshot across the primary and every shard
        (:meth:`~repro.obs.telemetry.RunTelemetry.federated_registry`)."""
        if self.telemetry is None:
            from repro.obs.metrics import MetricsRegistry

            return MetricsRegistry().snapshot()
        return self.telemetry.federated_registry().snapshot()

    def health_states(self) -> dict[int, Optional[dict]]:
        """Per-shard breaker states (``None`` for unledgered shards)."""
        return {
            k: (h.states() if h is not None else None)
            for k, h in enumerate(self.shard_healths)
        }

    def health_doc(self, now: Optional[float] = None) -> dict:
        """Merged fleet-health document (``repro.pim.fleet.health/v1``)."""
        return {
            "schema": "repro.pim.fleet.health/v1",
            "shards": self.shards,
            "dpus_per_shard": self.dpus_per_shard,
            "total_dpus": self.total_dpus,
            "healthy_fraction": self.healthy_fraction(now),
            "available_shards": list(self.available_shards(now)),
            "per_shard": {
                str(k): (h.to_dict(now) if h is not None else None)
                for k, h in enumerate(self.shard_healths)
            },
        }

    def event_records(self) -> list[dict]:
        """Federated event-log document
        (:meth:`~repro.obs.telemetry.RunTelemetry.event_records`)."""
        if self.telemetry is None:
            from repro.obs.events import EventLog

            return EventLog().to_records()
        return self.telemetry.event_records()
