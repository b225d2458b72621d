"""Host-parallel execution of independent per-DPU simulations.

The simulator's cost center is the per-DPU functional kernel: every
simulated DPU runs push -> kernel -> pull over its private batch, and no
DPU ever touches another DPU's state.  That makes the per-DPU loop in
:class:`~repro.pim.system.PimSystem` embarrassingly parallel on the
*host* — exactly the fan-out the real UPMEM runtime performs across
ranks, and the structure the authors' follow-up framework paper builds
its host orchestration around.

This module packages one simulated DPU's work as a picklable
:class:`DpuJob`, executes jobs either in-process or over a
``concurrent.futures.ProcessPoolExecutor``, and returns picklable
:class:`DpuJobResult` records.  Besides this pool the host has one
other, the campaign's cell pool (``repro.qa.campaign._cell_metrics``).
This one lives for the process: it starts on the first pooled call, at the
configured width, and serves every later call at that width, so a
fleet call pays one pool start-up per process, not one per round.  A
width change or a broken pool replaces it, and a forked child (the
campaign's cell workers, say) starts its own rather than reuse its
parent's.  It is shut down when its process exits, also where that
process is itself a pool worker.  Determinism guarantee: a job's outcome
depends only on the job description (never on which worker ran it or
in what order), and callers merge records sorted by ``dpu_id`` — so a
parallel run is result-identical to a sequential run, including the
modeled timings and the :class:`~repro.pim.transfer.TransferStats`
accounting.

The unit of host work is a *group* of jobs (:func:`run_job_group`): all
jobs in-process, or one contiguous slice of them per pool worker.  A
group aligns all its jobs' pairs on the vector engine together
(:meth:`~repro.pim.kernel.WfaDpuKernel.batch_views`, one run unless the
group exceeds the kernel's byte budget) and then runs each job's kernel
over its share of the views.  A caller that aligned the pairs of a
larger unit already hands each job its views instead (``views=``): the
fleet's round loop opens one stream over every round a fleet call
executes in-process (:func:`repro.pim.fleet._run_rows`), and such a
group always runs in-process.  Which group or run a pair lands in
changes no result: the vector engine reproduces the scalar engine bit
for bit whatever the batch composition.

The sequential path is the fallback, engaged when

* ``workers`` resolves to one, or there is at most one job; or
* the process pool cannot be started or dies underneath us
  (``OSError`` on fork/spawn, ``BrokenProcessPool``) — e.g. in
  sandboxes that forbid subprocesses.

Genuine simulation errors (:class:`~repro.errors.ReproError` subclasses
raised inside a worker) propagate to the caller unchanged, as they
would sequentially.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import groupby
from multiprocessing.util import Finalize
from typing import Callable, Iterable, Iterator, Optional

from repro.core.cigar import Cigar
from repro.core.wfa_batch import BatchPairView
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import (
    ConfigError,
    CorruptResultError,
    FaultError,
    KernelError,
    LayoutError,
    TaskletStallError,
)
from repro.pim.faults import (
    FaultPlan,
    JobRecoveryRecord,
    RecoveryReport,
    RetryPolicy,
    spare_placements,
)
from repro.pim.config import DpuConfig, HostTransferConfig
from repro.pim.dpu import Dpu, DpuKernelStats
from repro.pim.kernel import KernelConfig, WfaDpuKernel
from repro.pim.layout import MramLayout
from repro.pim.trace import KernelTrace
from repro.pim.transfer import HostTransferEngine, TransferStats

__all__ = [
    "GeneratorSpec",
    "DpuJob",
    "DpuJobResult",
    "ResilientOutcome",
    "run_dpu_job",
    "run_dpu_job_resilient",
    "run_job_group",
    "run_job_group_resilient",
    "execute_jobs",
    "execute_jobs_resilient",
    "resolve_workers",
]


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a worker to synthesize its own batch (``model_run``).

    Shipping the seed instead of the pairs keeps the job payload tiny
    and reproduces the exact per-DPU sample stream the sequential path
    draws: the seed is derived from the DPU id alone, never from the
    execution schedule.
    """

    length: int
    error_rate: float
    seed: int
    error_model: str
    count: int

    def pairs(self) -> list[ReadPair]:
        gen = ReadPairGenerator(
            length=self.length,
            error_rate=self.error_rate,
            seed=self.seed,
            error_model=self.error_model,
        )
        return gen.pairs(self.count)


@dataclass(frozen=True)
class DpuJob:
    """A self-contained description of one simulated DPU's work.

    Everything a worker process needs — configs, layout, and either a
    concrete batch or a generator recipe — travels in the job; the
    worker builds its own :class:`Dpu`, kernel, and transfer engine.
    """

    dpu_id: int
    layout: MramLayout
    dpu_config: DpuConfig
    transfer_config: HostTransferConfig
    kernel_config: KernelConfig
    metadata_policy: str
    tasklets: int
    #: concrete batch (``align`` path); mutually exclusive with ``generator``
    pairs: Optional[tuple[ReadPair, ...]] = None
    #: batch recipe (``model_run`` path)
    generator: Optional[GeneratorSpec] = None
    #: gather result records (full pull: score, CIGAR, region starts)
    pull: bool = True
    #: record per-pair kernel phase events and ship the trace home
    collect_trace: bool = False
    #: declarative fault plan this job executes under (None = fault-free)
    fault_plan: Optional[FaultPlan] = None
    #: recovery attempt counter (0 = first try); selects which
    #: attempt-scoped faults of the plan fire
    attempt: int = 0
    #: physical DPU the job is placed on; fault plans key on this, while
    #: ``dpu_id`` stays the *logical* identity (index mapping, traces).
    #: ``None`` means the logical and physical ids coincide.
    physical_dpu_id: Optional[int] = None
    #: spare healthy placements recovery may requeue this job onto
    requeue_placements: tuple[int, ...] = ()
    #: verify gathered records against the input batch (CIGAR validity +
    #: score reconstruction); any mismatch raises
    #: :class:`~repro.errors.CorruptResultError` instead of returning a
    #: silently wrong alignment.  Enabled automatically under fault plans.
    verify: bool = False

    @property
    def placement(self) -> int:
        """The physical DPU this job runs on."""
        return self.dpu_id if self.physical_dpu_id is None else self.physical_dpu_id

    def batch(self) -> list[ReadPair]:
        if self.pairs is not None:
            return list(self.pairs)
        if self.generator is not None:
            return self.generator.pairs()
        raise ConfigError("DpuJob needs either pairs or a generator spec")

    @property
    def num_pairs(self) -> int:
        """Pairs in the job's batch, counted without generating them."""
        if self.pairs is not None:
            return len(self.pairs)
        if self.generator is not None:
            return self.generator.count
        raise ConfigError("DpuJob needs either pairs or a generator spec")


@dataclass
class DpuJobResult:
    """What one DPU simulation sends back to the host.

    ``results`` holds *local* record indices; the host converts them to
    global pair indices during the deterministic merge (see
    :attr:`~repro.pim.system.PimRunResult.results` for the contract).
    """

    dpu_id: int
    num_pairs: int
    stats: DpuKernelStats
    #: (local index, score, cigar, pattern_start, text_start)
    results: list[tuple[int, int, Optional[Cigar], int, int]] = field(
        default_factory=list
    )
    transfer_stats: TransferStats = field(default_factory=TransferStats)
    #: per-pair kernel phase events (``collect_trace`` jobs only);
    #: events carry this DPU's ``dpu_id``, so host-side merges keep
    #: attribution.
    trace: Optional[KernelTrace] = None


def run_dpu_job(
    job: DpuJob,
    batch: Optional[list[ReadPair]] = None,
    views: Optional[dict[int, BatchPairView]] = None,
) -> DpuJobResult:
    """Run one DPU's push -> kernel -> pull cycle; picklable in and out.

    ``batch`` is ``job.batch()`` and ``views`` its vector-engine results
    by local index, both handed over by the job's group
    (:func:`run_job_group`); the kernel takes each view out as it aligns
    that pair.  Called with the job alone, it runs as a group of one.

    The record's kernel stats and transfer stats are everything the
    host counts its per-DPU metrics from; with ``collect_trace`` the
    kernel's phase events ride along.  All are pure functions of the job
    description, preserving the parallel ≡ sequential guarantee.
    """
    if batch is None:
        return run_job_group([job])[0]
    transfer = HostTransferEngine(job.transfer_config)
    kernel = WfaDpuKernel(job.kernel_config)
    dpu = Dpu(job.dpu_config, dpu_id=job.dpu_id)
    trace = KernelTrace() if job.collect_trace else None
    injector = None
    if job.fault_plan is not None and job.fault_plan.targets(job.placement):
        injector = job.fault_plan.injector(job.placement, job.attempt)
        injector.check_launch()
        injector.attach_dma(dpu)
        transfer.injector = injector
    transfer.push_batch(dpu, job.layout, batch)
    assignments = [
        list(range(t, len(batch), job.tasklets)) for t in range(job.tasklets)
    ]
    try:
        tasklet_stats, _ = kernel.run(
            dpu, job.layout, assignments, job.metadata_policy, trace=trace, views=views
        )
    except (KernelError, LayoutError) as exc:
        if injector is None:
            raise
        # Under an active fault plan targeting this placement, a kernel
        # that chokes on its MRAM inputs means injected corruption landed
        # in the input region: surface it typed (hence retryable), never
        # as a plausible-but-wrong alignment.
        raise CorruptResultError(
            f"kernel rejected its MRAM inputs: {exc}", dpu_id=job.placement
        ) from exc
    results: list[tuple[int, int, Optional[Cigar], int, int]] = []
    if job.pull or job.verify:
        pulled, _ = transfer.pull_results_full(dpu, job.layout, len(batch))
        if job.verify:
            _verify_pulled(job, batch, pulled)
        for local, (score, cigar, p_start, t_start) in enumerate(pulled):
            results.append((local, score, cigar, p_start, t_start))
        if not job.pull:
            results = []
    return DpuJobResult(
        dpu_id=job.dpu_id,
        num_pairs=len(batch),
        stats=dpu.summarize(tasklet_stats),
        results=results,
        transfer_stats=transfer.stats,
        trace=trace,
    )


def _verify_pulled(
    job: DpuJob,
    batch: list[ReadPair],
    pulled: list[tuple[int, Optional[Cigar], int, int]],
) -> None:
    """End-to-end integrity check of gathered records against the batch.

    Catches what parsing alone cannot: corruption (of inputs *or*
    outputs) that yields a structurally valid record whose CIGAR no
    longer reproduces the original pair, or whose score no longer
    matches its CIGAR.  The guarantee fault-injection tests pin: a fault
    is surfaced as a typed error, never as a silently wrong alignment.
    """
    penalties = job.kernel_config.penalties
    for local, (score, cigar, p_start, t_start) in enumerate(pulled):
        if cigar is None:
            continue
        pair = batch[local]
        try:
            cigar.validate(
                pair.pattern[p_start : p_start + cigar.pattern_length()],
                pair.text[t_start : t_start + cigar.text_length()],
            )
        except Exception as exc:
            raise CorruptResultError(
                f"record {local}: CIGAR does not reproduce its pair: {exc}",
                dpu_id=job.placement,
            ) from exc
        rescored = cigar.score(penalties)
        if rescored != score:
            raise CorruptResultError(
                f"record {local}: score {score} != CIGAR rescoring {rescored}",
                dpu_id=job.placement,
            )


def run_dpu_job_resilient(
    job: DpuJob,
    policy: RetryPolicy,
    batch: Optional[list[ReadPair]] = None,
    views: Optional[dict[int, BatchPairView]] = None,
) -> "ResilientOutcome":
    """Run one job under a recovery policy; picklable in and out.

    ``batch`` and ``views`` are as in :func:`run_dpu_job`.  Every attempt
    reuses the batch; an attempt after one that consumed views first
    realigns the batch on the vector engine, so retries never fall back
    to the scalar engine.

    Attempts the job up to ``policy.max_attempts`` times on its primary
    placement, then on each of up to ``policy.max_requeues`` spare
    placements (``job.requeue_placements``).  The attempt counter is
    monotone across placements, so attempt-scoped faults fire exactly
    once per *job*, not once per placement.  Only
    :class:`~repro.errors.FaultError` subclasses are retried —
    programming errors propagate unchanged.

    Modeled-time accounting: backoff is charged only when another
    attempt actually follows the failure — the terminal failure before
    abandonment waits for nothing, so charging it would double-count
    recovery cost across scheduler rounds.  A
    :class:`~repro.errors.TaskletStallError` additionally charges
    ``policy.launch_watchdog_s`` per trip: a stall is *detected* by the
    watchdog deadline expiring, so its detection latency is paid on
    every stall, including a terminal one.
    """
    if batch is None:
        return run_job_group_resilient([job], policy)[0]
    record = JobRecoveryRecord(dpu_id=job.dpu_id, num_pairs=job.num_pairs)
    placements = [job.placement]
    placements += [
        p for p in job.requeue_placements[: policy.max_requeues]
        if p != job.placement
    ]
    total_budget = len(placements) * policy.max_attempts
    attempt = 0
    errors: list[str] = []
    attempts_log: list[tuple[int, str]] = []
    backoff = 0.0
    watchdog = 0.0
    retry_index = 0
    tried: list[int] = []
    for placement in placements:
        tried.append(placement)
        for _ in range(policy.max_attempts):
            if views is not None and len(views) < len(batch):
                views = dict(
                    enumerate(WfaDpuKernel(job.kernel_config).batch_views(batch) or ())
                )
            try:
                result = run_dpu_job(
                    replace(job, physical_dpu_id=placement, attempt=attempt),
                    batch,
                    views,
                )
            except FaultError as exc:
                errors.append(type(exc).__name__)
                attempts_log.append((placement, type(exc).__name__))
                if isinstance(exc, TaskletStallError):
                    watchdog += policy.launch_watchdog_s
                attempt += 1
                if attempt < total_budget:
                    backoff += policy.backoff_seconds(retry_index)
                retry_index += 1
                continue
            record.attempts = attempt + 1
            record.placements = tuple(tried)
            record.final_placement = placement
            record.errors = tuple(errors)
            record.attempts_log = tuple(attempts_log)
            record.backoff_seconds = backoff
            record.watchdog_seconds = watchdog
            return ResilientOutcome(result=result, record=record)
    record.attempts = attempt
    record.placements = tuple(tried)
    record.errors = tuple(errors)
    record.attempts_log = tuple(attempts_log)
    record.backoff_seconds = backoff
    record.watchdog_seconds = watchdog
    record.abandoned = True
    return ResilientOutcome(result=None, record=record)


@dataclass
class ResilientOutcome:
    """Result of one job's recovery loop (``result`` is ``None`` when
    the job was abandoned after exhausting the policy)."""

    record: JobRecoveryRecord
    result: Optional[DpuJobResult] = None


#: vector-engine views a caller aligned ahead: by ``dpu_id``, then by
#: local index in that job's batch
JobViews = dict[int, dict[int, BatchPairView]]


def _prepare_group(
    jobs: list[DpuJob], views: Optional[JobViews] = None
) -> Iterator[tuple[DpuJob, list[ReadPair], Optional[dict[int, BatchPairView]]]]:
    """``(job, batch, views)`` per job, in ``dpu_id`` order.

    Each job's batch is generated once, up front.  Given ``views``, each
    job takes its own entry.  Otherwise consecutive jobs that share a
    kernel configuration draw their views from one
    :meth:`~repro.pim.kernel.WfaDpuKernel.batch_views` stream over all
    their pairs, taken job by job as the jobs run; ``views`` is ``None``
    where the vector engine does not apply.  Only the per-job dict holds
    a view once taken, so it dies as the kernel aligns its pair.
    """
    jobs = sorted(jobs, key=lambda job: job.dpu_id)
    batches = [job.batch() for job in jobs]
    if views is not None:
        for job, batch in zip(jobs, batches):
            yield job, batch, views[job.dpu_id]
        return
    for config, members in groupby(
        zip(jobs, batches), key=lambda member: member[0].kernel_config
    ):
        members = list(members)
        views = WfaDpuKernel(config).batch_views(
            pair for _, batch in members for pair in batch
        )
        for job, batch in members:
            if views is None:
                yield job, batch, None
            else:
                yield job, batch, dict(zip(range(len(batch)), views))


def run_job_group(
    jobs: list[DpuJob], views: Optional[JobViews] = None
) -> list[DpuJobResult]:
    """Run a group of jobs in-process, their pairs batched together.

    One vector-engine stream covers the group unless ``views`` already
    holds every job's views (see :func:`_prepare_group`), and
    :func:`run_dpu_job` runs each job in ``dpu_id`` order.  This is what
    one pool worker runs; picklable in and out.
    """
    return [
        run_dpu_job(job, batch, job_views)
        for job, batch, job_views in _prepare_group(jobs, views)
    ]


def run_job_group_resilient(
    jobs: list[DpuJob], policy: RetryPolicy, views: Optional[JobViews] = None
) -> list["ResilientOutcome"]:
    """:func:`run_job_group` with each job under the recovery policy."""
    return [
        run_dpu_job_resilient(job, policy, batch, job_views)
        for job, batch, job_views in _prepare_group(jobs, views)
    ]


def resolve_workers(workers: int, num_jobs: Optional[int] = None) -> int:
    """Effective worker count: ``0`` means all cores, capped at the jobs
    when ``num_jobs`` is given."""
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers if num_jobs is None else max(1, min(workers, num_jobs))


#: the process's DPU pool by width: at most one entry, none before the
#: first pooled call (see :func:`_shared_pool`)
_pools: dict[int, ProcessPoolExecutor] = {}

# a forked child starts its own pool and never touches its parent's;
# where there is no fork (Windows), children start without one anyway
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pools.clear)


def _shared_pool(width: int) -> ProcessPoolExecutor:
    """The process's DPU pool at ``width`` workers, started on first use
    and replaced only when the width changes."""
    if width not in _pools:
        _drop_pool()
        _pools[width] = ProcessPoolExecutor(max_workers=width)
        # A process that is itself a pool worker joins its children at
        # exit before concurrent.futures' exit hook stops this pool, so it
        # would wait on the idle workers forever: stop the pool first,
        # ahead of its own queues' finalizers (priority 10).
        Finalize(None, _drop_pool, exitpriority=100)
    return _pools[width]


def _drop_pool() -> None:
    """Shut the process's DPU pool down, if it has one."""
    while _pools:
        _pools.popitem()[1].shutdown()


def _run_groups(
    runner: Callable[..., list],
    jobs: list[DpuJob],
    workers: int,
    *args: object,
    views: Optional[JobViews] = None,
) -> list:
    """``runner(group, *args)`` on the process's pool, over as many
    contiguous groups of the ``dpu_id``-ordered jobs as ``workers``
    resolves to (capped at the jobs); all jobs as one group in-process
    when that is one, the caller hands over ``views`` or the pool
    fails."""
    if views is not None:
        return runner(jobs, *args, views)
    n = resolve_workers(workers, len(jobs))
    if n > 1:
        jobs = sorted(jobs, key=lambda job: job.dpu_id)
        groups = [jobs[w * len(jobs) // n : (w + 1) * len(jobs) // n] for w in range(n)]
        try:
            pool = _shared_pool(resolve_workers(workers))
            done = pool.map(runner, groups, *([arg] * n for arg in args))
            return [item for group in done for item in group]
        except (OSError, BrokenProcessPool):
            # Pool infrastructure failure (fork forbidden, worker killed):
            # drop the pool and fall back to the sequential path, which is
            # result-identical; the next pooled call starts a fresh pool.
            _drop_pool()
    return runner(jobs, *args)


def execute_jobs(
    jobs: Iterable[DpuJob], workers: int = 1, views: Optional[JobViews] = None
) -> list[DpuJobResult]:
    """Execute DPU jobs, in-process or over a process pool.

    In-process, all jobs form one group; over a pool, each worker runs
    one contiguous group (:func:`run_job_group`).  With ``views`` (every
    job's vector-engine views, by ``dpu_id``) the jobs run in-process
    whatever ``workers`` says.  Returns records sorted by ``dpu_id``
    regardless of completion order, so callers can merge without
    re-deriving the schedule.
    """
    records = _run_groups(run_job_group, list(jobs), workers, views=views)
    records.sort(key=lambda r: r.dpu_id)
    return records


def execute_jobs_resilient(
    jobs: Iterable[DpuJob],
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    views: Optional[JobViews] = None,
) -> tuple[list[DpuJobResult], RecoveryReport]:
    """Fault-tolerant :func:`execute_jobs`: recover per job, report.

    Each job carries its own :class:`~repro.pim.faults.FaultPlan` slice
    and spare placements; recovery runs *inside* the worker, so the
    parallel and sequential paths make identical recovery decisions.
    ``views`` is as in :func:`execute_jobs`.  Returns successful records
    sorted by ``dpu_id`` plus a :class:`~repro.pim.faults.RecoveryReport`
    whose per-job records are in the same order (pair-index attribution
    is the caller's job — see :func:`repro.pim.faults.assign_pairs`).
    """
    if policy is None:
        policy = RetryPolicy()
    outcomes = _run_groups(
        run_job_group_resilient, list(jobs), workers, policy, views=views
    )
    outcomes.sort(key=lambda o: o.record.dpu_id)
    report = RecoveryReport(records=[o.record for o in outcomes])
    records = [o.result for o in outcomes if o.result is not None]
    return records, report
