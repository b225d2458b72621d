"""The full PIM system: distribution, launch, collection, timing.

Reproduces the paper's execution structure end to end:

1. the host distributes read pairs evenly across DPU MRAM banks
   (:meth:`PimSystem.align` / :meth:`PimSystem.model_run`);
2. every DPU runs the WFA kernel over its private batch, tasklets
   working independently;
3. the host gathers result records from MRAM.

Two entry points:

* :meth:`PimSystem.align` — align a concrete list of pairs.  All logical
  DPUs receive work round-robin; the first ``num_simulated_dpus`` are
  byte-accurately simulated and their slowest kernel time stands for the
  system (exact when ``num_simulated_dpus == num_dpus``).
* :meth:`PimSystem.model_run` — the paper-scale methodology: per-DPU
  load is ``ceil(num_pairs / num_dpus)`` (1954 pairs for 5M over 2560
  DPUs); each simulated DPU aligns an i.i.d. sample of ``k`` pairs and
  its kernel time is scaled by ``load / k``.  Transfer time always uses
  exact full-system byte counts (they are computable without simulation
  because records are fixed-size).

Both entry points express each simulated DPU's work as a
:class:`~repro.pim.parallel.DpuJob` and hand the batch to
:func:`~repro.pim.parallel.execute_jobs`, which runs jobs sequentially
or over a process pool (``PimSystemConfig.workers``); records merge
deterministically by ``dpu_id``, so the two modes are result-identical.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.core.cigar import Cigar
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPair
from repro.errors import ConfigError
from repro.pim.config import PimSystemConfig
from repro.pim.dpu import DpuKernelStats
from repro.pim.faults import (
    FaultPlan,
    RecoveryReport,
    RetryPolicy,
    assign_pairs,
    spare_placements,
)
from repro.pim.kernel import KernelConfig, WfaDpuKernel
from repro.pim.layout import HEADER_BYTES, MramLayout
from repro.pim.parallel import (
    DpuJob,
    DpuJobResult,
    GeneratorSpec,
    JobViews,
    execute_jobs,
    resolve_workers,
)
from repro.pim.trace import KernelTrace
from repro.pim.trace import merge as merge_traces
from repro.pim.transfer import HostTransferEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.wfa_batch import BatchPairView
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import RunTelemetry

__all__ = ["PimRunResult", "PimSystem"]


@dataclass
class PimRunResult:
    """Timing and functional outcome of one PIM run.

    ``kernel_seconds`` is the paper's "Kernel" series;
    ``total_seconds`` (kernel + both transfers + launch overhead) is the
    paper's "Total".
    """

    num_pairs: int  # modeled workload size
    pairs_simulated: int  # functionally aligned pairs
    tasklets: int
    metadata_policy: str
    kernel_seconds: float
    transfer_in_seconds: float
    transfer_out_seconds: float
    launch_seconds: float
    bytes_in: int
    bytes_out: int
    per_dpu: list[DpuKernelStats] = field(default_factory=list)
    #: functional results: (global pair index, score, cigar).  The global
    #: index follows the round-robin distribution contract shared by
    #: :meth:`PimSystem.align` and :meth:`PimSystem.model_run`: the
    #: ``local``-th record gathered from DPU ``d`` is pair
    #: ``d + local * num_dpus``.
    results: list[tuple[int, int, Optional[Cigar]]] = field(default_factory=list)
    #: aligned-region starts per gathered pair index: (pattern_start,
    #: text_start) — zeros for global alignment, clipping under ends-free.
    regions: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: kernel-time scale factor applied for sampled runs (1.0 = exact)
    scale_factor: float = 1.0
    #: graceful-degradation report of a fault-tolerant run (``None`` for
    #: runs without a :class:`~repro.pim.faults.FaultPlan`)
    recovery: Optional[RecoveryReport] = None
    #: physical DPUs the run was placed on (``None`` = the full fleet).
    #: Set when a health ledger quarantined part of the fleet; the
    #: round-robin index contract then runs over ``len(active_dpus)``
    #: slots instead of ``num_dpus``.
    active_dpus: Optional[tuple[int, ...]] = None

    @property
    def transfer_seconds(self) -> float:
        return self.transfer_in_seconds + self.transfer_out_seconds

    @property
    def recovery_overhead_seconds(self) -> float:
        """Modeled host-side recovery cost (backoff waits + watchdog
        detection latency).  Kept out of :attr:`total_seconds` — whose
        section breakdown telemetry reconciles exactly — and charged on
        the fleet's round timeline (:attr:`~repro.pim.fleet.FleetRun.shard_seconds`),
        where multi-round degradation accumulates."""
        return self.recovery.overhead_seconds if self.recovery is not None else 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.kernel_seconds
            + self.transfer_seconds
            + self.launch_seconds
        )

    def throughput(self) -> float:
        """End-to-end pairs aligned per second (the paper's Total)."""
        return self.num_pairs / self.total_seconds if self.total_seconds else 0.0

    def kernel_throughput(self) -> float:
        """Pairs per second counting kernel time only (the paper's Kernel)."""
        return self.num_pairs / self.kernel_seconds if self.kernel_seconds else 0.0

    def dominant_bound(self) -> str:
        """Which DPU pipeline bound dominated across simulated DPUs."""
        if not self.per_dpu:
            return "none"
        counts: dict[str, int] = {}
        for s in self.per_dpu:
            counts[s.bound] = counts.get(s.bound, 0) + 1
        return max(counts, key=counts.__getitem__)


def _count_dpu(
    registry: "MetricsRegistry", dpu_id: int, stats: DpuKernelStats
) -> None:
    """Count one DPU job's kernel work into ``registry``: counters add,
    and the cycles gauge keeps the largest value, as a snapshot merge
    would."""
    dpu = str(dpu_id)
    registry.counter(
        "pim_dpu_pairs_total", "pairs aligned per simulated DPU"
    ).inc(stats.pairs_done, dpu=dpu)
    registry.counter(
        "pim_dpu_instructions_total", "kernel instructions per simulated DPU"
    ).inc(stats.instructions, dpu=dpu)
    registry.counter(
        "pim_dpu_dma_bytes_total", "kernel MRAM<->WRAM DMA bytes per DPU"
    ).inc(stats.dma_bytes, dpu=dpu)
    cycles = registry.gauge(
        "pim_dpu_kernel_cycles", "modeled kernel cycles per simulated DPU"
    ).labels(dpu=dpu)
    cycles.set(max(cycles.value, stats.cycles))


class PimSystem:
    """A configured UPMEM system ready to align read-pair workloads."""

    def __init__(
        self,
        config: PimSystemConfig,
        kernel_config: Optional[KernelConfig] = None,
        telemetry: Optional["RunTelemetry"] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.kernel_config = (
            kernel_config if kernel_config is not None else KernelConfig()
        )
        #: optional :class:`~repro.obs.telemetry.RunTelemetry` — when
        #: attached, every run collects kernel traces, counts per-DPU
        #: metrics from its job records and lays its sections on the
        #: model timeline.
        self.telemetry = telemetry
        self.kernel = WfaDpuKernel(self.kernel_config)
        self.transfer = HostTransferEngine(
            config.transfer,
            registry=telemetry.registry if telemetry is not None else None,
        )
        # Admission check: the WRAM plan must hold at this tasklet count.
        self.kernel.plan_wram(
            config.dpu, config.tasklets, config.metadata_policy
        )

    # -- layout -----------------------------------------------------------

    def plan_layout(self, pairs_per_dpu: int) -> MramLayout:
        """MRAM layout for a per-DPU batch of ``pairs_per_dpu`` pairs."""
        kc = self.kernel_config
        metadata = (
            kc.metadata_peak_bytes() if self.config.metadata_policy == "mram" else 0
        )
        return MramLayout.plan(
            num_pairs=pairs_per_dpu,
            max_pattern_len=kc.max_seq_len,
            max_text_len=kc.max_seq_len,
            max_cigar_ops=kc.max_cigar_ops,
            tasklets=self.config.tasklets,
            metadata_bytes_per_tasklet=metadata,
            mram_capacity=self.config.dpu.mram_bytes,
        )

    # -- helpers -----------------------------------------------------------

    def _tasklet_assignments(self, batch_size: int) -> list[list[int]]:
        """Round-robin local indices over the configured tasklets."""
        t = self.config.tasklets
        return [list(range(tid, batch_size, t)) for tid in range(t)]

    def _make_job(
        self,
        dpu_id: int,
        layout: MramLayout,
        pairs: Optional[tuple[ReadPair, ...]] = None,
        generator: Optional[GeneratorSpec] = None,
        pull: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        physical: Optional[int] = None,
        spare_pool: Optional[tuple[int, ...]] = None,
    ) -> DpuJob:
        """Package one simulated DPU's work for (possibly remote) execution.

        ``dpu_id`` is the *logical slot* (index-mapping identity);
        ``physical`` pins the job onto a specific physical DPU when a
        health ledger has shrunk the placement set.  Requeue spares are
        drawn from ``spare_pool`` (default: the whole fleet) so a
        quarantined DPU is never used as a spare either.
        """
        collect = self.telemetry is not None
        spares: tuple[int, ...] = ()
        placement = dpu_id if physical is None else physical
        if fault_plan is not None:
            pool = (
                spare_pool if spare_pool is not None else range(self.config.num_dpus)
            )
            spares = spare_placements(placement, pool, fault_plan)
        return DpuJob(
            dpu_id=dpu_id,
            layout=layout,
            dpu_config=self.config.dpu,
            transfer_config=self.config.transfer,
            kernel_config=self.kernel_config,
            metadata_policy=self.config.metadata_policy,
            tasklets=self.config.tasklets,
            pairs=pairs,
            generator=generator,
            pull=pull,
            collect_trace=collect,
            fault_plan=fault_plan,
            physical_dpu_id=physical,
            requeue_placements=spares,
        )

    def _merge_records(
        self, records: list[DpuJobResult], num_slots: Optional[int] = None
    ) -> tuple[
        list[DpuKernelStats],
        list[tuple[int, int, Optional[Cigar]]],
        dict[int, tuple[int, int]],
        int,
        KernelTrace,
    ]:
        """Deterministic merge: records arrive sorted by ``dpu_id``.

        Folds each job's transfer accounting into this system's engine
        and, with telemetry attached, counts each job's per-DPU metrics
        from its record (:func:`_count_dpu`), in the same ``dpu_id``
        order on both the sequential and parallel paths.  Converts local
        record indices to global pair indices under the round-robin
        contract (``d + local * num_slots``; ``num_slots`` shrinks below
        ``num_dpus`` when quarantine reduced the placement set).
        """
        per_dpu: list[DpuKernelStats] = []
        results: list[tuple[int, int, Optional[Cigar]]] = []
        regions: dict[int, tuple[int, int]] = {}
        simulated = 0
        num_dpus = num_slots if num_slots is not None else self.config.num_dpus
        registry = self.telemetry.registry if self.telemetry is not None else None
        for rec in records:
            per_dpu.append(rec.stats)
            simulated += rec.num_pairs
            self.transfer.absorb(rec.transfer_stats)
            if registry is not None:
                _count_dpu(registry, rec.dpu_id, rec.stats)
            for local, score, cigar, p_start, t_start in rec.results:
                index = rec.dpu_id + local * num_dpus
                results.append((index, score, cigar))
                regions[index] = (p_start, t_start)
        run_trace = merge_traces(
            rec.trace for rec in records if rec.trace is not None
        )
        return per_dpu, results, regions, simulated, run_trace

    def _run_jobs(
        self,
        jobs: list[DpuJob],
        kind: str,
        fault_plan: Optional[FaultPlan],
        retry_policy: Optional[RetryPolicy],
        num_slots: Optional[int] = None,
        views: Optional[JobViews] = None,
    ) -> tuple[list[DpuJobResult], Optional[RecoveryReport]]:
        """Execute jobs (:func:`~repro.pim.parallel.execute_jobs`) under a
        wall-time ``host_execute`` profiler span when telemetry is on.

        ``views`` are the jobs' vector-engine views by ``dpu_id``
        (in-process execution).  Without a fault plan no job can fail,
        so the recovery report says nothing and is dropped (``None``).
        With one, the report's pair-index attribution is filled in under
        the round-robin contract (over ``num_slots`` logical slots) and
        its counters land in the attached telemetry registry.
        """
        n = self.config.workers
        span = nullcontext()
        if self.telemetry is not None:
            span = self.telemetry.profiler.span(
                "host_execute", kind=kind, jobs=len(jobs), workers=n
            )
        with span:
            records, report = execute_jobs(jobs, n, retry_policy, views)
        if fault_plan is None:
            return records, None
        assign_pairs(
            report,
            num_slots if num_slots is not None else self.config.num_dpus,
            {job.dpu_id: job.num_pairs for job in jobs},
        )
        if self.telemetry is not None:
            report.count_into(self.telemetry.registry)
        return records, report

    def _system_bytes(
        self, num_pairs: int, layout: MramLayout, num_slots: Optional[int] = None
    ) -> tuple[int, int]:
        """Full-system transfer byte counts (headers per *active* bank)."""
        banks = num_slots if num_slots is not None else self.config.num_dpus
        bytes_in = num_pairs * layout.input_record_size + banks * HEADER_BYTES
        bytes_out = num_pairs * layout.result_record_size
        return bytes_in, bytes_out

    # -- concrete batch alignment ------------------------------------------------

    def _resolve_active(
        self, active_dpus: Optional[tuple[int, ...]]
    ) -> Optional[tuple[int, ...]]:
        """Validate a quarantine-reduced placement set (``None`` = full)."""
        if active_dpus is None:
            return None
        active = tuple(sorted(set(active_dpus)))
        if not active:
            raise ConfigError("active_dpus must name at least one DPU")
        if active[0] < 0 or active[-1] >= self.config.num_dpus:
            raise ConfigError(
                f"active_dpus {active} out of range for "
                f"{self.config.num_dpus} DPUs"
            )
        if len(active) == self.config.num_dpus:
            return None  # full fleet: identical to the unconstrained path
        return active

    def batch_views(
        self, pairs: Iterable[ReadPair]
    ) -> Optional[Iterator["BatchPairView"]]:
        """Vector-engine views of ``pairs`` for :meth:`align`'s ``views=``.

        The one place that decides whether a caller (the fleet's round
        loop) may align the pairs of many :meth:`align` calls up front.
        It returns the kernel's lazy stream
        (:meth:`~repro.pim.kernel.WfaDpuKernel.batch_views`) only when
        the jobs run in-process (``workers`` resolves to one, so no pool
        worker aligns a pair again), every logical DPU is simulated (so no
        pair is aligned that no job takes) and the vector engine applies.
        Otherwise it returns ``None`` without consuming ``pairs``.
        """
        cfg = self.config
        if resolve_workers(cfg.workers) != 1 or cfg.num_simulated_dpus != cfg.num_dpus:
            return None
        return self.kernel.batch_views(pairs)

    def align(
        self,
        pairs: list[ReadPair],
        collect_results: bool = True,
        verify: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        active_dpus: Optional[tuple[int, ...]] = None,
        views: Optional[Sequence["BatchPairView"]] = None,
    ) -> PimRunResult:
        """Align a concrete batch, distributed over all logical DPUs.

        With ``verify=True`` every gathered result is re-checked on the
        host: the CIGAR is validated against its pair and re-scored
        under the kernel's penalty model (raises
        :class:`~repro.errors.KernelError` on any inconsistency) — the
        simulated-hardware analogue of WFA's verification mode.

        A run under a ``fault_plan`` verifies every gathered record in
        the worker, recovers per ``retry_policy`` (retry, backoff,
        requeue onto healthy DPUs; default :class:`~repro.pim.faults.RetryPolicy`),
        and attaches a
        :class:`~repro.pim.faults.RecoveryReport` as ``result.recovery``.

        ``active_dpus`` restricts placement to a subset of the physical
        fleet (quarantine — see :mod:`repro.pim.health`): pairs are
        distributed round-robin over ``len(active_dpus)`` logical slots,
        slot ``s`` runs on physical DPU ``active_dpus[s]``, and requeue
        spares come from the active set only.  Capacity loss is modeled
        honestly — fewer DPUs take bigger batches and the kernel takes
        longer.

        ``views[i]`` is ``pairs[i]``'s view from :meth:`batch_views`
        (only where that returns a stream).  Each slot's job gets its
        share under the round-robin contract and runs in-process; the
        kernel still checks every view against the pair its DMA read.
        """
        n = len(pairs)
        active = self._resolve_active(active_dpus)
        num_slots = self.config.num_dpus if active is None else len(active)
        batches = [pairs[s::num_slots] for s in range(min(num_slots, max(n, 1)))]
        max_batch = max((len(b) for b in batches), default=0)
        layout = self.plan_layout(max(max_batch, 1))

        pull = collect_results or verify
        jobs = [
            self._make_job(
                s,
                layout,
                pairs=tuple(batch),
                pull=pull,
                fault_plan=fault_plan,
                physical=None if active is None else active[s],
                spare_pool=active,
            )
            for s, batch in enumerate(batches[: self.config.num_simulated_dpus])
            if batch
        ]
        job_views = None
        if views is not None:
            job_views = {
                job.dpu_id: dict(enumerate(views[job.dpu_id :: num_slots]))
                for job in jobs
            }
        records, recovery = self._run_jobs(
            jobs, "align", fault_plan, retry_policy, num_slots, job_views
        )
        per_dpu, results, regions, simulated, run_trace = self._merge_records(
            records, num_slots=num_slots
        )

        if verify:
            self._verify_results(pairs, results, regions)
            if not collect_results:
                results = []
                regions = {}
        kernel_seconds = max((s.seconds for s in per_dpu), default=0.0)
        bytes_in, bytes_out = self._system_bytes(n, layout, num_slots=num_slots)
        run = PimRunResult(
            num_pairs=n,
            pairs_simulated=simulated,
            tasklets=self.config.tasklets,
            metadata_policy=self.config.metadata_policy,
            kernel_seconds=kernel_seconds,
            transfer_in_seconds=self.transfer.to_dpu_seconds(
                bytes_in, self.config.num_ranks
            ),
            transfer_out_seconds=self.transfer.from_dpu_seconds(
                bytes_out, self.config.num_ranks
            ),
            launch_seconds=self.transfer.launch_seconds(),
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            per_dpu=per_dpu,
            results=results,
            regions=regions,
            recovery=recovery,
            active_dpus=active,
        )
        self._record_run("align", run, run_trace)
        return run

    def _record_run(
        self, kind: str, run: PimRunResult, trace: KernelTrace
    ) -> None:
        if self.telemetry is not None:
            self.telemetry.on_run(
                kind,
                run,
                trace,
                seconds_per_cycle=self.config.dpu.timing.seconds(1.0),
            )

    def _verify_results(
        self,
        pairs: list[ReadPair],
        results: list[tuple[int, int, Optional[Cigar]]],
        regions: Optional[dict[int, tuple[int, int]]] = None,
    ) -> None:
        """Host-side re-validation of gathered results."""
        from repro.errors import KernelError

        pen = self.kernel_config.penalties
        for index, score, cigar in results:
            pair = pairs[index]
            if cigar is None:
                continue
            p_start, t_start = (regions or {}).get(index, (0, 0))
            try:
                cigar.validate(
                    pair.pattern[p_start : p_start + cigar.pattern_length()],
                    pair.text[t_start : t_start + cigar.text_length()],
                )
            except Exception as exc:  # CigarError carries the detail
                raise KernelError(
                    f"pair {index}: gathered CIGAR invalid: {exc}"
                ) from exc
            rescored = cigar.score(pen)
            if rescored != score:
                raise KernelError(
                    f"pair {index}: gathered score {score} != CIGAR rescoring "
                    f"{rescored}"
                )

    # -- paper-scale modeled run ---------------------------------------------------

    def model_run(
        self,
        spec: DatasetSpec,
        sample_pairs_per_dpu: int = 256,
        collect_results: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> PimRunResult:
        """Model a full-scale run of ``spec`` (e.g. the paper's 5M pairs).

        Each simulated DPU aligns ``min(sample_pairs_per_dpu, load)``
        i.i.d. pairs drawn from the spec's distribution (seeded per DPU);
        kernel time is scaled to the true per-DPU load.  With
        ``collect_results=True`` the gathered records carry global
        indices under the same round-robin contract as :meth:`align`
        (``d + local * num_dpus``) and populate ``regions``.
        """
        if sample_pairs_per_dpu < 1:
            raise ConfigError("sample_pairs_per_dpu must be >= 1")
        load = math.ceil(spec.num_pairs / self.config.num_dpus)
        if load == 0:
            raise ConfigError("empty dataset spec")
        # A sample smaller than ~2 pairs/tasklet leaves tasklets idle and
        # inflates the pipeline's latency bound in a way the full (large,
        # balanced) load would not; round the sample up to keep the
        # measured throughput/latency mix representative.
        k = min(max(sample_pairs_per_dpu, 2 * self.config.tasklets), load)
        scale = load / k
        layout = self.plan_layout(k)

        jobs = [
            self._make_job(
                d,
                layout,
                generator=GeneratorSpec(
                    length=spec.length,
                    error_rate=spec.error_rate,
                    seed=spec.seed + 7919 * d + 1,
                    error_model=spec.error_model,
                    count=k,
                ),
                pull=collect_results,
                fault_plan=fault_plan,
            )
            for d in range(self.config.num_simulated_dpus)
        ]
        records, recovery = self._run_jobs(
            jobs, "model_run", fault_plan, retry_policy
        )
        per_dpu, results, regions, simulated, run_trace = self._merge_records(
            records
        )
        for summary in per_dpu:
            summary.seconds *= scale
            summary.cycles *= scale

        kernel_seconds = max((s.seconds for s in per_dpu), default=0.0)
        bytes_in, bytes_out = self._system_bytes(spec.num_pairs, layout)
        run = PimRunResult(
            num_pairs=spec.num_pairs,
            pairs_simulated=simulated,
            tasklets=self.config.tasklets,
            metadata_policy=self.config.metadata_policy,
            kernel_seconds=kernel_seconds,
            transfer_in_seconds=self.transfer.to_dpu_seconds(
                bytes_in, self.config.num_ranks
            ),
            transfer_out_seconds=self.transfer.from_dpu_seconds(
                bytes_out, self.config.num_ranks
            ),
            launch_seconds=self.transfer.launch_seconds(),
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            per_dpu=per_dpu,
            results=results,
            regions=regions,
            scale_factor=scale,
            recovery=recovery,
        )
        self._record_run("model_run", run, run_trace)
        return run
