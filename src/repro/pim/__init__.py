"""UPMEM PIM substrate: functional + timing simulator.

Models the architecture the paper runs on — DPUs with private
MRAM (64 MB) and WRAM (64 KB), 8-byte-aligned DMA, up to 24 tasklets on a
revolving 11-cycle pipeline, host transfers across ranks — plus the
paper's contributions on top: the custom two-level allocator and the
MRAM-metadata WFA kernel.
"""

from repro.pim.ablation import (
    STANDARD_ABLATIONS,
    STANDARD_ABLATION_NAMES,
    AblationConfig,
    ablation_by_name,
)
from repro.pim.allocator import Allocation, BumpAllocator, TaskletAllocator
from repro.pim.config import (
    DpuConfig,
    DpuTimingConfig,
    HostTransferConfig,
    PimSystemConfig,
    upmem_paper_system,
    upmem_single_rank,
)
from repro.pim.dma import DMA_ALIGN, DMA_MAX, DMA_MIN, DmaEngine, aligned_size
from repro.pim.dpu import Dpu, DpuKernelStats
from repro.pim.faults import (
    DpuDeath,
    FaultInjector,
    FaultPlan,
    JobRecoveryRecord,
    MramCorruption,
    RecoveryReport,
    RetryPolicy,
    TaskletStall,
    TransferTruncation,
    spare_placements,
)
from repro.pim.fleet import (
    FAULT_DOMAINS,
    MANIFEST_SCHEMA,
    FleetCoordinator,
    FleetRun,
    shard_journal_name,
    slice_fault_plan,
)
from repro.pim.health import CircuitBreaker, FleetHealth, HealthPolicy
from repro.pim.journal import (
    JOURNAL_SCHEMA,
    RunJournal,
    result_from_dict,
    result_to_dict,
    workload_fingerprint,
)
from repro.pim.kernel import (
    KernelConfig,
    WfaDpuKernel,
    WramPlan,
    max_supported_tasklets,
)
from repro.pim.layout import MramLayout
from repro.pim.memory import Mram, SimMemory, Wram
from repro.pim.parallel import (
    DpuJob,
    DpuJobResult,
    GeneratorSpec,
    execute_jobs,
    resolve_workers,
    run_dpu_job,
)
from repro.pim.scheduler import BatchSchedule, BatchScheduler
from repro.pim.system import PimRunResult, PimSystem
from repro.pim.tasklet import TaskletContext, TaskletStats
from repro.pim.trace import KernelTrace, TraceEvent
from repro.pim.transfer import HostTransferEngine, TransferStats

__all__ = [
    "AblationConfig",
    "STANDARD_ABLATIONS",
    "STANDARD_ABLATION_NAMES",
    "ablation_by_name",
    "BumpAllocator",
    "TaskletAllocator",
    "Allocation",
    "DpuConfig",
    "DpuTimingConfig",
    "HostTransferConfig",
    "PimSystemConfig",
    "upmem_paper_system",
    "upmem_single_rank",
    "DmaEngine",
    "DMA_ALIGN",
    "DMA_MIN",
    "DMA_MAX",
    "aligned_size",
    "Dpu",
    "DpuKernelStats",
    "KernelConfig",
    "WfaDpuKernel",
    "WramPlan",
    "max_supported_tasklets",
    "MramLayout",
    "Mram",
    "Wram",
    "SimMemory",
    "PimSystem",
    "PimRunResult",
    "BatchScheduler",
    "BatchSchedule",
    "DpuJob",
    "DpuJobResult",
    "GeneratorSpec",
    "execute_jobs",
    "resolve_workers",
    "run_dpu_job",
    "FaultPlan",
    "FaultInjector",
    "DpuDeath",
    "MramCorruption",
    "TransferTruncation",
    "TaskletStall",
    "RetryPolicy",
    "JobRecoveryRecord",
    "RecoveryReport",
    "spare_placements",
    "HealthPolicy",
    "CircuitBreaker",
    "FleetHealth",
    "FleetCoordinator",
    "FleetRun",
    "slice_fault_plan",
    "shard_journal_name",
    "MANIFEST_SCHEMA",
    "FAULT_DOMAINS",
    "RunJournal",
    "JOURNAL_SCHEMA",
    "workload_fingerprint",
    "result_to_dict",
    "result_from_dict",
    "TaskletContext",
    "KernelTrace",
    "TraceEvent",
    "TaskletStats",
    "HostTransferEngine",
    "TransferStats",
]
