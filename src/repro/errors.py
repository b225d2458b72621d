"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.  The PIM simulator raises the
more specific subclasses to mirror the failure modes of the real UPMEM
toolchain (out-of-memory in WRAM/MRAM, misaligned DMA, oversubscribed
tasklets, malformed MRAM layouts).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AlignmentError(ReproError):
    """An aligner was misused or failed to produce a valid alignment."""


class PenaltyError(ReproError):
    """Invalid alignment penalty configuration."""


class CigarError(ReproError):
    """A CIGAR string is malformed or inconsistent with its sequences."""


class DataError(ReproError):
    """Workload generation or sequence I/O failure."""


class PimError(ReproError):
    """Base class for PIM-simulator errors."""


class MemoryFault(PimError):
    """Out-of-bounds access to a simulated MRAM or WRAM memory."""


class AlignmentFault(PimError):
    """A DMA transfer violated UPMEM's 8-byte alignment / size rules."""


class AllocationError(PimError):
    """A simulated allocator ran out of its arena."""


class LayoutError(PimError):
    """An MRAM layout was malformed or overflowed the 64 MB bank."""


class KernelError(PimError):
    """A DPU kernel failed during simulated execution."""


class FaultError(PimError):
    """Base class for runtime faults of the (simulated) PIM machine.

    Unlike the planning/validation errors above, these model failures a
    production deployment must *tolerate*: hardware gives up mid-run,
    transfers are cut short, data rots in MRAM.  The host-side recovery
    layer (:mod:`repro.pim.faults`) catches exactly this subtree for its
    retry/requeue logic — programming errors still propagate.
    """

    def __init__(self, message: str, dpu_id: int | None = None) -> None:
        if dpu_id is not None:
            message = f"DPU {dpu_id}: {message}"
        super().__init__(message)
        self.dpu_id = dpu_id


class DpuFailure(FaultError):
    """A DPU died or refused to launch (allocation/boot/ECC failure)."""


class TransferError(FaultError):
    """A host<->DPU transfer was truncated or timed out mid-copy."""


class CorruptResultError(FaultError):
    """Gathered MRAM data failed an integrity check.

    Raised instead of ever returning a silently wrong alignment: a
    malformed result header, an unparseable record, or a CIGAR/score
    that does not reconstruct against its input pair.
    """


class TaskletStallError(FaultError):
    """A tasklet exceeded its stall budget (modeled watchdog trip)."""


class TransportError(PimError):
    """The modeled shard transport could not deliver a message.

    Raised by :mod:`repro.pim.transport` when a link exhausts its
    redelivery budget with no healthy shard to steal the work onto —
    i.e. the ``NetworkFaultPlan`` violates the liveness precondition
    that at least one shard stays reachable per partition epoch.
    At-least-once delivery means this is *loud*: the coordinator never
    silently drops a round.
    """


class JournalError(PimError):
    """A run journal is malformed, truncated badly, or does not match
    the workload/configuration it is being resumed against."""


class DegradedCapacity(UserWarning):
    """The fleet is running below full capacity (quarantined DPUs).

    A *warning*, not an error: quarantine is the health ledger working
    as designed — rounds proceed on the healthy remainder — but callers
    (and operators reading logs) must be able to see the capacity loss.
    Emitted by the scheduler when placement excludes quarantined DPUs,
    alongside the ``pim_dpus_quarantined`` / ``pim_healthy_capacity``
    metrics.
    """


class QaError(ReproError):
    """Differential-verification harness misuse or invariant failure."""


class ServeError(ReproError):
    """Base class for alignment-service (``repro.serve``) errors."""


class Overloaded(ServeError):
    """Admission control rejected a request: the bounded queue is full.

    Raised *synchronously* by :meth:`~repro.serve.service.AlignmentService.submit`
    instead of buffering without bound — the caller is expected to shed
    load or retry later.  Carries the queue occupancy that triggered the
    rejection so clients and load generators can report it.
    """

    def __init__(self, message: str, queued_pairs: int = 0, limit: int = 0) -> None:
        super().__init__(message)
        self.queued_pairs = queued_pairs
        self.limit = limit


class ConfigError(ReproError):
    """Invalid platform / experiment configuration."""


class TelemetryError(ReproError):
    """Metrics/profiling misuse or a failed telemetry invariant.

    Raised by :mod:`repro.obs` for registry misuse (re-registering a
    metric under a different kind, malformed snapshots), invalid Chrome
    trace documents, and reconciliation failures between the profiler's
    span totals and the timing model's reported seconds.
    """


class CardinalityError(TelemetryError):
    """A metric family exceeded its label-cardinality cap.

    Unbounded label growth (e.g. a per-request label) turns a metrics
    registry into a memory leak and makes its rendered output useless;
    the registry refuses to create the series instead.  See
    :class:`repro.obs.metrics.MetricsRegistry` (``max_series_per_family``).
    """


class LedgerError(TelemetryError):
    """A malformed, unreadable, or non-comparable perf-ledger record.

    Raised by :mod:`repro.obs.bench` when a ``BENCH_ledger.json`` /
    baseline record fails schema validation, when a requested scenario
    does not exist, or when a regression comparison is asked to compare
    records with different config fingerprints.
    """
