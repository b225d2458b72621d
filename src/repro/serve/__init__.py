"""``repro.serve`` — the streaming alignment service.

Layers (bottom up):

* :mod:`repro.serve.clock` — the injectable virtual clock;
* :mod:`repro.serve.batcher` — pure micro-batching state machine;
* :mod:`repro.serve.cache` — deterministic LRU/LFU result cache;
* :mod:`repro.serve.dispatcher` — batches through the scheduler on a
  modeled device timeline;
* :mod:`repro.serve.resilience` — CPU-fallback policy and backend for
  graceful degradation under fleet-health pressure;
* :mod:`repro.serve.service` — admission, ordering, futures, metrics;
* :mod:`repro.serve.loadgen` — deterministic traces, replay, reports.

See ``docs/serving.md`` for the design and the virtual-clock testing
recipe.
"""

from repro.serve.batcher import Batch, BatchPolicy, MicroBatcher, WorkItem
from repro.serve.cache import CacheStats, ResultCache, kernel_fingerprint, result_key
from repro.serve.clock import Timer, VirtualClock
from repro.serve.dispatcher import BatchDispatcher, BatchOutcome
from repro.serve.resilience import (
    BACKEND_CPU,
    BACKEND_PIM,
    CpuFallbackBackend,
    FallbackPolicy,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadReport,
    RequestRecord,
    arrival_times,
    build_trace,
    percentile,
    replay,
    run_load,
    validate_load_report,
)
from repro.serve.service import (
    AlignmentService,
    AlignRequest,
    AlignResponse,
    ServeFuture,
    ServiceConfig,
    ServiceStats,
    build_service,
)

__all__ = [
    "AlignmentService",
    "AlignRequest",
    "AlignResponse",
    "BACKEND_CPU",
    "BACKEND_PIM",
    "Batch",
    "BatchDispatcher",
    "BatchOutcome",
    "BatchPolicy",
    "CacheStats",
    "CpuFallbackBackend",
    "FallbackPolicy",
    "LoadReport",
    "LoadgenConfig",
    "MicroBatcher",
    "RequestRecord",
    "ResultCache",
    "ServeFuture",
    "ServiceConfig",
    "ServiceStats",
    "Timer",
    "VirtualClock",
    "WorkItem",
    "arrival_times",
    "build_service",
    "build_trace",
    "kernel_fingerprint",
    "percentile",
    "replay",
    "result_key",
    "run_load",
    "validate_load_report",
]
