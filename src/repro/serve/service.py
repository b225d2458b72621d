"""The alignment service: stream in requests, stream out alignments.

``AlignmentService`` turns the one-shot batch API of
:class:`~repro.pim.fleet.FleetCoordinator` into a continuously-fed
service:

1. **submit** — :meth:`AlignmentService.submit` accepts an
   :class:`AlignRequest` (one pair or a chunk) and returns a
   :class:`ServeFuture` immediately.  Admission control bounds the
   number of pairs in the system (pending + modeled-in-flight); past the
   bound, submission raises a typed :class:`~repro.errors.Overloaded`
   instead of buffering without bound.
2. **coalesce** — per-pair work items flow through the
   :class:`~repro.serve.batcher.MicroBatcher`: flush on
   ``max_batch_pairs`` or on the oldest pair's ``max_wait_s`` deadline,
   whichever first.  Deadlines ride the injectable clock
   (:mod:`repro.serve.clock`), so tests never sleep.
3. **dispatch** — batches run through the fleet's schedulers / parallel
   workers via :class:`~repro.serve.dispatcher.BatchDispatcher`,
   optionally under a :class:`~repro.pim.faults.FaultPlan` (a DPU death
   mid-batch retries / requeues without dropping or duplicating any
   request).
4. **resolve** — futures resolve **in submission order** (a global
   in-order gate), so responses are never reordered within a client even
   when a fully-cached request is ready before an older in-flight one.

The optional result cache (:mod:`repro.serve.cache`) short-circuits
pairs whose exact (sequence pair, penalties, kernel config) digest was
served before; a hit is byte-identical to a fresh run.

All service time is *modeled* time on the injected clock: request
latency = (batch formation wait) + (modeled device queueing) + (the
timing model's ``total_seconds`` for the batch).  With a
:class:`~repro.serve.clock.VirtualClock` the whole pipeline is
deterministic — byte-identical responses, recovery reports, and metric
snapshots across runs and across ``workers=0/2`` (pinned in
``tests/test_serve_load.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.data.generator import ReadPair
from repro.errors import ConfigError, Overloaded, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.pim.faults import FaultPlan, RetryPolicy
from repro.pim.fleet import FleetCoordinator
from repro.serve.batcher import Batch, BatchPolicy, MicroBatcher, WorkItem
from repro.serve.cache import ResultCache, result_key
from repro.serve.clock import VirtualClock
from repro.serve.dispatcher import BatchDispatcher
from repro.serve.resilience import BACKEND_CPU, BACKEND_PIM, FallbackPolicy

__all__ = [
    "AlignRequest",
    "AlignResponse",
    "ServeFuture",
    "ServiceConfig",
    "ServiceStats",
    "AlignmentService",
    "build_service",
]

#: histogram buckets for formed batch sizes (pairs).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class AlignRequest:
    """One client request: a chunk of one or more read pairs."""

    client: str
    request_id: str
    pairs: Tuple[ReadPair, ...]

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class AlignResponse:
    """The resolved alignment of one request, pairs in request order."""

    client: str
    request_id: str
    scores: Tuple[int, ...]
    cigars: Tuple[Optional[str], ...]
    #: per-pair: served from the result cache?
    cached: Tuple[bool, ...]
    arrival_s: float
    #: modeled time the last pair's result was ready
    completion_s: float
    #: batch indices that carried this request's uncached pairs
    batches: Tuple[int, ...]
    #: which execution path produced the results: ``"pim"``,
    #: ``"cpu-fallback"``, ``"mixed"`` (batches split across backends),
    #: or ``"cache"`` (every pair was a cache hit).
    backend: str = BACKEND_PIM

    @property
    def num_pairs(self) -> int:
        return len(self.scores)

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    def to_dict(self) -> dict:
        return {
            "client": self.client,
            "id": self.request_id,
            "scores": list(self.scores),
            "cigars": list(self.cigars),
            "cached": list(self.cached),
            "arrival_s": self.arrival_s,
            "completion_s": self.completion_s,
            "latency_s": self.latency_s,
            "batches": list(self.batches),
            "backend": self.backend,
        }


class ServeFuture:
    """Minimal synchronous future resolved by the service engine.

    Callbacks run synchronously at resolution (inside ``submit``, a
    flush-timer firing, or ``drain``), which keeps the engine free of
    event-loop dependencies.
    """

    __slots__ = ("_result", "_exception", "_done", "_callbacks")

    def __init__(self) -> None:
        self._result: Optional[AlignResponse] = None
        self._exception: Optional[BaseException] = None
        self._done = False
        self._callbacks: List[Callable[["ServeFuture"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self) -> AlignResponse:
        if not self._done:
            raise ServeError("result() on an unresolved future (drain first?)")
        if self._exception is not None:
            raise self._exception
        return self._result  # type: ignore[return-value]

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise ServeError("exception() on an unresolved future")
        return self._exception

    def add_done_callback(self, fn: Callable[["ServeFuture"], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _resolve(
        self,
        result: Optional[AlignResponse],
        exception: Optional[BaseException],
    ) -> None:
        if self._done:
            raise ServeError("future resolved twice")
        self._result = result
        self._exception = exception
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level policy knobs (batching, backpressure, caching)."""

    max_batch_pairs: int = 64
    max_wait_s: float = 1e-3
    #: admission bound: pairs pending in the batcher plus pairs whose
    #: modeled batch completion is still ahead of "now".
    max_queue_pairs: int = 4096
    #: result-cache capacity in entries (0 disables caching).
    cache_pairs: int = 0
    cache_policy: str = "lru"
    #: scheduler round-size override (``None`` = MRAM capacity).
    pairs_per_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_queue_pairs < 1:
            raise ConfigError(
                f"max_queue_pairs must be >= 1, got {self.max_queue_pairs}"
            )
        if self.cache_pairs < 0:
            raise ConfigError(f"cache_pairs must be >= 0, got {self.cache_pairs}")
        # delegate the rest
        BatchPolicy(self.max_batch_pairs, self.max_wait_s)

    def policy(self) -> BatchPolicy:
        return BatchPolicy(self.max_batch_pairs, self.max_wait_s)


@dataclass
class ServiceStats:
    """Request-level accounting.

    Invariant (held at every step, pinned by the stateful test):
    ``submitted == completed + rejected + in_flight`` where
    ``in_flight`` is the number of live, unresolved requests and
    ``rejected`` counts admission rejections and fault-abandoned
    requests.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    in_flight: int = 0

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "in_flight": self.in_flight,
        }


@dataclass
class _Pending:
    """Service-side state of one unresolved request."""

    seq: int
    request: AlignRequest
    future: ServeFuture
    arrival_s: float
    results: List[Optional[Tuple[int, Optional[object], Tuple[int, int]]]]
    cached: List[bool]
    remaining: int
    batches: List[int] = field(default_factory=list)
    completion_s: float = 0.0
    failure: Optional[BaseException] = None
    #: backends (in first-use order) that served this request's
    #: uncached pairs — drives :attr:`AlignResponse.backend`.
    backends: List[str] = field(default_factory=list)


class AlignmentService:
    """Deterministic micro-batching alignment service engine."""

    def __init__(
        self,
        fleet: FleetCoordinator,
        config: Optional[ServiceConfig] = None,
        clock=None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fallback: Optional[FallbackPolicy] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else VirtualClock()
        #: the fleet's :class:`~repro.obs.telemetry.RunTelemetry`, if any:
        #: every layer of a request — service counters, scheduler
        #: rounds, kernel traces — lands in it (shard telemetries are
        #: federated under it), and every request gets a model-time
        #: ``serve_request`` span.
        self.telemetry = fleet.telemetry
        self.registry: MetricsRegistry = (
            self.telemetry.registry
            if self.telemetry is not None
            else MetricsRegistry()
        )
        self.batcher = MicroBatcher(self.config.policy())
        self.dispatcher = BatchDispatcher(
            fleet,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            pairs_per_round=self.config.pairs_per_round,
            fallback=fallback,
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_pairs, self.config.cache_policy)
            if self.config.cache_pairs > 0
            else None
        )
        self.stats = ServiceStats()
        self._kernel_config = fleet.kernel_config
        self._requests: Dict[int, _Pending] = {}
        self._delivery: Deque[int] = deque()  # submission-order gate
        self._next_request_seq = 0
        self._next_pair_seq = 0
        self._timer = None
        self._armed_deadline: Optional[float] = None

        reg = self.registry
        self._m_requests = reg.counter(
            "serve_requests_total", "requests by terminal outcome"
        )
        self._m_pairs = reg.counter("serve_pairs_total", "pairs submitted")
        self._m_queue = reg.gauge(
            "serve_queue_pairs",
            "pairs pending in the batcher + in flight on the modeled device",
        )
        self._m_batches = reg.counter(
            "serve_batches_total", "batches dispatched by flush trigger"
        )
        self._m_batch_pairs = reg.histogram(
            "serve_batch_pairs", "formed batch sizes", buckets=BATCH_SIZE_BUCKETS
        )
        self._m_batch_wait = reg.histogram(
            "serve_batch_wait_seconds",
            "modeled wait of a batch's oldest pair at formation",
        )
        self._m_latency = reg.histogram(
            "serve_request_latency_seconds", "modeled request latency"
        )
        self._m_cache = reg.counter(
            "serve_cache_lookups_total", "result-cache lookups by outcome"
        )
        self._m_evictions = reg.counter(
            "serve_cache_evictions_total", "result-cache evictions"
        )
        self._m_fallback_pairs = reg.counter(
            "serve_fallback_pairs_total",
            "pairs served by the CPU fallback backend",
        )
        self._evictions_seen = 0

    # -- queries -----------------------------------------------------------

    @property
    def queue_pairs(self) -> int:
        """Current admission-control occupancy (pending + in flight)."""
        return self.batcher.pending_pairs + self.dispatcher.in_system_pairs(
            self.clock.now()
        )

    def metrics_snapshot(self) -> dict:
        """The service registry federated with every shard's."""
        if self.telemetry is None:
            return self.registry.snapshot()
        return self.telemetry.federated_registry().snapshot()

    # -- submission --------------------------------------------------------

    def submit(self, request: AlignRequest) -> ServeFuture:
        """Admit one request; returns its future (may already be done).

        Raises :class:`~repro.errors.Overloaded` when admitting the
        request would push the in-system pair count past
        ``max_queue_pairs``; the rejected request is still accounted in
        :attr:`stats` (``submitted`` and ``rejected`` both increase).
        """
        now = self.clock.now()
        n = request.num_pairs
        self.stats.submitted += 1
        occupancy = self.queue_pairs
        if occupancy + n > self.config.max_queue_pairs:
            self.stats.rejected += 1
            self._m_requests.inc(outcome="overloaded")
            raise Overloaded(
                f"queue holds {occupancy} pairs, request adds {n}, "
                f"limit is {self.config.max_queue_pairs}",
                queued_pairs=occupancy,
                limit=self.config.max_queue_pairs,
            )
        self._m_pairs.inc(n)

        seq = self._next_request_seq
        self._next_request_seq += 1
        pending = _Pending(
            seq=seq,
            request=request,
            future=ServeFuture(),
            arrival_s=now,
            results=[None] * n,
            cached=[False] * n,
            remaining=n,
            completion_s=now,
        )
        self.stats.in_flight += 1
        self._requests[seq] = pending
        self._delivery.append(seq)

        items: List[WorkItem] = []
        for offset, pair in enumerate(request.pairs):
            key = None
            if self.cache is not None:
                key = result_key(pair, self._kernel_config)
                hit = self.cache.get(key)
                if hit is not None:
                    self._m_cache.inc(outcome="hit")
                    pending.results[offset] = hit
                    pending.cached[offset] = True
                    pending.remaining -= 1
                    continue
                self._m_cache.inc(outcome="miss")
            items.append(
                WorkItem(
                    seq=self._next_pair_seq,
                    request_seq=seq,
                    offset=offset,
                    pair=pair,
                    arrival_s=now,
                    key=key,
                )
            )
            self._next_pair_seq += 1

        if items:
            self._dispatch(self.batcher.add(items, now))
        self._deliver()
        self._rearm()
        self._update_queue_gauge()
        return pending.future

    def drain(self) -> None:
        """Flush and dispatch everything pending; resolve all futures."""
        while self.batcher.pending_pairs:
            self._dispatch(self.batcher.drain(self.clock.now()))
        self._deliver()
        self._rearm()
        self._update_queue_gauge()

    # -- internals ---------------------------------------------------------

    def _update_queue_gauge(self) -> None:
        self._m_queue.set(self.queue_pairs)

    def _rearm(self) -> None:
        """Keep exactly one clock timer armed at the batcher deadline."""
        deadline = self.batcher.next_deadline()
        if deadline == self._armed_deadline:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed_deadline = deadline
        if deadline is not None:
            self._timer = self.clock.call_at(deadline, self._on_deadline)

    def _on_deadline(self) -> None:
        self._timer = None
        self._armed_deadline = None
        self._dispatch(self.batcher.take_due(self.clock.now()))
        self._deliver()
        self._rearm()
        self._update_queue_gauge()

    def _dispatch(self, batches: List[Batch]) -> None:
        for batch in batches:
            self._m_batches.inc(reason=batch.reason)
            self._m_batch_pairs.observe(batch.num_pairs)
            self._m_batch_wait.observe(batch.wait_s)
            outcome = self.dispatcher.dispatch(
                [item.pair for item in batch.items], batch.formed_s
            )
            if outcome.backend == BACKEND_CPU:
                self._m_fallback_pairs.inc(outcome.num_pairs)
            for item, res in zip(batch.items, outcome.results):
                pending = self._requests[item.request_seq]
                pending.remaining -= 1
                if res is not None and self.cache is not None and item.key is not None:
                    self.cache.put(item.key, res)
                pending.completion_s = max(
                    pending.completion_s, outcome.completed_s
                )
                if outcome.batch_index not in pending.batches:
                    pending.batches.append(outcome.batch_index)
                if outcome.backend not in pending.backends:
                    pending.backends.append(outcome.backend)
                if res is None:
                    pending.failure = ServeError(
                        f"request {pending.request.request_id}: pair "
                        f"{item.offset} abandoned after fault recovery"
                    )
                    continue
                pending.results[item.offset] = res
            if self.cache is not None:
                new_evictions = self.cache.stats.evictions - self._evictions_seen
                if new_evictions:
                    self._m_evictions.inc(new_evictions)
                    self._evictions_seen = self.cache.stats.evictions

    def _deliver(self) -> None:
        """Resolve every head-of-line request that is fully complete.

        Resolution strictly follows submission order: a later request
        that completed early (e.g. fully cache-hit) waits for every
        earlier request to resolve first, so responses are never
        reordered within (or across) clients.
        """
        while self._delivery:
            pending = self._requests[self._delivery[0]]
            if pending.remaining > 0:
                return
            self._delivery.popleft()
            del self._requests[pending.seq]
            self.stats.in_flight -= 1
            if pending.failure is not None:
                self.stats.rejected += 1
                self._m_requests.inc(outcome="failed")
                pending.future._resolve(None, pending.failure)
                continue
            if not pending.backends:
                backend = "cache" if pending.cached and all(pending.cached) else BACKEND_PIM
            elif len(pending.backends) == 1:
                backend = pending.backends[0]
            else:
                backend = "mixed"
            response = AlignResponse(
                client=pending.request.client,
                request_id=pending.request.request_id,
                scores=tuple(r[0] for r in pending.results),  # type: ignore[index]
                cigars=tuple(
                    str(r[1]) if r[1] is not None else None  # type: ignore[index]
                    for r in pending.results
                ),
                cached=tuple(pending.cached),
                arrival_s=pending.arrival_s,
                completion_s=pending.completion_s,
                batches=tuple(sorted(pending.batches)),
                backend=backend,
            )
            self.stats.completed += 1
            self._m_requests.inc(outcome="completed")
            self._m_latency.observe(response.latency_s)
            if self.telemetry is not None:
                self.telemetry.profiler.add_model_span(
                    "serve_request",
                    response.arrival_s,
                    response.latency_s,
                    client=response.client,
                    request=response.request_id,
                )
            pending.future._resolve(response, None)


def build_service(
    num_dpus: int = 4,
    tasklets: int = 4,
    workers: int = 1,
    max_read_len: int = 100,
    max_edits: int = 4,
    penalties=None,
    config: Optional[ServiceConfig] = None,
    clock=None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    with_telemetry: bool = True,
    health_policy=None,
    fallback: Optional[FallbackPolicy] = None,
    engine: str = "vector",
    shards: int = 1,
    net_plan=None,
    transport_policy=None,
) -> AlignmentService:
    """Construct the full stack: fleet -> service.

    One shared :class:`~repro.obs.telemetry.RunTelemetry` is attached to
    the fleet and the service (unless ``with_telemetry=False``), so a
    single federated metrics snapshot covers the whole request path.
    ``workers`` is the shards' ``PimSystemConfig.workers`` (host
    processes per round; results never depend on it).

    ``engine`` selects the kernel's host-side alignment engine
    (``"vector"``, the default since the QA sweep soaked on it, or
    ``"scalar"`` as the escape hatch — see
    :class:`~repro.pim.kernel.KernelConfig`); responses, recovery
    reports and telemetry are byte-identical either way — the vector
    engine only changes simulation wall-clock time.

    ``health_policy`` (a :class:`~repro.pim.health.HealthPolicy`) turns
    on per-shard fleet-health ledgers: rounds become quarantine-aware
    and — when ``fallback`` is also given — batches route to the CPU
    baseline while the federated healthy capacity sits below
    :attr:`~repro.serve.resilience.FallbackPolicy.min_healthy_fraction`.

    ``shards`` federates that many independent, identically-shaped PIM
    shards behind the one front door via a
    :class:`~repro.pim.fleet.FleetCoordinator` (``num_dpus`` DPUs *per
    shard*; batches are round-striped across shards, so responses stay
    byte-identical to ``shards=1`` while modeled completion times
    shrink).  Placement rebalances away from quarantined shards,
    publishing ``rebalance`` events into the service telemetry.  A
    one-shard fleet is the plain multi-round run.

    ``net_plan``/``transport_policy`` model the coordinator<->shard
    network via :mod:`repro.pim.transport`: batches pay envelope
    delivery over seeded link faults, and the dispatcher's fallback
    decision folds the *link* healthy fraction in — a partitioned shard
    degrades the service exactly like dead DPUs do.  A plan that names
    a link the fleet does not have is refused.
    """
    from repro.core.penalties import AffinePenalties
    from repro.pim.config import PimSystemConfig
    from repro.pim.kernel import KernelConfig

    telemetry = None
    if with_telemetry:
        from repro.obs import RunTelemetry

        telemetry = RunTelemetry()
    fleet = FleetCoordinator(
        PimSystemConfig(
            num_dpus=num_dpus,
            num_ranks=1,
            tasklets=tasklets,
            num_simulated_dpus=num_dpus,
            workers=workers,
        ),
        KernelConfig(
            penalties=penalties if penalties is not None else AffinePenalties(),
            max_read_len=max_read_len,
            max_edits=max_edits,
            engine=engine,
        ),
        shards=shards,
        health_policy=health_policy,
        telemetry=telemetry,
        net_plan=net_plan,
        transport_policy=transport_policy,
    )
    return AlignmentService(
        fleet,
        config=config,
        clock=clock,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        fallback=fallback,
    )
