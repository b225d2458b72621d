"""Deterministic load generation and replay for the alignment service.

The load generator builds a fully deterministic request *trace* — seeded
arrival times, seeded pair contents (with deliberate duplicates so the
result cache has something to hit) — and replays it against an
:class:`~repro.serve.service.AlignmentService` on a
:class:`~repro.serve.clock.VirtualClock`.  Because both the trace and
the service are deterministic, the whole replay is reproducible to the
byte: same seed, same latencies, same report — regardless of wall-clock
speed or host worker count.

Arrival processes (all at a mean of ``rate`` requests per modeled
second):

* ``"uniform"`` — evenly spaced, ``t_i = i / rate``;
* ``"bursty"`` — requests land in back-to-back bursts of ``burst``, the
  bursts themselves evenly spaced (micro-batcher stress: size flushes);
* ``"ramp"`` — the instantaneous rate climbs linearly from ``rate`` to
  ``rate_end`` over the trace (finds the knee where queueing starts).

The replay emits a JSONL :class:`LoadReport` (schema
``repro.serve.load/v1``) mirroring the QA report format: one header,
one record per request, one summary with nearest-rank latency
percentiles.  :func:`validate_load_report` re-derives every summary
figure from the per-request records, so CI can trust a report it did
not produce.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.data.generator import ReadPair, mutate_sequence, random_sequence
from repro.errors import ConfigError, Overloaded, ServeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.slo import SloPolicy
    from repro.serve.clock import VirtualClock
    from repro.serve.service import AlignmentService

__all__ = [
    "LoadgenConfig",
    "RequestRecord",
    "LoadReport",
    "arrival_times",
    "build_trace",
    "replay",
    "run_load",
    "validate_load_report",
    "percentile",
]

#: schema tag stamped into every load report header.
REPORT_SCHEMA = "repro.serve.load/v1"

_REQUEST_KEYS = frozenset(
    {
        "record",
        "client",
        "id",
        "status",
        "pairs",
        "cached_pairs",
        "arrival_s",
        "completion_s",
        "latency_s",
        "batches",
    }
)

ARRIVAL_PROCESSES = ("uniform", "bursty", "ramp")


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of a synthetic request trace."""

    requests: int = 200
    #: mean arrival rate, requests per modeled second.
    rate: float = 2000.0
    process: str = "uniform"
    #: burst size for the ``"bursty"`` process.
    burst: int = 8
    #: final rate for the ``"ramp"`` process (defaults to ``4 * rate``).
    rate_end: Optional[float] = None
    pairs_per_request: int = 1
    clients: int = 4
    #: read length of generated pairs.
    length: int = 16
    error_rate: float = 0.05
    seed: int = 0
    #: distinct pairs in the pool; requests draw from it with
    #: replacement, so smaller pools mean more cache-hittable
    #: duplicates.  Defaults to ``max(1, requests // 2)``.
    pool: Optional[int] = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if self.rate <= 0:
            raise ConfigError(f"rate must be > 0, got {self.rate}")
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"process must be one of {ARRIVAL_PROCESSES}, got {self.process!r}"
            )
        if self.burst < 1:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")
        if self.rate_end is not None and self.rate_end <= 0:
            raise ConfigError(f"rate_end must be > 0, got {self.rate_end}")
        if self.pairs_per_request < 1:
            raise ConfigError(
                f"pairs_per_request must be >= 1, got {self.pairs_per_request}"
            )
        if self.clients < 1:
            raise ConfigError(f"clients must be >= 1, got {self.clients}")
        if self.pool is not None and self.pool < 1:
            raise ConfigError(f"pool must be >= 1, got {self.pool}")


def arrival_times(config: LoadgenConfig) -> List[float]:
    """Deterministic modeled arrival time of every request."""
    n = config.requests
    if config.process == "uniform":
        return [i / config.rate for i in range(n)]
    if config.process == "bursty":
        # bursts of `burst` arrive together; burst k lands when a uniform
        # process would have delivered its first member.
        return [(i // config.burst) * (config.burst / config.rate) for i in range(n)]
    # ramp: instantaneous rate climbs linearly rate -> rate_end; each gap
    # is 1/rate_i at the current position along the ramp.
    end = config.rate_end if config.rate_end is not None else 4.0 * config.rate
    times: List[float] = []
    t = 0.0
    for i in range(n):
        times.append(t)
        frac = i / (n - 1) if n > 1 else 0.0
        inst = config.rate + (end - config.rate) * frac
        t += 1.0 / inst
    return times


def build_trace(config: LoadgenConfig):
    """Build the deterministic request trace for a config.

    Returns ``[(arrival_s, AlignRequest), ...]`` sorted by arrival.  The
    pair pool is seeded independently of the draw sequence so changing
    the request count reshuffles draws but not pool contents.
    """
    from repro.serve.service import AlignRequest

    pool_size = (
        config.pool if config.pool is not None else max(1, config.requests // 2)
    )
    pool_rng = random.Random(config.seed * 7919 + 13)
    budget = round(config.error_rate * config.length)
    pool: List[ReadPair] = []
    for _ in range(pool_size):
        pattern = random_sequence(config.length, pool_rng)
        text = mutate_sequence(pattern, budget, pool_rng)
        pool.append(ReadPair(pattern=pattern, text=text, requested_errors=budget))

    draw_rng = random.Random(config.seed)
    times = arrival_times(config)
    trace = []
    for i, when in enumerate(times):
        pairs = tuple(
            pool[draw_rng.randrange(pool_size)]
            for _ in range(config.pairs_per_request)
        )
        request = AlignRequest(
            client=f"c{i % config.clients}", request_id=f"r{i:06d}", pairs=pairs
        )
        trace.append((when, request))
    return trace


@dataclass(frozen=True)
class RequestRecord:
    """Terminal outcome of one replayed request."""

    client: str
    request_id: str
    status: str  # "ok" | "rejected"
    pairs: int
    cached_pairs: int
    arrival_s: float
    completion_s: float
    latency_s: float
    batches: Tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "record": "request",
            "client": self.client,
            "id": self.request_id,
            "status": self.status,
            "pairs": self.pairs,
            "cached_pairs": self.cached_pairs,
            "arrival_s": self.arrival_s,
            "completion_s": self.completion_s,
            "latency_s": self.latency_s,
            "batches": list(self.batches),
        }


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_values:
        raise ServeError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class LoadReport:
    """A replayed trace's full JSONL-serialisable outcome."""

    config: LoadgenConfig
    records: List[RequestRecord]
    stats: dict
    cache: Optional[dict]
    recovery: Optional[dict]
    batches: int = 0
    service_config: dict = field(default_factory=dict)
    #: the evaluated ``repro.obs.slo/v1`` document (``None`` when the
    #: replay ran without a policy) — a pure function of the request
    #: records, recomputed bit-for-bit by :func:`validate_load_report`.
    slo: Optional[dict] = None

    def summary(self) -> dict:
        ok = [r for r in self.records if r.status == "ok"]
        rejected = len(self.records) - len(ok)
        latencies = sorted(r.latency_s for r in ok)
        makespan = max((r.completion_s for r in ok), default=0.0)
        served_pairs = sum(r.pairs for r in ok)
        out = {
            "record": "summary",
            "requests": len(self.records),
            "completed": len(ok),
            "rejected": rejected,
            "pairs_served": served_pairs,
            "cached_pairs": sum(r.cached_pairs for r in ok),
            "batches": self.batches,
            "makespan_s": makespan,
            "throughput_pairs_per_s": (
                served_pairs / makespan if makespan > 0 else 0.0
            ),
            "latency_p50_s": percentile(latencies, 50) if latencies else 0.0,
            "latency_p90_s": percentile(latencies, 90) if latencies else 0.0,
            "latency_p99_s": percentile(latencies, 99) if latencies else 0.0,
            "latency_mean_s": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "latency_max_s": latencies[-1] if latencies else 0.0,
            "cache": self.cache,
            "recovery": self.recovery,
            "slo": self.slo,
        }
        return out

    def to_records(self) -> List[dict]:
        header = {
            "record": "header",
            "schema": REPORT_SCHEMA,
            "config": {
                "requests": self.config.requests,
                "rate": self.config.rate,
                "process": self.config.process,
                "burst": self.config.burst,
                "rate_end": self.config.rate_end,
                "pairs_per_request": self.config.pairs_per_request,
                "clients": self.config.clients,
                "length": self.config.length,
                "error_rate": self.config.error_rate,
                "seed": self.config.seed,
                "pool": self.config.pool,
            },
            "service": self.service_config,
        }
        return [header] + [r.to_dict() for r in self.records] + [self.summary()]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.to_records()) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")


def replay(
    service: "AlignmentService",
    clock: "VirtualClock",
    trace,
    config: LoadgenConfig,
    slo: Optional["SloPolicy"] = None,
) -> LoadReport:
    """Replay a trace against a service on its virtual clock.

    Arrival order is trace order; the clock is advanced to each arrival
    (firing any deadline flushes due in between), the request submitted,
    and at the end the service is drained so every future resolves.
    Requests that terminate exceptionally — admission rejections and
    requests with a pair abandoned by fault recovery — become
    ``"rejected"`` records (stamped with their actual arrival time)
    rather than exceptions.

    With an :class:`~repro.obs.slo.SloPolicy`, the finished record set
    is evaluated into the report's ``slo`` section and each burn-rate
    alert fire/resolve is published as an ``slo_alert`` event into the
    service telemetry's event log.
    """
    futures = []
    for when, request in trace:
        clock.advance_to(when)
        try:
            futures.append((when, request, service.submit(request)))
        except Overloaded:
            futures.append((when, request, None))
    service.drain()

    records: List[RequestRecord] = []
    for when, request, future in futures:
        response = None
        if future is not None:
            try:
                response = future.result()
            except ServeError:
                # a pair abandoned by fault recovery: a terminal
                # rejection decided after admission.
                response = None
        if response is None:
            records.append(
                RequestRecord(
                    client=request.client,
                    request_id=request.request_id,
                    status="rejected",
                    pairs=request.num_pairs,
                    cached_pairs=0,
                    arrival_s=when,
                    completion_s=when,
                    latency_s=0.0,
                    batches=(),
                )
            )
            continue
        records.append(
            RequestRecord(
                client=response.client,
                request_id=response.request_id,
                status="ok",
                pairs=response.num_pairs,
                cached_pairs=sum(response.cached),
                arrival_s=response.arrival_s,
                completion_s=response.completion_s,
                latency_s=response.latency_s,
                batches=response.batches,
            )
        )

    slo_doc: Optional[dict] = None
    if slo is not None:
        from repro.obs.slo import evaluate_slo

        slo_doc = evaluate_slo([r.to_dict() for r in records], slo)
        _publish_slo_alerts(service, slo_doc)

    recovery = (
        service.dispatcher.recovery.to_dict()
        if service.dispatcher.recovery is not None
        else None
    )
    return LoadReport(
        config=config,
        records=records,
        stats=service.stats.to_dict(),
        cache=service.cache.stats.to_dict() if service.cache is not None else None,
        recovery=recovery,
        batches=service.dispatcher.batches_dispatched,
        service_config={
            "max_batch_pairs": service.config.max_batch_pairs,
            "max_wait_s": service.config.max_wait_s,
            "max_queue_pairs": service.config.max_queue_pairs,
            "cache_pairs": service.config.cache_pairs,
            "cache_policy": service.config.cache_policy,
        },
        slo=slo_doc,
    )


def _publish_slo_alerts(service: "AlignmentService", slo_doc: dict) -> None:
    """Publish one ``slo_alert`` event per alert fire and resolve.

    Fires and resolves are interleaved in timeline order (ties broken by
    alert order, fire before resolve at the same instant), so the event
    log reads as the alert history an on-call human would have seen.
    """
    if service.telemetry is None:
        return
    from repro.obs.events import SLO_ALERT

    edges = []
    for i, alert in enumerate(slo_doc["alerts"]):
        window = alert["window"]
        edges.append((alert["fired_t_s"], 0, i, "fire", window, alert["burn_at_fire"]))
        if alert["resolved_t_s"] is not None:
            edges.append((alert["resolved_t_s"], 1, i, "resolve", window, None))
    edges.sort(key=lambda e: (e[0], e[1], e[2]))
    for t, _, _, state, window, burn in edges:
        attrs = {"state": state, "window_s": window["long_s"]}
        if burn is not None:
            attrs["burn"] = burn
        service.telemetry.events.publish(SLO_ALERT, t, **attrs)


def run_load(
    service: "AlignmentService",
    config: LoadgenConfig,
    slo: Optional["SloPolicy"] = None,
) -> LoadReport:
    """Build the trace for ``config`` and replay it on the service.

    The service must have been constructed with a
    :class:`~repro.serve.clock.VirtualClock` (checked).
    """
    from repro.serve.clock import VirtualClock

    if not isinstance(service.clock, VirtualClock):
        raise ServeError("run_load requires a service on a VirtualClock")
    return replay(service, service.clock, build_trace(config), config, slo=slo)


def validate_load_report(source: Union[str, Path, list]) -> dict:
    """Check a load report's schema and internal consistency.

    Accepts a path or pre-parsed records.  Re-derives every count and
    percentile in the summary from the per-request records and raises
    :class:`~repro.errors.ServeError` on any disagreement — the checks
    CI needs to trust a report it did not produce.  Returns the summary.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        try:
            records = [json.loads(line) for line in text.splitlines() if line]
        except json.JSONDecodeError as exc:
            raise ServeError(f"load report is not valid JSONL: {exc}") from exc
    else:
        records = list(source)

    if len(records) < 2:
        raise ServeError("load report needs at least a header and a summary")
    header, *body, summary = records
    if header.get("record") != "header" or header.get("schema") != REPORT_SCHEMA:
        raise ServeError(
            f"bad header: expected schema {REPORT_SCHEMA!r}, got {header!r}"
        )
    if summary.get("record") != "summary":
        raise ServeError("last record must be the summary")

    ok_latencies: List[float] = []
    completed = rejected = pairs_served = cached_pairs = 0
    makespan = 0.0
    for record in body:
        if record.get("record") != "request":
            raise ServeError(
                f"unexpected record between header and summary: {record!r}"
            )
        missing = _REQUEST_KEYS - record.keys()
        if missing:
            raise ServeError(
                f"request record missing keys {sorted(missing)}: {record!r}"
            )
        if record["status"] not in ("ok", "rejected"):
            raise ServeError(f"bad request status: {record!r}")
        if record["status"] == "ok":
            completed += 1
            pairs_served += record["pairs"]
            cached_pairs += record["cached_pairs"]
            ok_latencies.append(record["latency_s"])
            makespan = max(makespan, record["completion_s"])
            if record["latency_s"] < 0:
                raise ServeError(f"negative latency: {record!r}")
        else:
            rejected += 1

    checks = {
        "requests": len(body),
        "completed": completed,
        "rejected": rejected,
        "pairs_served": pairs_served,
        "cached_pairs": cached_pairs,
        "makespan_s": makespan,
    }
    for key, expected in checks.items():
        if summary.get(key) != expected:
            raise ServeError(
                f"summary {key}={summary.get(key)!r} disagrees with request "
                f"records ({expected!r})"
            )
    ok_latencies.sort()
    for key, q in (("latency_p50_s", 50), ("latency_p90_s", 90), ("latency_p99_s", 99)):
        expected = percentile(ok_latencies, q) if ok_latencies else 0.0
        if summary.get(key) != expected:
            raise ServeError(
                f"summary {key}={summary.get(key)!r} disagrees with recomputed "
                f"{expected!r}"
            )
    if summary.get("slo") is not None:
        from repro.obs.slo import recompute_slo

        # bit-for-bit: rebuild the policy from the emitted section and
        # re-evaluate it over the request records; any disagreement on
        # any field (counts, burn alerts, timestamps) raises.
        recompute_slo(body, summary["slo"])
    return summary
