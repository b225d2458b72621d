"""Unified telemetry for the PIM stack: metrics, profiling, exporters.

The paper's headline numbers are *attribution* claims — how much of a
run is kernel vs transfer vs launch, and how each kernel splits across
fetch/align/metadata/writeback.  ``repro.obs`` makes that attribution a
first-class, exportable artifact instead of something recomputed by
hand:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters / gauges
  / histograms with labels, deterministic Prometheus-text and JSON
  rendering, and picklable snapshots that merge deterministically
  (workers on the host-parallel path report through these);
* :class:`~repro.obs.profiler.Profiler` — nested spans over both host
  wall time and modeled time;
* :class:`~repro.obs.telemetry.RunTelemetry` — binds both to a
  :class:`~repro.pim.system.PimSystem`, collects per-run kernel traces,
  and enforces the reconciliation invariant (span totals == the timing
  model's ``total_seconds``);
* :mod:`~repro.obs.export` — Prometheus text, JSONL run manifests, and
  Chrome ``trace_event`` JSON for ``chrome://tracing`` / Perfetto;
* :class:`~repro.obs.events.EventLog` — the bounded, deterministic
  structured event log (breaker transitions, watchdog trips, journal
  replays, fallback edges, SLO alerts);
* :mod:`~repro.obs.slo` — declarative latency/error-budget SLOs with
  multi-window burn-rate alerting on the virtual clock;
* :mod:`~repro.obs.bench` — the perf ledger: registered scenarios,
  schema-versioned ``BENCH_ledger.json`` records, and the
  ``repro bench compare`` regression gate.

See ``docs/observability.md`` for the metrics catalog and
``docs/perf-ledger.md`` for the ledger workflow.
"""

from repro.obs.bench import (
    LEDGER_SCHEMA,
    GateFailure,
    ScenarioResult,
    append_records,
    compare,
    config_fingerprint,
    latest_by_scenario,
    load_ledger,
    run_scenarios,
    scenario,
    scenario_names,
    validate_record,
)
from repro.obs.events import (
    EVENT_KINDS,
    EVENTS_SCHEMA,
    Event,
    EventLog,
    validate_event_log,
)
from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_manifest_jsonl,
    write_metrics_json,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_MAX_SERIES_PER_FAMILY,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.profiler import Profiler, SpanRecord
from repro.obs.slo import (
    SLO_SCHEMA,
    BurnWindow,
    SloAlert,
    SloPolicy,
    evaluate_slo,
    recompute_slo,
)
from repro.obs.telemetry import SECTIONS, RunSegment, RunTelemetry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_MAX_SERIES_PER_FAMILY",
    "Event",
    "EventLog",
    "EVENT_KINDS",
    "EVENTS_SCHEMA",
    "validate_event_log",
    "BurnWindow",
    "SloAlert",
    "SloPolicy",
    "SLO_SCHEMA",
    "evaluate_slo",
    "recompute_slo",
    "LEDGER_SCHEMA",
    "GateFailure",
    "ScenarioResult",
    "append_records",
    "compare",
    "config_fingerprint",
    "latest_by_scenario",
    "load_ledger",
    "run_scenarios",
    "scenario",
    "scenario_names",
    "validate_record",
    "Profiler",
    "SpanRecord",
    "RunSegment",
    "RunTelemetry",
    "SECTIONS",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_manifest_jsonl",
    "write_metrics_json",
    "write_prometheus",
]
