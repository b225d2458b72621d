"""Telemetry exporters: Prometheus text, JSONL manifests, Chrome traces.

Three disk formats, all deterministic for a given telemetry state:

* :func:`write_prometheus` — the registry in Prometheus text exposition
  format (scrape-ready, diff-able);
* :func:`write_manifest_jsonl` — one JSON object per run plus a summary
  line (the "run manifest" downstream analysis jobs consume);
* :func:`write_chrome_trace` / :func:`to_chrome_trace` — the full run in
  Chrome ``trace_event`` JSON: open the file in ``chrome://tracing`` or
  https://ui.perfetto.dev to see transfer_in → launch → kernel →
  transfer_out on the host lane and, per DPU process, every tasklet's
  fetch/align/metadata/writeback phases laid out in model time.

:func:`validate_chrome_trace` checks the trace_event schema (used by
``make trace-demo`` and the tier-1 tests) and raises
:class:`~repro.errors.TelemetryError` on any malformed event.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping

from repro.errors import TelemetryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import RunTelemetry

__all__ = [
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_manifest_jsonl",
    "write_metrics_json",
    "write_prometheus",
]

#: pid of the host/model-timeline process in exported traces; DPU ``d``
#: becomes pid ``DPU_PID_BASE + d``.
HOST_PID = 0
DPU_PID_BASE = 1
#: synthetic tid carrying the whole-DPU kernel span next to tasklet lanes.
DPU_TOTAL_TID = 999


def _us(seconds: float) -> float:
    return seconds * 1e6


def to_chrome_trace(telemetry: "RunTelemetry") -> dict:
    """Render the telemetry's run segments as a Chrome trace document.

    Every event is a "complete" (``ph: "X"``) event placed on the model
    timeline: host sections on pid 0, each simulated DPU as its own
    process with one thread per tasklet (phase spans from the kernel
    trace, durations = cycles × seconds-per-cycle × the run's sampling
    scale factor) plus a synthetic "kernel total" lane.  A federated
    fleet telemetry adds shard ``k``'s runs on host thread ``1 + k`` and
    its DPUs under their federated ids (pid ``DPU_PID_BASE +
    k * dpus_per_shard + d``).
    """
    events: list[dict] = []
    seen_pids: dict[int, str] = {HOST_PID: "host"}
    seen_tids: dict[tuple[int, int], str] = {(HOST_PID, 0): "model timeline"}
    lanes = [(telemetry, 0, {})] + [
        (shard, 1 + k, {"shard": k}) for k, shard in sorted(telemetry.shards.items())
    ]
    runs = 0
    for lane, host_tid, lane_args in lanes:
        runs += len(lane.segments)
        if lane.segments and host_tid:
            seen_tids[(HOST_PID, host_tid)] = f"shard {host_tid - 1} model timeline"
        for seg in lane.segments:
            r = seg.result
            run_args = {"run": seg.index, "kind": seg.kind, **lane_args}
            events.append(
                {
                    "name": "run",
                    "cat": "host",
                    "ph": "X",
                    "ts": _us(seg.model_start),
                    "dur": _us(r.total_seconds),
                    "pid": HOST_PID,
                    "tid": host_tid,
                    "args": dict(run_args, num_pairs=r.num_pairs),
                }
            )
            t = seg.model_start
            for name, dur in (
                ("transfer_in", r.transfer_in_seconds),
                ("launch", r.launch_seconds),
                ("kernel", r.kernel_seconds),
                ("transfer_out", r.transfer_out_seconds),
            ):
                events.append(
                    {
                        "name": name,
                        "cat": "host",
                        "ph": "X",
                        "ts": _us(t),
                        "dur": _us(dur),
                        "pid": HOST_PID,
                        "tid": host_tid,
                        "args": dict(run_args),
                    }
                )
                t += dur

            kernel_start = seg.kernel_start
            scale = r.scale_factor
            for stats in r.per_dpu:
                dpu = lane.dpu_offset + stats.dpu_id
                pid = DPU_PID_BASE + dpu
                seen_pids.setdefault(pid, f"dpu {dpu}")
                seen_tids.setdefault((pid, DPU_TOTAL_TID), "kernel total")
                events.append(
                    {
                        "name": "dpu_kernel",
                        "cat": "kernel",
                        "ph": "X",
                        "ts": _us(kernel_start),
                        "dur": _us(stats.seconds),
                        "pid": pid,
                        "tid": DPU_TOTAL_TID,
                        "args": dict(
                            run_args,
                            bound=stats.bound,
                            pairs_done=stats.pairs_done,
                        ),
                    }
                )
            # Per-tasklet phase spans: each tasklet's events run back to
            # back from the kernel start, in trace order (the kernel is
            # cycle-serial per tasklet, so this is its modeled schedule).
            cursors: dict[tuple[int, int], float] = {}
            for e in seg.trace.events:
                dpu = lane.dpu_offset + e.dpu_id
                pid = DPU_PID_BASE + dpu
                seen_pids.setdefault(pid, f"dpu {dpu}")
                seen_tids.setdefault((pid, e.tasklet_id), f"tasklet {e.tasklet_id}")
                key = (pid, e.tasklet_id)
                start = cursors.get(key, kernel_start)
                dur = e.cycles * seg.seconds_per_cycle * scale
                args = dict(run_args, pair=e.pair_index)
                if e.detail:
                    args["detail"] = e.detail
                events.append(
                    {
                        "name": e.phase,
                        "cat": "tasklet",
                        "ph": "X",
                        "ts": _us(start),
                        "dur": _us(dur),
                        "pid": pid,
                        "tid": e.tasklet_id,
                        "args": args,
                    }
                )
                cursors[key] = start + dur

    # Structured events become instant-event annotations on the host
    # lane: the trace then shows *why* a lane changed shape (a breaker
    # opened, the watchdog tripped, a journaled round was spliced in)
    # right where it happened on the model timeline.
    annotations: list[dict] = []
    for record in telemetry.event_records()[1:]:
        annotations.append(
            {
                "name": record["kind"],
                "cat": "annotation",
                "ph": "i",
                "s": "g",  # global scope: draw the line across all lanes
                "ts": _us(record["t_s"]),
                "pid": HOST_PID,
                "tid": 0,
                "args": dict(record["attrs"], seq=record["seq"]),
            }
        )

    meta: list[dict] = []
    for pid in sorted(seen_pids):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": seen_pids[pid]},
            }
        )
    for pid, tid in sorted(seen_tids):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": seen_tids[(pid, tid)]},
            }
        )
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], e["name"]))
    # annotations keep publish order (ts ties broken by seq already).
    return {
        "traceEvents": meta + events + annotations,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "runs": runs,
            "model_seconds_total": telemetry.model_seconds_total,
            "annotations": len(annotations),
        },
    }


def validate_chrome_trace(doc: Mapping) -> int:
    """Validate a Chrome ``trace_event`` document; returns the number of
    duration ("X") events.  Raises :class:`TelemetryError` on schema
    violations."""
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        raise TelemetryError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise TelemetryError("trace document must have a 'traceEvents' list")
    duration_events = 0
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in ("X", "M", "B", "E", "i"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(e.get("name"), str) or not e["name"]:
            problems.append(f"{where}: missing name")
        for k in ("pid", "tid"):
            if not isinstance(e.get(k), int):
                problems.append(f"{where}: {k} must be an integer")
        if ph == "X":
            duration_events += 1
            ts, dur = e.get("ts"), e.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a number >= 0")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a number >= 0")
        elif ph == "M":
            if e.get("name") not in ("process_name", "thread_name"):
                problems.append(f"{where}: unknown metadata event {e.get('name')!r}")
            elif not isinstance(e.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata event needs args.name")
        if "args" in e and not isinstance(e["args"], dict):
            problems.append(f"{where}: args must be an object")
    if problems:
        raise TelemetryError(
            "invalid Chrome trace:\n  " + "\n  ".join(problems[:20])
        )
    return duration_events


def write_chrome_trace(path: str, telemetry: "RunTelemetry") -> dict:
    """Validate and write the Chrome trace; returns the document."""
    doc = to_chrome_trace(telemetry)
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def write_prometheus(path: str, registry: "MetricsRegistry") -> None:
    with open(path, "w") as fh:
        fh.write(registry.render_prometheus())


def write_manifest_jsonl(path: str, telemetry: "RunTelemetry") -> None:
    """One JSON line per run, then a summary line with the metrics."""
    rows = telemetry.run_rows()
    rows.append(
        {
            "type": "summary",
            "runs": len(rows),
            "model_seconds_total": telemetry.model_seconds_total,
            "metrics": telemetry.federated_registry().to_dict(),
        }
    )
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_events_jsonl(path: str, telemetry: "RunTelemetry") -> int:
    """The telemetry's (federated) event log as validated JSONL; returns
    the number of events written."""
    from repro.obs.events import validate_event_log

    records = telemetry.event_records()
    validate_event_log(records)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(records) - 1


def write_metrics_json(path: str, telemetry: "RunTelemetry") -> None:
    with open(path, "w") as fh:
        json.dump(telemetry.metrics_document(), fh, indent=1, sort_keys=True)
        fh.write("\n")
