"""Run telemetry: ties the metrics registry, profiler, and kernel traces
to the PIM execution path.

One :class:`RunTelemetry` accompanies a :class:`~repro.pim.system.PimSystem`
(and the :class:`~repro.pim.scheduler.BatchScheduler` round step above
it) for the lifetime of a workload.  The system calls back into it:

* its :attr:`~RunTelemetry.registry` — the system's deterministic
  ``dpu_id``-ordered merge counts each DPU job's kernel and transfer
  metrics from the job's record (parallel ≡ sequential: records are
  produced by the same per-DPU code on both paths and counted in the
  same order);
* :meth:`on_run` — after each ``align``/``model_run``, the run's
  sections are laid out on the **model timeline** (transfer_in →
  launch → kernel (per-DPU children) → transfer_out), counters and
  histograms are updated, and the run's merged
  :class:`~repro.pim.trace.KernelTrace` is kept as a
  :class:`RunSegment` for the Chrome-trace exporter.

Successive runs (e.g. a fleet shard's rounds) stack serially on the model
timeline, so a multi-round workload opens in Perfetto as one
contiguous picture.

**Federation**: a multi-shard :class:`~repro.pim.fleet.FleetCoordinator`
hangs one child telemetry per shard under the caller's
(:meth:`RunTelemetry.add_shard`).  :meth:`~RunTelemetry.reconcile`, the
run manifest, :meth:`~RunTelemetry.federated_registry`,
:meth:`~RunTelemetry.event_records` and every exporter then cover the
children too.  A one-shard fleet reports straight into the caller's
telemetry and adds no child, so its documents are exactly the unsharded
ones.

The **reconciliation invariant** (:meth:`RunTelemetry.reconcile`): for
every run, the profiler's per-section model spans must sum to the
timing model's ``total_seconds``, and the kernel span must equal
``kernel_seconds`` — the spans are the attribution the paper's
Total-vs-Kernel claims rest on, so they must never drift from the
numbers the model reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import TelemetryError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.pim.trace import KernelTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pim.system import PimRunResult

__all__ = ["RunSegment", "RunTelemetry", "SECTIONS"]

#: the model-timeline sections of one run, in execution order.
SECTIONS = ("transfer_in", "launch", "kernel", "transfer_out")


@dataclass
class RunSegment:
    """One run's placement on the model timeline plus its kernel trace."""

    index: int
    kind: str  # "align" | "model_run"
    result: "PimRunResult"
    trace: KernelTrace
    model_start: float
    #: seconds per DPU cycle (converts trace event cycles to seconds).
    seconds_per_cycle: float

    @property
    def kernel_start(self) -> float:
        r = self.result
        return self.model_start + r.transfer_in_seconds + r.launch_seconds


class RunTelemetry:
    """Metrics + profiler + trace segments for one workload."""

    def __init__(self, events: Optional[EventLog] = None) -> None:
        self.registry = MetricsRegistry()
        self.profiler = Profiler()
        #: structured decision record (breaker flips, watchdog trips,
        #: journal replays, ...) — publishers all sit host-side, so the
        #: stream is byte-identical across worker counts.
        self.events = events if events is not None else EventLog()
        self.segments: list[RunSegment] = []
        self._cursor = 0.0  # model-time offset of the next run
        #: child telemetries of a multi-shard fleet, by shard id
        self.shards: dict[int, "RunTelemetry"] = {}
        #: federated id of this telemetry's DPU 0 (shard ``k`` of a fleet
        #: starts at ``k * dpus_per_shard``)
        self.dpu_offset = 0

        reg = self.registry
        self._runs = reg.counter("pim_runs_total", "kernel launches by entry point")
        self._pairs = reg.counter("pim_pairs_total", "modeled workload pairs")
        self._pairs_sim = reg.counter(
            "pim_pairs_simulated_total", "functionally simulated pairs"
        )
        self._model_seconds = reg.counter(
            "pim_model_seconds_total", "modeled seconds by run section"
        )
        self._model_bytes = reg.counter(
            "pim_model_bytes_total", "modeled full-system host transfer bytes"
        )
        self._dpu_kernel_seconds = reg.histogram(
            "pim_dpu_kernel_seconds", "per-DPU modeled kernel seconds"
        )

    # -- federation ----------------------------------------------------------

    def add_shard(self, shard_id: int, dpu_offset: int) -> "RunTelemetry":
        """A fresh child telemetry for one fleet shard, federated here."""
        if shard_id in self.shards:
            # a second fleet on this telemetry would silently orphan the
            # first fleet's shard from every export
            raise TelemetryError(
                f"shard {shard_id} already federates into this telemetry; "
                f"give each fleet its own RunTelemetry"
            )
        child = RunTelemetry()
        child.dpu_offset = dpu_offset
        self.shards[shard_id] = child
        return child

    def federated_registry(self) -> MetricsRegistry:
        """This registry merged with every shard's: counters and
        histograms sum, gauges keep the max (order-independent)."""
        if not self.shards:
            return self.registry
        merged = MetricsRegistry()
        for telemetry in (self, *self.shards.values()):
            merged.merge_snapshot(telemetry.registry.snapshot())
        return merged

    def event_records(self) -> list[dict]:
        """Federated event-log document: header plus every event.

        Shard events gain a ``shard`` attribute; this telemetry's own
        events (serve decisions, rebalances, the transport) carry none.
        The merged stream is ordered by ``(t_s, shard, seq)`` and
        re-sequenced, so it validates under
        :func:`~repro.obs.events.validate_event_log` and is
        deterministic regardless of shard completion order.
        """
        if not self.shards:
            return self.events.to_records()
        tagged = [
            (event.t_s, -1, event.seq, event.kind, dict(event.attrs))
            for event in self.events.events()
        ]
        for k, shard in self.shards.items():
            tagged.extend(
                (event.t_s, k, event.seq, event.kind, dict(event.attrs, shard=k))
                for event in shard.events.events()
            )
        tagged.sort(key=lambda item: item[:3])
        merged = EventLog(capacity=len(tagged) + 1)
        for t_s, _shard, _seq, kind, attrs in tagged:
            merged.publish(kind, t_s, **attrs)
        return merged.to_records()

    # -- ingest --------------------------------------------------------------

    def on_run(
        self,
        kind: str,
        result: "PimRunResult",
        trace: Optional[KernelTrace] = None,
        seconds_per_cycle: float = 0.0,
    ) -> RunSegment:
        """Account one completed run and advance the model timeline."""
        index = len(self.segments)
        start = self._cursor
        prof = self.profiler
        with prof.model_span(
            "run", start, result.total_seconds, kind=kind, run=index
        ):
            t = start
            for section in SECTIONS:
                dur = getattr(result, f"{section}_seconds")
                if section == "kernel":
                    with prof.model_span(section, t, dur, run=index):
                        for stats in result.per_dpu:
                            prof.add_model_span(
                                "dpu_kernel",
                                t,
                                stats.seconds,
                                run=index,
                                dpu=stats.dpu_id,
                            )
                else:
                    prof.add_model_span(section, t, dur, run=index)
                t += dur

        segment = RunSegment(
            index=index,
            kind=kind,
            result=result,
            trace=trace if trace is not None else KernelTrace(),
            model_start=start,
            seconds_per_cycle=seconds_per_cycle,
        )
        self.segments.append(segment)
        self._cursor += result.total_seconds
        self._runs.inc(kind=kind)
        self._pairs.inc(result.num_pairs, kind=kind)
        self._pairs_sim.inc(result.pairs_simulated, kind=kind)
        for section in SECTIONS:
            self._model_seconds.inc(
                getattr(result, f"{section}_seconds"), section=section
            )
        self._model_bytes.inc(result.bytes_in, direction="to_dpu")
        self._model_bytes.inc(result.bytes_out, direction="from_dpu")
        for stats in result.per_dpu:
            self._dpu_kernel_seconds.observe(stats.seconds)
        return segment

    # -- invariants ----------------------------------------------------------

    @property
    def model_seconds_total(self) -> float:
        """Model time covered by all recorded runs, shards included."""
        return self._cursor + sum(
            shard.model_seconds_total for shard in self.shards.values()
        )

    def reconcile(self, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> dict:
        """Check span totals against the timing model; raise on drift.

        For every run: the four section spans must sum to the run's
        ``total_seconds``, and the kernel span must equal
        ``kernel_seconds``.  Across runs, the ``run`` spans must sum to
        the timeline cursor.  Every shard reconciles the same way.
        Returns a summary dict on success.
        """
        problems: list[str] = []
        prof = self.profiler
        for seg in self.segments:
            sections = sum(
                prof.model_seconds(name, run=seg.index) for name in SECTIONS
            )
            total = seg.result.total_seconds
            if not math.isclose(sections, total, rel_tol=rel_tol, abs_tol=abs_tol):
                problems.append(
                    f"run {seg.index}: section spans sum to {sections!r} but "
                    f"the timing model reports total_seconds={total!r}"
                )
            kernel = prof.model_seconds("kernel", run=seg.index)
            if not math.isclose(
                kernel, seg.result.kernel_seconds, rel_tol=rel_tol, abs_tol=abs_tol
            ):
                problems.append(
                    f"run {seg.index}: kernel span {kernel!r} != "
                    f"kernel_seconds {seg.result.kernel_seconds!r}"
                )
        run_total = prof.model_seconds("run")
        if not math.isclose(
            run_total, self._cursor, rel_tol=rel_tol, abs_tol=abs_tol
        ):
            problems.append(
                f"run spans sum to {run_total!r} but the model timeline "
                f"cursor is {self._cursor!r}"
            )
        if problems:
            raise TelemetryError(
                "telemetry reconciliation failed:\n  " + "\n  ".join(problems)
            )
        runs = len(self.segments)
        for shard in self.shards.values():
            runs += shard.reconcile(rel_tol, abs_tol)["runs"]
        return {
            "runs": runs,
            "model_seconds": self.model_seconds_total,
        }

    # -- documents -----------------------------------------------------------

    def run_rows(self) -> list[dict]:
        """One flat dict per run (JSONL manifest rows); shard runs follow,
        tagged with their ``shard``."""
        rows = []
        for seg in self.segments:
            r = seg.result
            rows.append(
                {
                    "type": "run",
                    "index": seg.index,
                    "kind": seg.kind,
                    "model_start": seg.model_start,
                    "num_pairs": r.num_pairs,
                    "pairs_simulated": r.pairs_simulated,
                    "tasklets": r.tasklets,
                    "metadata_policy": r.metadata_policy,
                    "kernel_seconds": r.kernel_seconds,
                    "transfer_in_seconds": r.transfer_in_seconds,
                    "transfer_out_seconds": r.transfer_out_seconds,
                    "launch_seconds": r.launch_seconds,
                    "total_seconds": r.total_seconds,
                    "bytes_in": r.bytes_in,
                    "bytes_out": r.bytes_out,
                    "scale_factor": r.scale_factor,
                    "trace_events": len(seg.trace.events),
                }
            )
        for k, shard in self.shards.items():
            rows.extend(dict(row, shard=k) for row in shard.run_rows())
        return rows

    def profile_totals(self) -> dict[str, dict[str, float]]:
        """:meth:`~repro.obs.profiler.Profiler.totals`, summed over shards."""
        totals = self.profiler.totals()
        for shard in self.shards.values():
            for name, agg in shard.profile_totals().items():
                mine = totals.setdefault(name, dict.fromkeys(agg, 0))
                for key, value in agg.items():
                    mine[key] += value
        return {name: totals[name] for name in sorted(totals)}

    def metrics_document(self) -> dict:
        """JSON-ready document: metrics + profile totals + run manifest."""
        return {
            "schema": "repro.obs/v1",
            "model_seconds_total": self.model_seconds_total,
            "runs": self.run_rows(),
            "profile": self.profile_totals(),
            "metrics": self.federated_registry().to_dict(),
        }
