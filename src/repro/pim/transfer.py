"""Host<->DPU transfer engine.

Models the paper's host loop: "one CPU thread distributes read pairs
evenly across DPU MRAMs using parallel data transfers ... when the DPUs
complete, the CPU thread transfers the results back from the DPU MRAMs."

Functionally, :meth:`HostTransferEngine.push_batch` packs pair records and
writes them (plus the layout header) into a simulated DPU's MRAM, and
:meth:`HostTransferEngine.pull_results_full` parses result records back
out — so the integration tests can verify that scores/CIGARs survive the
full round trip through the memory system.

For timing, transfers to/from *all* DPUs proceed in parallel across
ranks; the model divides total bytes by the configured effective
aggregate bandwidth (see :class:`~repro.pim.config.HostTransferConfig`
for why "effective" != PrIM's peak).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.cigar import Cigar
from repro.data.generator import ReadPair
from repro.errors import CorruptResultError, LayoutError
from repro.pim.config import HostTransferConfig
from repro.pim.dpu import Dpu
from repro.pim.layout import HEADER_BYTES, MramLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.pim.faults import FaultInjector

__all__ = ["HostTransferEngine", "TransferStats"]


@dataclass
class TransferStats:
    """Bytes actually moved to/from the simulated DPUs."""

    bytes_to_dpu: int = 0
    bytes_from_dpu: int = 0
    pushes: int = 0
    pulls: int = 0

    def merge(self, other: "TransferStats") -> None:
        """Fold another engine's counters in (parallel-run merge path)."""
        self.bytes_to_dpu += other.bytes_to_dpu
        self.bytes_from_dpu += other.bytes_from_dpu
        self.pushes += other.pushes
        self.pulls += other.pulls


class HostTransferEngine:
    """Functional copies + aggregate-bandwidth timing.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached, every
    functional push/pull, and every other engine's push/pull folded in
    by :meth:`absorb`, also counts into ``pim_transfer_bytes_total`` (by
    direction) and ``pim_transfer_ops_total`` (by op) — the engine-level
    view the telemetry layer aggregates across DPU jobs.
    """

    def __init__(
        self,
        config: HostTransferConfig,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.stats = TransferStats()
        #: optional :class:`~repro.pim.faults.FaultInjector` for the DPU
        #: this engine is currently copying to/from.  When set, pushes and
        #: pulls honor its truncation budgets, apply its MRAM corruption
        #: windows, and surface parse failures as typed
        #: :class:`~repro.errors.CorruptResultError`\ s.
        self.injector: Optional["FaultInjector"] = None
        self._bytes_metric = (
            registry.counter(
                "pim_transfer_bytes_total",
                "host<->DPU record bytes actually copied",
            )
            if registry is not None
            else None
        )
        self._ops_metric = (
            registry.counter(
                "pim_transfer_ops_total", "host<->DPU batch copy operations"
            )
            if registry is not None
            else None
        )

    def _observe(self, direction: str, op: str, nbytes: int, ops: int = 1) -> None:
        if self._bytes_metric is not None:
            self._bytes_metric.inc(nbytes, direction=direction)
            self._ops_metric.inc(ops, op=op)

    def absorb(self, stats: TransferStats) -> None:
        """Fold another engine's counters in (a DPU job's, on merge), and
        count them as that engine's own copies would have been counted."""
        self.stats.merge(stats)
        if stats.pushes:
            self._observe("to_dpu", "push", stats.bytes_to_dpu, stats.pushes)
        if stats.pulls:
            self._observe("from_dpu", "pull", stats.bytes_from_dpu, stats.pulls)

    # -- functional ------------------------------------------------------

    def push_batch(
        self, dpu: Dpu, layout: MramLayout, pairs: list[ReadPair]
    ) -> int:
        """Write header + input records into ``dpu``'s MRAM; returns bytes.

        The records are one contiguous region, written in one copy.
        Under a truncation budget the whole records that fit it land,
        then the push fails typed.
        """
        if len(pairs) > layout.num_pairs:
            raise LayoutError(
                f"batch of {len(pairs)} pairs exceeds layout capacity "
                f"{layout.num_pairs}"
            )
        limit = self.injector.push_limit() if self.injector is not None else None
        size = layout.input_record_size
        total = HEADER_BYTES + len(pairs) * size
        if limit is not None and limit < HEADER_BYTES:
            raise self.injector.truncated("push", 0, total)
        layout.write_header(dpu.mram)
        fit = len(pairs)
        if limit is not None:
            fit = min(fit, (limit - HEADER_BYTES) // size)
        # The first record past the budget is still packed, so a record
        # that does not fit its slot fails before the truncation does.
        records = b"".join(map(layout.pack_pair, pairs[: fit + 1]))
        if fit:
            dpu.mram.host_write(layout.input_base, records[: fit * size])
        moved = HEADER_BYTES + fit * size
        if fit < len(pairs):
            # Partial copy landed; account what moved, then fail typed.
            self.stats.bytes_to_dpu += moved
            self._observe("to_dpu", "push", moved)
            raise self.injector.truncated("push", moved, total)
        if self.injector is not None:
            self.injector.after_push(dpu, layout)
        self.stats.bytes_to_dpu += moved
        self.stats.pushes += 1
        self._observe("to_dpu", "push", moved)
        return moved

    def pull_results_full(
        self, dpu: Dpu, layout: MramLayout, count: int
    ) -> tuple[list[tuple[int, Cigar | None, int, int]], int]:
        """Read ``count`` result records from ``dpu``'s MRAM.

        Returns ``(results, bytes_moved)`` with results in record order,
        each ``(score, cigar, pattern_start, text_start)``: the record's
        alignment and its aligned-region starts.  The records are one
        contiguous region, read in one copy and parsed in record order.
        Under a truncation budget the whole records that fit it are read
        and parsed (a parse failure among them wins), then the pull
        fails typed.
        """
        if count > layout.num_pairs:
            raise LayoutError(
                f"cannot pull {count} results from a layout of {layout.num_pairs}"
            )
        limit = self._before_pull(dpu, layout)
        size = layout.result_record_size
        fit = count if limit is None else min(count, limit // size)
        data = dpu.mram.host_read(layout.output_base, fit * size) if fit else b""
        results = []
        for index, at in enumerate(range(0, fit * size, size)):
            record = data[at : at + size]
            results.append(
                (
                    *self._unpack(layout, record, index),
                    *layout.unpack_result_region(record),
                )
            )
        moved = fit * size
        self.stats.bytes_from_dpu += moved
        self._observe("from_dpu", "pull", moved)
        if fit < count:
            raise self.injector.truncated("pull", moved, count * size)
        self.stats.pulls += 1
        return results, count * size

    # -- fault-aware pull plumbing ------------------------------------------

    def _before_pull(self, dpu: Dpu, layout: MramLayout) -> Optional[int]:
        """Apply pre-pull corruption; return the pull byte budget.

        Under injection the gather also re-parses the MRAM layout header
        and checks it against the layout this engine pushed — a rotted
        header means the whole result region is untrustworthy, so the
        pull fails typed before a single record is read.
        """
        if self.injector is None:
            return None
        self.injector.before_pull(dpu, layout)
        try:
            echoed = MramLayout.read_header(dpu.mram)
        except LayoutError as exc:
            raise CorruptResultError(
                f"MRAM layout header failed to parse: {exc}",
                dpu_id=self.injector.dpu_id,
            ) from exc
        if echoed != layout:
            raise CorruptResultError(
                "MRAM layout header does not match the pushed layout",
                dpu_id=self.injector.dpu_id,
            )
        return self.injector.pull_limit()

    def _unpack(self, layout: MramLayout, record: bytes, index: int):
        """Parse one result record; typed error under fault injection.

        Without an injector this is plain :meth:`MramLayout.unpack_result`
        (parse failures stay :class:`~repro.errors.LayoutError`, a
        programming-error signal).  With one attached, a parse failure
        means injected corruption landed in the record header, so it
        surfaces as :class:`~repro.errors.CorruptResultError` — typed,
        catchable, retryable.
        """
        if self.injector is None:
            return layout.unpack_result(record)
        try:
            return layout.unpack_result(record)
        except LayoutError as exc:
            raise CorruptResultError(
                f"result record {index} failed to parse: {exc}",
                dpu_id=self.injector.dpu_id,
            ) from exc

    # -- timing ------------------------------------------------------------

    def to_dpu_seconds(self, total_bytes: int, num_ranks: int = 0) -> float:
        """Modeled wall time for a parallel CPU->DPU push of ``total_bytes``.

        Bound by the larger of the aggregate-bandwidth time and (when
        ``num_ranks`` is given) the per-rank time — few-rank systems are
        rank-bandwidth-bound, full systems aggregate-bound.
        """
        aggregate = total_bytes / self.config.effective_to_dpu_bytes_per_s
        if num_ranks <= 0:
            return aggregate
        per_rank = (total_bytes / num_ranks) / self.config.per_rank_to_dpu_bytes_per_s
        return max(aggregate, per_rank)

    def from_dpu_seconds(self, total_bytes: int, num_ranks: int = 0) -> float:
        """Modeled wall time for a parallel DPU->CPU pull of ``total_bytes``."""
        aggregate = total_bytes / self.config.effective_from_dpu_bytes_per_s
        if num_ranks <= 0:
            return aggregate
        per_rank = (
            total_bytes / num_ranks
        ) / self.config.per_rank_from_dpu_bytes_per_s
        return max(aggregate, per_rank)

    def launch_seconds(self) -> float:
        """Fixed software launch overhead per kernel invocation."""
        return self.config.launch_overhead_s
