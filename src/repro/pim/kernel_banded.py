"""A banded-DP DPU kernel — the "other alignment algorithm" comparator.

The paper's future work includes "comparing to PIM implementations of
other alignment algorithms"; this kernel provides that comparison point:
classical banded Gotoh DP (see :mod:`repro.baselines.banded`) ported to
the same DPU execution structure as the WFA kernel.

Differences from the WFA kernel that the model captures:

* work is ``O(read_len x band)`` cells regardless of sequence
  similarity, vs WFA's ``O(read_len + score^2)`` — on the paper's
  low-error reads WFA computes an order of magnitude fewer cells;
* the working set is 6 DP rows (M/I/D x 2), which live comfortably in
  WRAM for short reads but scale with read length rather than with
  error rate — so the WRAM-pressure profile differs from WFA's, which
  the tasklet-admission sweep exposes.

Score-only (no traceback): a full-matrix banded traceback would need
``O(n x band)`` MRAM staging; the comparison experiment therefore runs
both kernels in score-only mode, apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.banded import banded_gotoh_score
from repro.core.penalties import AffinePenalties, Penalties
from repro.errors import AlignmentError, KernelError
from repro.pim.allocator import TaskletAllocator
from repro.pim.config import DpuConfig
from repro.pim.dma import aligned_size, dma_pieces
from repro.pim.dpu import Dpu
from repro.pim.layout import MramLayout
from repro.pim.tasklet import TaskletContext, TaskletStats

__all__ = ["BandedKernelConfig", "BandedDpuKernel"]


@dataclass(frozen=True)
class BandedCostModel:
    """Scalar DPU instructions per banded-DP event.

    A banded Gotoh cell updates three matrices: ~3 loads, 6 add/min
    pairs, a char compare and 3 stores — ~22 scalar instructions.
    """

    per_cell: float = 22.0
    per_row_overhead: float = 20.0
    per_pair_overhead: float = 300.0


@dataclass(frozen=True)
class BandedKernelConfig:
    """Static parameters of the banded DPU kernel."""

    penalties: Penalties = field(default_factory=AffinePenalties)
    max_read_len: int = 100
    band: int = 5

    def __post_init__(self) -> None:
        if self.max_read_len < 1:
            raise KernelError(f"max_read_len must be >= 1, got {self.max_read_len}")
        if self.band < 1:
            raise KernelError(f"band must be >= 1, got {self.band}")

    @property
    def row_bytes(self) -> int:
        """One DP row of int32 cells (full width for addressing simplicity)."""
        return aligned_size(4 * (self.max_read_len + 1))

    @property
    def rows_needed(self) -> int:
        """M/I/D x {previous, current}."""
        return 6


class BandedDpuKernel:
    """Banded Gotoh on the simulated DPU (score-only)."""

    def __init__(
        self,
        config: BandedKernelConfig,
        cost_model: BandedCostModel | None = None,
    ) -> None:
        self.config = config
        self.cost_model = cost_model if cost_model is not None else BandedCostModel()

    def input_record_bytes(self) -> int:
        return 8 + 2 * aligned_size(self.config.max_read_len)

    def result_record_bytes(self) -> int:
        return 16  # score + flags, padded

    def wram_bytes_per_tasklet(self) -> int:
        """Fixed per-tasklet WRAM need (buffers + 6 DP rows)."""
        return (
            aligned_size(self.input_record_bytes())
            + aligned_size(self.result_record_bytes())
            + self.config.rows_needed * self.config.row_bytes
        )

    def plan_check(self, dpu_config: DpuConfig, tasklets: int) -> None:
        """Raise :class:`KernelError` if ``tasklets`` do not fit WRAM."""
        if not 1 <= tasklets <= dpu_config.max_tasklets:
            raise KernelError(
                f"tasklets must be in [1, {dpu_config.max_tasklets}], got {tasklets}"
            )
        slice_bytes = (dpu_config.wram_bytes // tasklets) // 8 * 8
        need = self.wram_bytes_per_tasklet()
        if need > slice_bytes:
            raise KernelError(
                f"banded kernel needs {need} B per tasklet; slice is "
                f"{slice_bytes} B at {tasklets} tasklets"
            )

    def max_supported_tasklets(self, dpu_config: DpuConfig) -> int:
        best = 0
        for t in range(1, dpu_config.max_tasklets + 1):
            try:
                self.plan_check(dpu_config, t)
            except KernelError:
                continue
            best = t
        return best

    def cells_for(self, n: int, m: int) -> int:
        """Exact banded cell count (3 matrices per (i, j) position)."""
        band = self.config.band
        positions = 0
        for ii in range(1, n + 1):
            lo = max(1, ii - band)
            hi = min(m, ii + band)
            if hi >= lo:
                positions += hi - lo + 1
        return 3 * positions

    def run(
        self,
        dpu: Dpu,
        layout: MramLayout,
        assignments: list[list[int]],
    ) -> list[TaskletStats]:
        """Run the banded kernel over the assigned input records."""
        tasklets = len(assignments)
        self.plan_check(dpu.config, tasklets)
        if layout.input_record_size > aligned_size(self.input_record_bytes()):
            raise KernelError(
                "layout input records exceed the kernel's input buffer "
                f"({layout.input_record_size} > {self.input_record_bytes()})"
            )
        slice_bytes = (dpu.config.wram_bytes // tasklets) // 8 * 8
        stats_out: list[TaskletStats] = []
        for t, indices in enumerate(assignments):
            alloc = TaskletAllocator(
                wram_base=t * slice_bytes,
                wram_capacity=slice_bytes,
                mram_base=layout.metadata_base,
                mram_capacity=0,
                metadata_policy="wram",
            )
            input_buf = alloc.alloc_buffer(aligned_size(self.input_record_bytes())).addr
            result_buf = alloc.alloc_buffer(
                aligned_size(self.result_record_bytes())
            ).addr
            for _ in range(self.config.rows_needed):
                alloc.alloc_buffer(self.config.row_bytes)
            ctx = TaskletContext(tasklet_id=t, allocator=alloc)
            ctx.input_buffer = input_buf
            ctx.result_buffer = result_buf
            for index in indices:
                self._align_one(dpu, layout, ctx, index)
            stats_out.append(ctx.stats)
        return stats_out

    def _align_one(
        self, dpu: Dpu, layout: MramLayout, ctx: TaskletContext, index: int
    ) -> None:
        size = layout.input_record_size
        cycles, record = dpu.dma.read_large(
            layout.input_addr(index), ctx.input_buffer, size
        )
        ctx.stats.add_dma(cycles, size, len(dma_pieces(size)))
        pair = layout.unpack_pair(record)
        n, m = len(pair.pattern), len(pair.text)
        try:
            score = banded_gotoh_score(
                pair.pattern, pair.text, self.config.penalties, self.config.band
            )
        except AlignmentError as exc:
            raise KernelError(
                f"pair {index} not alignable within band {self.config.band}: {exc}"
            ) from exc
        cells = self.cells_for(n, m)
        cm = self.cost_model
        ctx.stats.instructions += (
            cells * cm.per_cell + n * cm.per_row_overhead + cm.per_pair_overhead
        )
        ctx.stats.cells_computed += cells
        # Result record: score only (no CIGAR in score-only mode).  Only
        # the 16-byte score prefix of the slot is written; the host-side
        # unpack reads the full slot, whose tail stays zero in MRAM.
        out = layout.pack_result(score, None)[: self.result_record_bytes()]
        cycles = dpu.dma.write_large(ctx.result_buffer, layout.result_addr(index), out)
        ctx.stats.add_dma(cycles, len(out), len(dma_pieces(len(out))))
        ctx.stats.pairs_done += 1
