"""Tasklet execution contexts.

A *tasklet* is one of the up-to-24 hardware threads of a DPU.  Tasklets
share the DPU's WRAM, MRAM and DMA engine; the kernel gives each tasklet
a private WRAM slice (via :class:`~repro.pim.allocator.TaskletAllocator`)
so that no inter-thread synchronization is needed — the paper's design:
"each DPU thread aligns multiple read pairs independently from other DPU
threads to avoid the overhead of inter-thread synchronization".

The context accumulates the per-tasklet work totals that the DPU pipeline
model needs (instructions issued, DMA cycles occupied, pairs completed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pim.allocator import TaskletAllocator

__all__ = ["TaskletContext", "TaskletStats"]


@dataclass
class TaskletStats:
    """Work executed by one tasklet over a kernel launch."""

    tasklet_id: int
    instructions: float = 0.0
    dma_cycles: float = 0.0
    dma_transfers: int = 0
    dma_bytes: int = 0
    pairs_done: int = 0
    #: functional WFA totals, kept for reporting / cross-checks
    cells_computed: int = 0
    extend_steps: int = 0

    def add_dma(self, cycles: float, nbytes: int, transfers: int) -> None:
        """Charge one DMA operation of ``transfers`` transfers, ``nbytes`` bytes."""
        self.dma_cycles += cycles
        self.dma_transfers += transfers
        self.dma_bytes += nbytes


@dataclass
class TaskletContext:
    """Private state of one running tasklet."""

    tasklet_id: int
    allocator: TaskletAllocator
    stats: TaskletStats = field(init=False)
    # WRAM buffer addresses, filled by the kernel at setup.
    input_buffer: int = -1
    result_buffer: int = -1
    staging_buffers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.stats = TaskletStats(tasklet_id=self.tasklet_id)
