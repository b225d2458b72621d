"""The MRAM<->WRAM DMA engine of one DPU.

UPMEM tasklets cannot load/store MRAM directly: they issue DMA transfers
(``mram_read``/``mram_write`` in the SDK) with hard restrictions that this
model enforces exactly:

* the MRAM address must be **8-byte aligned**;
* the WRAM address must be 8-byte aligned (the SDK requires the buffer
  to be 8-byte aligned for correctness at all sizes);
* the size must be a **multiple of 8** between **8 and 2048** bytes.

These restrictions are the reason the paper replaces WFA's allocator: a
malloc that hands out unaligned, oddly-sized blocks cannot be staged to
MRAM.  :meth:`DmaEngine.read`/:meth:`DmaEngine.write` raise
:class:`AlignmentFault` on any violation — the simulator fails the same
way the hardware (or its simulator) would.

Each DPU has a single DMA engine shared by all tasklets.  The engine
counts transfers and bytes per DPU and returns each transfer's cycles;
the kernel accumulates cycles per tasklet
(:attr:`~repro.pim.tasklet.TaskletStats.dma_cycles`), and the DPU
timing model treats their sum as one of its bounding terms.

The kernel's records move through :meth:`DmaEngine.read_large` (the
input fetch) and :meth:`DmaEngine.write_large` (the result write-back):
each piece is validated, ticked on the fault hook, bounds-checked and
charged as :meth:`DmaEngine.read`/:meth:`DmaEngine.write` do, but the
bytes pass straight between MRAM and the tasklet, without a copy in the
WRAM array.  That is exact because no fault touches WRAM and a record
buffer is read only by the tasklet that just filled it.  The single
transfers :meth:`DmaEngine.read`/:meth:`DmaEngine.write` still move
their bytes through WRAM.

The kernel's metadata staging is charged in closed form, in two steps:
:func:`plan_staging` derives everything that follows from the block
sizes, use counts, chunk and timing (an immutable :class:`StagingPlan`
that any number of launches may share), and
:meth:`DmaEngine.charge_staging` applies a plan at an address with the
same counters, checks and fault-hook ticks as issuing every transfer,
without copying the scratch bytes no code reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, mul
from typing import Callable, Optional, Sequence

from repro.errors import AlignmentFault
from repro.pim.config import DpuTimingConfig
from repro.pim.memory import Mram, Wram

__all__ = [
    "DMA_MIN",
    "DMA_MAX",
    "DMA_ALIGN",
    "DmaEngine",
    "StagingPlan",
    "aligned_size",
    "dma_pieces",
    "plan_staging",
]

DMA_ALIGN = 8
DMA_MIN = 8
DMA_MAX = 2048


def aligned_size(nbytes: int) -> int:
    """Round ``nbytes`` up to the DMA granularity (multiple of 8)."""
    return (nbytes + DMA_ALIGN - 1) // DMA_ALIGN * DMA_ALIGN


def dma_pieces(nbytes: int, chunk: Optional[int] = None) -> list[int]:
    """Sizes of the transfers that move ``nbytes`` in order.

    ``chunk=None`` splits as :meth:`DmaEngine.read_large` does (pieces of
    up to 2048 bytes); a fixed ``chunk`` splits into ``chunk``-byte
    pieces, the loop around a constant-size WRAM staging buffer.
    """
    step = DMA_MAX if chunk is None else chunk
    whole, rest = divmod(nbytes, step)
    return [step] * whole + [rest] if rest else [step] * whole


@dataclass(frozen=True)
class StagingPlan:
    """The closed-form charge of blocks staged through one WRAM buffer.

    Block ``i`` holds ``sizes[i]`` bytes (a positive multiple of 8) and
    is moved whole ``uses[i]`` times: one stage-out (WRAM -> MRAM), then
    reads back, each move split by :func:`dma_pieces` with ``chunk`` (a
    multiple of 8 in [8, 2048], as
    :class:`~repro.pim.kernel.KernelConfig` ensures, or ``None``).  No
    field depends on an address, so one plan serves every launch that
    stages the same blocks; :meth:`DmaEngine.charge_staging` applies it.
    """

    sizes: tuple[int, ...]
    uses: tuple[int, ...]
    chunk: Optional[int]
    #: cycles of every move of a block, in issue order
    move_cycles: tuple[float, ...]
    transfers: int
    bytes_moved: int
    #: size of the first transfer, which stands for all in validation
    first: int
    #: MRAM bytes the blocks span, and WRAM bytes one move reaches
    extent: int
    reach: int

    def pieces(self) -> list[list[int]]:
        """Transfer sizes of one move of each block."""
        return [dma_pieces(nbytes, self.chunk) for nbytes in self.sizes]


def plan_staging(
    sizes: Sequence[int],
    uses: Sequence[int],
    chunk: Optional[int],
    timing: DpuTimingConfig,
) -> StagingPlan:
    """Plan the staging of blocks ``sizes`` moved ``uses`` times each.

    A move's cycles are the sum of the cycles
    :meth:`DmaEngine.read`/:meth:`DmaEngine.write` charge for its
    pieces, added from 0.0 in order, so summing the plan's tuple in
    order gives exactly the floats of transfer-by-transfer charging.
    The tuple holds one float object per distinct block size.
    """
    step = DMA_MAX if chunk is None else chunk
    per_piece: dict[int, float] = {}
    per_move: dict[int, tuple[int, float]] = {}
    transfers = 0
    move_cycles: list[float] = []
    for nbytes, count in zip(sizes, uses):
        if nbytes not in per_move:
            cycles = [
                per_piece.setdefault(piece, timing.dma_cycles(piece))
                for piece in dma_pieces(nbytes, chunk)
            ]
            per_move[nbytes] = len(cycles), reduce(add, cycles, 0.0)
        pieces, move = per_move[nbytes]
        transfers += pieces * count
        move_cycles.extend((move,) * count)
    widest = max(sizes, default=0)
    return StagingPlan(
        sizes=tuple(sizes),
        uses=tuple(uses),
        chunk=chunk,
        move_cycles=tuple(move_cycles),
        transfers=transfers,
        bytes_moved=sum(map(mul, sizes, uses)),
        first=min(sizes[0], step) if sizes else 0,
        extent=sum(sizes),
        reach=widest if chunk is None else min(widest, step),
    )


class DmaEngine:
    """Per-DPU DMA engine: validates, moves bytes, accounts cycles."""

    def __init__(self, mram: Mram, wram: Wram, timing: DpuTimingConfig) -> None:
        self.mram = mram
        self.wram = wram
        self.timing = timing
        self.transfers = 0
        self.bytes_moved = 0
        #: fault-injection hook: called with the transfer size before any
        #: bytes move; may raise (e.g. a tasklet-stall watchdog trip).
        #: See :class:`repro.pim.faults.FaultInjector`.
        self.fault_hook: "Callable[[int], None] | None" = None

    def _validate(self, mram_addr: int, wram_addr: int, size: int) -> None:
        if mram_addr % DMA_ALIGN != 0:
            raise AlignmentFault(
                f"MRAM address {mram_addr:#x} not {DMA_ALIGN}-byte aligned"
            )
        if wram_addr % DMA_ALIGN != 0:
            raise AlignmentFault(
                f"WRAM address {wram_addr:#x} not {DMA_ALIGN}-byte aligned"
            )
        if size % DMA_ALIGN != 0 or not DMA_MIN <= size <= DMA_MAX:
            raise AlignmentFault(
                f"DMA size {size} invalid: must be a multiple of {DMA_ALIGN} "
                f"in [{DMA_MIN}, {DMA_MAX}]"
            )

    def _charge(self, size: int) -> float:
        self.transfers += 1
        self.bytes_moved += size
        return self.timing.dma_cycles(size)

    def read(self, mram_addr: int, wram_addr: int, size: int) -> float:
        """MRAM -> WRAM transfer; returns the cycles charged."""
        self._validate(mram_addr, wram_addr, size)
        if self.fault_hook is not None:
            self.fault_hook(size)
        data = self.mram.read(mram_addr, size)
        self.wram.write(wram_addr, data)
        return self._charge(size)

    def write(self, wram_addr: int, mram_addr: int, size: int) -> float:
        """WRAM -> MRAM transfer; returns the cycles charged."""
        self._validate(mram_addr, wram_addr, size)
        if self.fault_hook is not None:
            self.fault_hook(size)
        data = self.wram.read(wram_addr, size)
        self.mram.write(mram_addr, data)
        return self._charge(size)

    def read_large(
        self, mram_addr: int, wram_addr: int, size: int
    ) -> tuple[float, bytes]:
        """A record fetch of any 8-aligned size: ``(cycles, bytes)``.

        Mirrors the chunking loop every real DPU program writes around
        ``mram_read`` for buffers above the 2048-byte DMA limit: pieces
        of up to 2048 bytes, each validated, ticked on the fault hook,
        bounds-checked at both ends and charged exactly as :meth:`read`
        does, in that order.  The fetched MRAM bytes go to the caller
        instead of into the :class:`~repro.pim.memory.Wram` array: the
        tasklet that issued the fetch is the only reader of its buffer
        and reads it at once, and no fault touches WRAM, so a copy
        there would only be read back.
        """
        if size % DMA_ALIGN != 0:
            raise AlignmentFault(f"read_large size {size} not a multiple of 8")
        cycles = 0.0
        pieces = []
        done = 0
        for piece in dma_pieces(size):
            self._validate(mram_addr + done, wram_addr + done, piece)
            if self.fault_hook is not None:
                self.fault_hook(piece)
            pieces.append(self.mram.read(mram_addr + done, piece))
            self.wram.check(wram_addr + done, piece)
            cycles += self._charge(piece)
            done += piece
        return cycles, b"".join(pieces)

    def write_large(self, wram_addr: int, mram_addr: int, data: bytes) -> float:
        """The result write-back counterpart of :meth:`read_large`.

        Lands ``data`` (a multiple of 8 bytes) at ``mram_addr`` in pieces
        of up to 2048 bytes, each validated, ticked, bounds-checked at
        its WRAM source and charged exactly as :meth:`write` does; the
        packed record is not staged in the WRAM array first.  Returns
        the cycles charged.
        """
        size = len(data)
        if size % DMA_ALIGN != 0:
            raise AlignmentFault(f"write_large size {size} not a multiple of 8")
        cycles = 0.0
        done = 0
        for piece in dma_pieces(size):
            self._validate(mram_addr + done, wram_addr + done, piece)
            if self.fault_hook is not None:
                self.fault_hook(piece)
            self.wram.check(wram_addr + done, piece)
            self.mram.write(mram_addr + done, data[done : done + piece])
            cycles += self._charge(piece)
            done += piece
        return cycles

    def charge_staging(self, plan: StagingPlan, mram_addr: int, wram_addr: int) -> None:
        """Charge ``plan``'s blocks staged at ``mram_addr`` through ``wram_addr``.

        Block ``i`` lies at ``mram_addr + sum(plan.sizes[:i])``; with
        ``chunk=None`` the WRAM address advances with the MRAM one, as in
        :meth:`write_large` and :meth:`read_large`, otherwise every piece
        goes through the same ``chunk``-byte buffer at ``wram_addr``.

        The counters and the fault hook (one call per transfer with its
        size, in issue order) are exactly those of issuing every
        transfer through :meth:`write` and :meth:`read`, but no bytes
        are copied; the plan's ``move_cycles`` are what those transfers
        would have returned.  The checks are done once: every address
        is the first transfer's plus multiples of 8 and every piece a
        multiple of 8 in [8, 2048], so validating the first transfer
        validates them all; the addresses grow with the block, so the
        bounds hold everywhere when they hold at the ends.  Only when a
        bound fails is the first offending transfer located and issued,
        and it fails as before.  On an error the counters are left
        undefined, as is the launch.
        """
        if not plan.sizes:
            return
        self._validate(mram_addr, wram_addr, plan.first)
        if (
            mram_addr < 0
            or mram_addr + plan.extent > self.mram.capacity
            or wram_addr < 0
            or wram_addr + plan.reach > self.wram.capacity
        ):
            pieces = plan.pieces()
            index, mram_at, wram_at, size = self._first_out_of_bounds(
                mram_addr, wram_addr, pieces, plan.uses, plan.chunk is None
            )
            self._tick(pieces, plan.uses, index)
            self.write(wram_at, mram_at, size)  # fails its bounds check
        if self.fault_hook is not None:
            self._tick(plan.pieces(), plan.uses, None)
        self.transfers += plan.transfers
        self.bytes_moved += plan.bytes_moved

    def _tick(
        self, pieces: list[list[int]], uses: Sequence[int], limit: Optional[int]
    ) -> None:
        """Call the fault hook for the first ``limit`` transfers (all if None)."""
        if self.fault_hook is None:
            return
        sizes = list(chain.from_iterable(map(mul, pieces, uses)))
        for size in sizes[:limit]:
            self.fault_hook(size)

    def _first_out_of_bounds(
        self,
        mram_addr: int,
        wram_addr: int,
        pieces: list[list[int]],
        uses: Sequence[int],
        advance: bool,
    ) -> tuple[int, int, int, int]:
        """``(index, mram, wram, size)`` of the first transfer out of bounds.

        Every move of a block touches the same ranges, so the first
        failure is in a block's first move, the stage-out.
        """
        index = 0
        for block, count in zip(pieces, uses):
            done = 0
            for size in block:
                mram_at = mram_addr + done
                wram_at = wram_addr + done if advance else wram_addr
                if not (
                    0 <= mram_at
                    and mram_at + size <= self.mram.capacity
                    and 0 <= wram_at
                    and wram_at + size <= self.wram.capacity
                ):
                    return index, mram_at, wram_at, size
                done += size
                index += 1
            index += len(block) * (count - 1)
            mram_addr += done
        raise AssertionError("no transfer out of bounds")

    def reset_counters(self) -> None:
        self.transfers = 0
        self.bytes_moved = 0
