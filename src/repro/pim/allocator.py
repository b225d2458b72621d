"""The paper's custom two-level memory allocator.

WFA's reference implementation allocates wavefronts from a growable
malloc-backed arena.  On UPMEM that design is unusable: WRAM is 64 KB
*shared by all tasklets*, MRAM is reachable only through 8-byte-aligned
DMA, and there is no malloc on the DPU.  The paper replaces it with a
custom allocator that (a) hands out 8-byte-aligned blocks so every block
is DMA-able, and (b) places bulk WFA metadata in MRAM, staging it through
small WRAM buffers on demand — which is what "unleashes the maximum
threads" (paper §I).

This module models that allocator faithfully:

* :class:`BumpAllocator` — an 8-byte-aligning bump (arena) allocator over
  an address range; O(1) alloc, whole-arena reset between alignments,
  exactly like the C original's ``mm_allocator`` reset discipline.
  :meth:`BumpAllocator.reserve` allocates a whole run of blocks (one
  alignment's wavefronts) in one bisection with the same bookkeeping.
* :class:`TaskletAllocator` — the per-tasklet view: one WRAM arena (for
  sequence buffers, staging buffers, and — under the ``"wram"`` policy —
  all WFA metadata) and one MRAM arena (bulk metadata under the
  ``"mram"`` policy).

Capacity failures raise :class:`AllocationError`; the kernel-configuration
layer uses them to discover the maximum tasklet count each policy
supports — the trade-off at the heart of the paper's design.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro.errors import AllocationError
from repro.pim.dma import DMA_ALIGN, aligned_size

__all__ = ["BumpAllocator", "TaskletAllocator", "Allocation"]


@dataclass(frozen=True)
class Allocation:
    """One allocated block: space and placement."""

    addr: int
    size: int
    space: str  # "wram" | "mram"


class BumpAllocator:
    """8-byte-aligning bump allocator over ``[base, base + capacity)``."""

    def __init__(self, base: int, capacity: int, space: str) -> None:
        if base % DMA_ALIGN != 0:
            raise AllocationError(
                f"{space} arena base {base:#x} not {DMA_ALIGN}-byte aligned"
            )
        if capacity < 0:
            raise AllocationError(f"{space} arena capacity negative: {capacity}")
        self.base = base
        self.capacity = capacity
        self.space = space
        self.cursor = 0
        self.high_water = 0
        self.allocations = 0

    def alloc(self, nbytes: int) -> Allocation:
        """Allocate ``nbytes`` rounded up to the 8-byte DMA granularity."""
        if nbytes < 0:
            raise AllocationError(f"negative allocation: {nbytes}")
        size = aligned_size(max(nbytes, 1))
        if self.cursor + size > self.capacity:
            raise self.exhausted(size)
        addr = self.base + self.cursor
        self.cursor += size
        self.high_water = max(self.high_water, self.cursor)
        self.allocations += 1
        return Allocation(addr=addr, size=size, space=self.space)

    def reserve(self, ends: Sequence[int]) -> int:
        """Allocate back-to-back blocks as one :meth:`alloc` each.

        ``ends`` are the blocks' running sums (``ends[i]`` bytes hold
        blocks ``0..i``, as :func:`itertools.accumulate` of their sizes
        gives), the sizes already DMA-aligned (positive multiples of 8,
        as :func:`~repro.pim.dma.aligned_size` returns), so one block
        sequence can be booked at any cursor.  Allocates the longest
        prefix that fits, leaving the cursor, ``high_water`` and
        ``allocations`` where that many :meth:`alloc` calls would, and
        returns its length; the first block of the rest is then the one
        :meth:`alloc` would have refused (see :meth:`exhausted`).
        """
        fit = bisect_right(ends, self.capacity - self.cursor)
        if fit:
            self.cursor += ends[fit - 1]
            self.high_water = max(self.high_water, self.cursor)
            self.allocations += fit
        return fit

    def exhausted(self, size: int) -> AllocationError:
        """The error :meth:`alloc` raises when ``size`` bytes do not fit."""
        return AllocationError(
            f"{self.space} arena exhausted: need {size} bytes, "
            f"{self.capacity - self.cursor} of {self.capacity} free"
        )

    def reset(self) -> None:
        """Free everything at once (between alignments)."""
        self.cursor = 0

    @property
    def used(self) -> int:
        return self.cursor

    @property
    def free(self) -> int:
        return self.capacity - self.cursor


class TaskletAllocator:
    """Per-tasklet two-level allocator: a WRAM arena plus an MRAM arena.

    Args:
        wram_base / wram_capacity: this tasklet's slice of the shared
            64 KB WRAM (the DPU-level configuration divides WRAM among
            tasklets; bases must be 8-byte aligned).
        mram_base / mram_capacity: this tasklet's metadata region in MRAM
            (unused — zero capacity — under the ``"wram"`` policy).
        metadata_policy: where :meth:`alloc_metadata` places blocks.
        wram_reserved: ``(bytes, blocks)``: ``blocks`` buffers taking
            ``bytes`` in all, already allocated at the WRAM arena's base
            as that many :meth:`alloc_buffer` calls would leave it (the
            kernel's fixed buffers, laid out once per configuration).
    """

    def __init__(
        self,
        wram_base: int,
        wram_capacity: int,
        mram_base: int,
        mram_capacity: int,
        metadata_policy: str = "mram",
        wram_reserved: tuple[int, int] = (0, 0),
    ) -> None:
        if metadata_policy not in ("mram", "wram"):
            raise AllocationError(f"unknown metadata_policy {metadata_policy!r}")
        self.wram = BumpAllocator(wram_base, wram_capacity, "wram")
        self.mram = BumpAllocator(mram_base, mram_capacity, "mram")
        self.metadata_policy = metadata_policy
        nbytes, blocks = wram_reserved
        if nbytes % DMA_ALIGN or not 0 <= nbytes <= wram_capacity or blocks < 0:
            raise AllocationError(
                f"cannot reserve {blocks} blocks of {nbytes} bytes in a "
                f"{wram_capacity}-byte wram arena"
            )
        self.wram.cursor = self.wram.high_water = nbytes
        self.wram.allocations = blocks

    def alloc_buffer(self, nbytes: int) -> Allocation:
        """Allocate a WRAM working buffer (sequences, staging, results)."""
        return self.wram.alloc(nbytes)

    @property
    def metadata_arena(self) -> BumpAllocator:
        """The arena WFA metadata comes from under the placement policy."""
        return self.wram if self.metadata_policy == "wram" else self.mram

    def alloc_metadata(self, nbytes: int) -> Allocation:
        """Allocate WFA metadata per the configured placement policy."""
        return self.metadata_arena.alloc(nbytes)

    def reset_metadata(self) -> None:
        """Release all per-alignment metadata (between read pairs).

        Under the ``"wram"`` policy metadata shares the WRAM arena with
        long-lived buffers, so the kernel snapshots the arena cursor
        before each alignment and restores it instead; this method only
        resets the MRAM arena.
        """
        self.mram.reset()

    def wram_mark(self) -> int:
        """Snapshot of the WRAM arena cursor (for scoped frees)."""
        return self.wram.cursor

    def wram_release(self, mark: int) -> None:
        """Roll the WRAM arena back to a snapshot."""
        if not 0 <= mark <= self.wram.cursor:
            raise AllocationError(
                f"invalid WRAM release mark {mark} (cursor {self.wram.cursor})"
            )
        self.wram.cursor = mark
