"""Byte-accurate simulated DPU memories.

Two memory spaces per DPU, as on real UPMEM hardware:

* :class:`Wram` — the 64 KB SRAM scratchpad.  Load/store accessible by
  tasklets (modelled with :meth:`read`/:meth:`write`); shared by all
  tasklets of a DPU, which is why the paper cannot keep per-thread WFA
  metadata there without sacrificing thread count.
* :class:`Mram` — the 64 MB DRAM bank.  *Not* directly load/store
  accessible: tasklets move data with DMA transfers (see
  :mod:`repro.pim.dma`), and the host reads/writes it through
  :meth:`host_read`/:meth:`host_write` (the CPU<->DPU transfer path).

Both enforce bounds on every access.  A memory keeps only the bytes
written to it: backing storage grows lazily on write, and a read of
bytes never written returns zeros without growing it, so simulating a
64 MB bank that only ever holds a few hundred KB of reads costs a few
hundred KB of host memory.  The kernel's record transfers
(:meth:`~repro.pim.dma.DmaEngine.read_large`,
:meth:`~repro.pim.dma.DmaEngine.write_large`) check WRAM bounds without
copying through it, so a launch's WRAM backing stays empty.
"""

from __future__ import annotations

from repro.errors import MemoryFault

__all__ = ["SimMemory", "Wram", "Mram"]


class SimMemory:
    """Bounds-checked byte-addressable memory."""

    def __init__(self, capacity: int, name: str = "mem") -> None:
        if capacity <= 0:
            raise MemoryFault(f"{name}: capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._data = bytearray()

    # -- bounds / growth ----------------------------------------------------

    def check(self, addr: int, size: int) -> None:
        """Raise :class:`MemoryFault` unless ``[addr, addr + size)`` is inside."""
        if size < 0:
            raise MemoryFault(f"{self.name}: negative access size {size}")
        if addr < 0 or addr + size > self.capacity:
            raise MemoryFault(
                f"{self.name}: access [{addr}, {addr + size}) outside "
                f"capacity {self.capacity}"
            )

    def _ensure(self, end: int) -> None:
        if len(self._data) < end:
            self._data.extend(b"\x00" * (end - len(self._data)))

    # -- access ------------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr``; unwritten bytes read as zero."""
        self.check(addr, size)
        data = self._data[addr : addr + size]
        if len(data) < size:
            data.extend(bytes(size - len(data)))
        return bytes(data)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``."""
        self.check(addr, len(data))
        self._ensure(addr + len(data))
        self._data[addr : addr + len(data)] = data

    def flip_bits(self, addr: int, size: int, num_bits: int, rng) -> list[int]:
        """Flip ``num_bits`` random bits inside ``[addr, addr + size)``.

        The fault-injection hook: models radiation/transfer bit rot in a
        seeded, reproducible way (``rng`` is any ``random.Random``).
        Returns the absolute bit positions flipped (byte*8 + bit), sorted,
        so fault plans can be logged and replayed.
        """
        if num_bits < 0:
            raise MemoryFault(f"{self.name}: num_bits must be >= 0, got {num_bits}")
        if size <= 0 and num_bits > 0:
            raise MemoryFault(f"{self.name}: cannot corrupt empty range at {addr}")
        self.check(addr, size)
        self._ensure(addr + size)
        positions = sorted(rng.randrange(size * 8) for _ in range(num_bits))
        for pos in positions:
            byte, bit = addr + pos // 8, pos % 8
            self._data[byte] ^= 1 << bit
        return [(addr + p // 8) * 8 + p % 8 for p in positions]


class Wram(SimMemory):
    """The 64 KB working RAM (SRAM scratchpad) of one DPU."""

    def __init__(self, capacity: int = 64 * 1024) -> None:
        super().__init__(capacity, name="WRAM")


class Mram(SimMemory):
    """The 64 MB main RAM (DRAM bank) of one DPU.

    Host-side copies go through the ``host_*`` methods, so that the CPU
    <-> DPU path has entry points of its own, apart from on-DPU DMA.
    """

    def __init__(self, capacity: int = 64 * 1024 * 1024) -> None:
        super().__init__(capacity, name="MRAM")

    def host_write(self, addr: int, data: bytes) -> None:
        """CPU -> MRAM copy."""
        self.write(addr, data)

    def host_read(self, addr: int, size: int) -> bytes:
        """MRAM -> CPU copy."""
        return self.read(addr, size)
