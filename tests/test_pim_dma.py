"""Tests for the DMA engine and UPMEM's alignment/size restrictions."""

import pytest

from repro.errors import AlignmentFault, MemoryFault
from repro.pim.config import DpuTimingConfig
from repro.pim.dma import DMA_MAX, DmaEngine, aligned_size
from repro.pim.memory import Mram, Wram


@pytest.fixture
def dma():
    return DmaEngine(Mram(1 << 20), Wram(), DpuTimingConfig())


class TestAlignedSize:
    def test_rounding(self):
        assert aligned_size(1) == 8
        assert aligned_size(8) == 8
        assert aligned_size(9) == 16
        assert aligned_size(0) == 0


class TestRestrictions:
    def test_unaligned_mram_address(self, dma):
        with pytest.raises(AlignmentFault, match="MRAM address"):
            dma.read(4, 0, 8)

    def test_unaligned_wram_address(self, dma):
        with pytest.raises(AlignmentFault, match="WRAM address"):
            dma.read(0, 4, 8)

    def test_size_not_multiple_of_8(self, dma):
        with pytest.raises(AlignmentFault, match="size"):
            dma.read(0, 0, 12)

    def test_size_below_minimum(self, dma):
        with pytest.raises(AlignmentFault):
            dma.read(0, 0, 0)

    def test_size_above_maximum(self, dma):
        with pytest.raises(AlignmentFault):
            dma.read(0, 0, DMA_MAX + 8)

    def test_max_size_allowed(self, dma):
        dma.read(0, 0, DMA_MAX)


class TestFunctionalTransfer:
    def test_read_moves_bytes(self, dma):
        dma.mram.write(64, b"A" * 16)
        dma.read(64, 8, 16)
        assert dma.wram.read(8, 16) == b"A" * 16

    def test_write_moves_bytes(self, dma):
        dma.wram.write(0, b"B" * 8)
        dma.write(0, 128, 8)
        assert dma.mram.read(128, 8) == b"B" * 8

    def test_accounting(self, dma):
        cycles = dma.read(0, 0, 16) + dma.write(0, 64, 8)
        assert dma.transfers == 2
        assert dma.bytes_moved == 24
        assert cycles > 0
        dma.reset_counters()
        assert dma.transfers == 0 and dma.bytes_moved == 0


class TestTiming:
    def test_cycles_match_model(self, dma):
        t = DpuTimingConfig()
        c = dma.read(0, 0, 64)
        assert c == pytest.approx(t.dma_setup_cycles + 8 * t.dma_cycles_per_8b)

    def test_larger_transfers_cost_more(self, dma):
        small = dma.read(0, 0, 8)
        large = dma.read(0, 0, 2048)
        assert large > small

    def test_streaming_bandwidth_near_prim(self):
        # Asymptotic streaming bandwidth should be in PrIM's ~630 MB/s range.
        t = DpuTimingConfig()
        nbytes = 1 << 20
        cycles = (nbytes / 2048) * t.dma_cycles(2048)
        bw = nbytes / t.seconds(cycles)
        assert 0.5e9 < bw < 0.75e9


class TestLargeTransfers:
    def test_read_large_chunks(self, dma):
        dma.mram.write(0, bytes(range(256)) * 20)  # 5120 bytes
        cycles, data = dma.read_large(0, 0, 5120)
        assert data == bytes(range(256)) * 20
        assert dma.transfers == 3  # 2048 + 2048 + 1024
        assert dma.bytes_moved == 5120
        t = dma.timing
        assert cycles == t.dma_cycles(2048) + t.dma_cycles(2048) + t.dma_cycles(1024)

    def test_read_large_keeps_no_wram_copy(self, dma):
        dma.mram.write(64, b"R" * 16)
        cycles, data = dma.read_large(64, 8, 16)
        assert data == b"R" * 16
        assert cycles == dma.timing.dma_cycles(16)
        assert dma.wram.read(8, 16) == bytes(16)

    def test_write_large_chunks(self, dma):
        cycles = dma.write_large(0, 8192, b"C" * 4096)
        assert dma.mram.read(8192, 4096) == b"C" * 4096
        assert dma.transfers == 2
        assert dma.bytes_moved == 4096
        assert cycles == 2 * dma.timing.dma_cycles(2048)
        assert dma.wram.read(0, 4096) == bytes(4096)

    def test_empty_record_moves_nothing(self, dma):
        assert dma.read_large(0, 0, 0) == (0.0, b"")
        assert dma.write_large(0, 0, b"") == 0.0
        assert dma.transfers == 0

    def test_large_requires_8_multiple(self, dma):
        with pytest.raises(AlignmentFault):
            dma.read_large(0, 0, 20)
        with pytest.raises(AlignmentFault):
            dma.write_large(0, 0, b"x" * 12)

    def test_large_respects_bounds(self, dma):
        with pytest.raises(MemoryFault, match="WRAM"):
            dma.read_large(0, 64 * 1024 - 8, 64)  # overflows WRAM
        with pytest.raises(MemoryFault, match="WRAM"):
            dma.write_large(64 * 1024 - 8, 0, b"w" * 64)
        with pytest.raises(MemoryFault, match="MRAM"):
            dma.write_large(0, (1 << 20) - 8, b"w" * 64)
        assert dma.mram.read((1 << 20) - 8, 8) == bytes(8)

    def test_pieces_tick_the_hook_before_they_move(self, dma):
        ticks = []

        def hook(size):
            ticks.append((size, dma.transfers))
            if len(ticks) == 2:
                raise RuntimeError("stall")

        dma.fault_hook = hook
        with pytest.raises(RuntimeError, match="stall"):
            dma.write_large(0, 0, b"D" * 2056)
        # the first piece landed and was charged; the second never moved
        assert ticks == [(2048, 0), (8, 1)]
        assert dma.mram.read(0, 2056) == b"D" * 2048 + bytes(8)
        assert dma.transfers == 1
