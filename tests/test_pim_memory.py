"""Tests for simulated MRAM/WRAM memories."""

import pytest

from repro.data.generator import ReadPairGenerator
from repro.errors import MemoryFault
from repro.pim.config import DpuConfig, HostTransferConfig
from repro.pim.dpu import Dpu
from repro.pim.layout import HEADER_BYTES, MramLayout
from repro.pim.memory import Mram, SimMemory, Wram
from repro.pim.transfer import HostTransferEngine


@pytest.fixture
def layout():
    return MramLayout.plan(
        num_pairs=4,
        max_pattern_len=32,
        max_text_len=32,
        max_cigar_ops=5,
        tasklets=2,
        metadata_bytes_per_tasklet=512,
    )


class TestSimMemory:
    def test_write_read_roundtrip(self):
        mem = SimMemory(1024)
        mem.write(8, b"hello")
        assert mem.read(8, 5) == b"hello"

    def test_unwritten_reads_zero(self):
        mem = SimMemory(64)
        assert mem.read(0, 8) == b"\x00" * 8

    def test_bounds_enforced(self):
        mem = SimMemory(16)
        with pytest.raises(MemoryFault):
            mem.read(8, 9)
        with pytest.raises(MemoryFault):
            mem.write(16, b"x")
        with pytest.raises(MemoryFault):
            mem.read(-1, 4)
        with pytest.raises(MemoryFault):
            mem.read(0, -4)

    def test_capacity_validation(self):
        with pytest.raises(MemoryFault):
            SimMemory(0)

    def test_lazy_backing_growth(self):
        mem = SimMemory(64 * 1024 * 1024)
        assert len(mem._data) == 0
        mem.write(1024, b"x")
        assert len(mem._data) <= 2048  # grew only to what was touched

    def test_unwritten_reads_do_not_grow_the_backing(self):
        mem = SimMemory(1024)
        mem.write(8, b"ab")
        assert mem.read(0, 64) == b"\x00" * 8 + b"ab" + b"\x00" * 54
        assert mem.read(512, 16) == b"\x00" * 16
        assert len(mem._data) == 10

    def test_check_names_the_access(self):
        mem = SimMemory(16, name="WRAM")
        mem.check(8, 8)
        with pytest.raises(MemoryFault, match=r"WRAM: access \[8, 24\) outside"):
            mem.check(8, 16)
        with pytest.raises(MemoryFault, match="negative access size"):
            mem.check(0, -1)


class TestDpuMemories:
    def test_default_capacities(self):
        assert Wram().capacity == 64 * 1024
        assert Mram().capacity == 64 * 1024 * 1024

    def test_host_traffic_accounting(self, layout, monkeypatch):
        # Host traffic is counted by the transfer engine; every byte it
        # counts crosses Mram's host entry points and lands in the bank.
        mram = Mram()
        mram.host_write(0, b"abcdefgh")
        assert mram.host_read(0, 8) == b"abcdefgh"
        crossed = {"in": 0, "out": 0}
        host_write, host_read = Mram.host_write, Mram.host_read

        def counted_write(self, addr, data):
            crossed["in"] += len(data)
            host_write(self, addr, data)

        def counted_read(self, addr, size):
            crossed["out"] += size
            return host_read(self, addr, size)

        monkeypatch.setattr(Mram, "host_write", counted_write)
        monkeypatch.setattr(Mram, "host_read", counted_read)
        pairs = ReadPairGenerator(length=30, error_rate=0.0, seed=1).pairs(2)
        dpu = Dpu(DpuConfig())
        engine = HostTransferEngine(HostTransferConfig())
        engine.push_batch(dpu, layout, pairs)
        for i in range(2):
            dpu.mram.write(layout.result_addr(i), layout.pack_result(i, None))
        results, _ = engine.pull_results_full(dpu, layout, 2)
        assert results == [(0, None, 0, 0), (1, None, 0, 0)]
        assert engine.stats.bytes_to_dpu == HEADER_BYTES + 2 * layout.input_record_size
        assert engine.stats.bytes_from_dpu == 2 * layout.result_record_size
        assert crossed == {
            "in": engine.stats.bytes_to_dpu,
            "out": engine.stats.bytes_from_dpu,
        }

    def test_host_and_dpu_traffic_separate(self, layout):
        # Host copies are counted by the transfer engine and on-DPU DMA by
        # the DPU's DMA engine: each counts only its own path, and both
        # paths hit the same bank.
        pairs = ReadPairGenerator(length=30, error_rate=0.0, seed=1).pairs(2)
        dpu = Dpu(DpuConfig())
        engine = HostTransferEngine(HostTransferConfig())
        moved = engine.push_batch(dpu, layout, pairs)
        dpu.wram.write(0, b"cd" * 4)
        dpu.dma.write(0, layout.result_addr(0), 8)  # DPU-side write
        assert engine.stats.bytes_to_dpu == moved
        assert (dpu.dma.transfers, dpu.dma.bytes_moved) == (1, 8)
        record = dpu.mram.host_read(layout.input_addr(1), layout.input_record_size)
        assert record == layout.pack_pair(pairs[1])
        assert dpu.mram.host_read(layout.result_addr(0), 8) == b"cd" * 4
