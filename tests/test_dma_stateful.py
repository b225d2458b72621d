"""Stateful property test of the DMA engine against a shadow model.

A hypothesis machine issues random (aligned, sized) DMA transfers and
host writes, mirroring every byte into plain Python dictionaries.  After
every step the simulated memories must agree with the shadow — the
strongest statement that the functional layer moves bytes correctly.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.pim.config import DpuTimingConfig
from repro.pim.dma import DmaEngine
from repro.pim.memory import Mram, Wram

MRAM_SPAN = 4096  # region under test (bank is lazily backed anyway)
WRAM_SPAN = 2048


class DmaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mram = Mram()
        self.wram = Wram()
        self.dma = DmaEngine(self.mram, self.wram, DpuTimingConfig())
        self.shadow_mram = bytearray(MRAM_SPAN)
        self.shadow_wram = bytearray(WRAM_SPAN)
        self.transfers = 0
        self.cycles = 0.0

    @rule(
        addr=st.integers(0, MRAM_SPAN // 8 - 1),
        data=st.binary(min_size=8, max_size=8),
    )
    def host_write_mram(self, addr, data):
        a = addr * 8
        self.mram.host_write(a, data)
        self.shadow_mram[a : a + 8] = data

    @rule(
        addr=st.integers(0, WRAM_SPAN // 8 - 1),
        data=st.binary(min_size=8, max_size=8),
    )
    def tasklet_write_wram(self, addr, data):
        a = addr * 8
        self.wram.write(a, data)
        self.shadow_wram[a : a + 8] = data

    @rule(
        m=st.integers(0, MRAM_SPAN // 8 - 1),
        w=st.integers(0, WRAM_SPAN // 8 - 1),
        beats=st.integers(1, 8),
    )
    def dma_read(self, m, w, beats):
        maddr, waddr = m * 8, w * 8
        size = beats * 8
        size = min(size, MRAM_SPAN - maddr, WRAM_SPAN - waddr)
        if size < 8:
            return
        self.cycles += self.dma.read(maddr, waddr, size)
        self.shadow_wram[waddr : waddr + size] = self.shadow_mram[
            maddr : maddr + size
        ]
        self.transfers += 1

    @rule(
        m=st.integers(0, MRAM_SPAN // 8 - 1),
        w=st.integers(0, WRAM_SPAN // 8 - 1),
        beats=st.integers(1, 8),
    )
    def dma_write(self, m, w, beats):
        maddr, waddr = m * 8, w * 8
        size = beats * 8
        size = min(size, MRAM_SPAN - maddr, WRAM_SPAN - waddr)
        if size < 8:
            return
        self.cycles += self.dma.write(waddr, maddr, size)
        self.shadow_mram[maddr : maddr + size] = self.shadow_wram[
            waddr : waddr + size
        ]
        self.transfers += 1

    @invariant()
    def memories_match_shadow(self):
        assert self.mram.read(0, MRAM_SPAN) == bytes(self.shadow_mram)
        assert self.wram.read(0, WRAM_SPAN) == bytes(self.shadow_wram)

    @invariant()
    def accounting_consistent(self):
        assert self.dma.transfers == self.transfers
        assert self.cycles >= self.transfers * DpuTimingConfig().dma_setup_cycles


TestDmaStateful = DmaMachine.TestCase
TestDmaStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
