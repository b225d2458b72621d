"""Failure-injection and stress tests across the PIM stack.

The simulator should fail the way the hardware/toolchain would: loudly,
at the exact contract that was violated — and the verification layers
should catch corrupted state rather than propagate it.
"""

import pytest

from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import AlignmentFault, KernelError, LayoutError, MemoryFault
from repro.pim.config import DpuConfig, PimSystemConfig
from repro.pim.dpu import Dpu
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem

PEN = AffinePenalties(4, 6, 2)


def tiny_system(**kw) -> PimSystem:
    cfg = PimSystemConfig(num_dpus=2, num_ranks=1, tasklets=2, num_simulated_dpus=2)
    kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2, **kw)
    return PimSystem(cfg, kc)


class TestVerifyCatchesCorruption:
    def test_corrupted_result_record_detected(self):
        """Flip bits in a gathered score field; verify must notice."""
        system = tiny_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=50).pairs(4)
        layout = system.plan_layout(2)

        # Run once cleanly, then corrupt one result score in MRAM and
        # re-gather through the verification path.
        from repro.pim.transfer import HostTransferEngine

        dpu = Dpu(system.config.dpu, dpu_id=0)
        system.transfer.push_batch(dpu, layout, pairs[:2])
        stats, _ = system.kernel.run(
            dpu, layout, [[0], [1]], system.config.metadata_policy
        )
        # corrupt: add 1 to the stored score of record 0
        addr = layout.result_addr(0)
        score = int.from_bytes(dpu.mram.read(addr, 4), "little", signed=True)
        dpu.mram.write(addr, (score + 1).to_bytes(4, "little", signed=True))
        pulled, _ = HostTransferEngine(system.config.transfer).pull_results_full(
            dpu, layout, 2
        )
        results = [(i, s, c) for i, (s, c, _, _) in enumerate(pulled)]
        with pytest.raises(KernelError, match="rescoring"):
            system._verify_results(pairs, results)

    def test_corrupted_cigar_detected(self):
        system = tiny_system()
        pairs = [ReadPair(pattern="ACGTACGT", text="ACGTACGT")]
        from repro.core.cigar import Cigar

        # claim a CIGAR that doesn't match the pair
        results = [(0, 0, Cigar.from_string("4M1X3M"))]
        with pytest.raises(KernelError, match="invalid"):
            system._verify_results(pairs, results)


class TestContractViolations:
    def test_oversized_record_rejected_at_pack(self):
        system = tiny_system()
        layout = system.plan_layout(1)
        big = ReadPair(pattern="A" * 200, text="A")
        with pytest.raises(LayoutError):
            layout.pack_pair(big)

    def test_misaligned_kernel_buffer_traps(self):
        """A DMA from an unaligned MRAM address must fault."""
        dpu = Dpu(DpuConfig())
        with pytest.raises(AlignmentFault):
            dpu.dma.read(12, 0, 8)

    def test_wram_overflow_traps(self):
        dpu = Dpu(DpuConfig())
        with pytest.raises(MemoryFault):
            dpu.wram.write(64 * 1024 - 4, b"\x00" * 8)

    def test_mram_overflow_traps(self):
        dpu = Dpu(DpuConfig())
        with pytest.raises(MemoryFault):
            dpu.mram.read(64 * 1024 * 1024, 8)

    def test_header_corruption_detected(self):
        from repro.pim.layout import MramLayout

        system = tiny_system()
        layout = system.plan_layout(2)
        dpu = Dpu(system.config.dpu)
        layout.write_header(dpu.mram)
        dpu.mram.write(0, b"\xff" * 8)  # clobber the magic
        with pytest.raises(LayoutError, match="magic"):
            MramLayout.read_header(dpu.mram)


class TestStress:
    @pytest.mark.slow
    def test_full_rank_with_verification(self):
        """A whole 64-DPU rank, fully simulated, verified end to end."""
        from repro.pim.config import upmem_single_rank

        system = PimSystem(
            upmem_single_rank(tasklets=8),
            KernelConfig(penalties=PEN, max_read_len=100, max_edits=2),
        )
        pairs = ReadPairGenerator(length=100, error_rate=0.02, seed=51).pairs(512)
        res = system.align(pairs, verify=True)
        assert res.pairs_simulated == 512
        assert len(res.results) == 512
        assert res.kernel_seconds > 0

    def test_many_tiny_pairs(self):
        system = tiny_system()
        pairs = [ReadPair(pattern="A", text="A")] * 40
        res = system.align(pairs, verify=True)
        assert all(score == 0 for _i, score, _c in res.results)

    def test_empty_sequences_through_the_stack(self):
        system = tiny_system()
        pairs = [
            ReadPair(pattern="", text=""),
            ReadPair(pattern="", text="AC"),
            ReadPair(pattern="AC", text=""),
        ]
        res = system.align(pairs, verify=True)
        scores = {i: s for i, s, _c in res.results}
        assert scores[0] == 0
        assert scores[1] == PEN.gap_cost(2)
        assert scores[2] == PEN.gap_cost(2)

    def test_mixed_lengths_within_slots(self):
        system = tiny_system()
        gen = ReadPairGenerator(length=30, error_rate=0.05, seed=52)
        pairs = gen.pairs(10) + [ReadPair(pattern="ACG", text="ACGT")]
        res = system.align(pairs, verify=True)
        assert len(res.results) == 11