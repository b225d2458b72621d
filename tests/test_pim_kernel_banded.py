"""Tests for the banded-DP DPU kernel (the comparison kernel)."""

import pytest

from repro.baselines.banded import banded_gotoh_score
from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import KernelError
from repro.pim.config import DpuConfig, HostTransferConfig
from repro.pim.dpu import Dpu
from repro.pim.kernel_banded import BandedDpuKernel, BandedKernelConfig
from repro.pim.layout import MramLayout
from repro.pim.transfer import HostTransferEngine

PEN = AffinePenalties(4, 6, 2)


def run_banded(pairs, config: BandedKernelConfig, tasklets: int = 2):
    kernel = BandedDpuKernel(config)
    dpu = Dpu(DpuConfig())
    layout = MramLayout.plan(
        num_pairs=len(pairs),
        max_pattern_len=config.max_read_len,
        max_text_len=config.max_read_len,
        max_cigar_ops=2,
        tasklets=tasklets,
        metadata_bytes_per_tasklet=0,
    )
    HostTransferEngine(HostTransferConfig()).push_batch(dpu, layout, pairs)
    assignments = [list(range(t, len(pairs), tasklets)) for t in range(tasklets)]
    stats = kernel.run(dpu, layout, assignments)
    return kernel, dpu, layout, stats


class TestConfig:
    def test_validation(self):
        with pytest.raises(KernelError):
            BandedKernelConfig(max_read_len=0)
        with pytest.raises(KernelError):
            BandedKernelConfig(band=0)

    def test_row_bytes_aligned(self):
        assert BandedKernelConfig(max_read_len=100).row_bytes % 8 == 0


class TestPlanning:
    def test_short_reads_admit_many_tasklets(self):
        k = BandedDpuKernel(BandedKernelConfig(max_read_len=104, band=4))
        assert k.max_supported_tasklets(DpuConfig()) >= 16

    def test_long_reads_cap_tasklets(self):
        """Banded DP's WRAM pressure scales with read length, not E."""
        short = BandedDpuKernel(BandedKernelConfig(max_read_len=104, band=4))
        long_ = BandedDpuKernel(BandedKernelConfig(max_read_len=2000, band=4))
        assert long_.max_supported_tasklets(DpuConfig()) < short.max_supported_tasklets(
            DpuConfig()
        )

    def test_plan_check_raises(self):
        k = BandedDpuKernel(BandedKernelConfig(max_read_len=5000, band=4))
        with pytest.raises(KernelError):
            k.plan_check(DpuConfig(), 24)
        with pytest.raises(KernelError):
            k.plan_check(DpuConfig(), 0)


class TestExecution:
    def test_scores_match_host_banded(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.04, seed=9).pairs(10)
        cfg = BandedKernelConfig(max_read_len=64, band=5)
        _, dpu, layout, stats = run_banded(pairs, cfg)
        assert sum(s.pairs_done for s in stats) == 10
        for i, pair in enumerate(pairs):
            rec = dpu.mram.read(layout.result_addr(i), layout.result_record_size)
            score, cigar = layout.unpack_result(rec)
            assert cigar is None
            assert score == banded_gotoh_score(pair.pattern, pair.text, PEN, 5)

    def test_tasklet_transfers_sum_to_dma_engine_transfers(self):
        # 1040 bp slots make each input record span two DMA transfers
        pairs = ReadPairGenerator(length=700, error_rate=0.0, seed=4).pairs(3)
        cfg = BandedKernelConfig(max_read_len=1040, band=2)
        _, dpu, layout, stats = run_banded(pairs, cfg)
        assert layout.input_record_size > 2048
        assert sum(s.dma_transfers for s in stats) == dpu.dma.transfers == 3 * 3

    def test_cells_independent_of_similarity(self):
        gen_same = ReadPairGenerator(length=50, error_rate=0.0, seed=1)
        gen_diff = ReadPairGenerator(length=50, error_rate=0.1, seed=1)
        cfg = BandedKernelConfig(max_read_len=60, band=6)
        kernel = BandedDpuKernel(cfg)
        same = kernel.cells_for(50, 50)
        assert same == kernel.cells_for(50, 50)
        # cells depend only on geometry
        _, _, _, s1 = run_banded(gen_same.pairs(4), cfg)
        _, _, _, s2 = run_banded(gen_diff.pairs(4), cfg)
        assert sum(t.cells_computed for t in s1) == pytest.approx(
            sum(t.cells_computed for t in s2), rel=0.15
        )

    def test_unalignable_pair_raises(self):
        from repro.data.generator import ReadPair

        bad = ReadPair(pattern="A" * 50, text="A" * 5)
        cfg = BandedKernelConfig(max_read_len=60, band=3)
        with pytest.raises(KernelError, match="band"):
            run_banded([bad], cfg, tasklets=1)

    def test_oversized_layout_rejected(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.0, seed=2).pairs(2)
        kernel = BandedDpuKernel(BandedKernelConfig(max_read_len=32, band=3))
        dpu = Dpu(DpuConfig())
        layout = MramLayout.plan(
            num_pairs=2,
            max_pattern_len=64,
            max_text_len=64,
            max_cigar_ops=2,
            tasklets=1,
            metadata_bytes_per_tasklet=0,
        )
        with pytest.raises(KernelError, match="input buffer"):
            kernel.run(dpu, layout, [[0, 1]])
