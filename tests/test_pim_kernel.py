"""Tests for the WFA DPU kernel: planning, execution, fidelity."""

import dataclasses
import gc
import itertools
import weakref
from typing import Optional

import pytest

from repro.baselines.gotoh import gotoh_score
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    TwoPieceAffinePenalties,
)
from repro.core.wfa_batch import BatchWfaEngine
from repro.data.generator import ReadPairGenerator
from repro.errors import KernelError
from repro.pim.config import DpuConfig, PimSystemConfig
from repro.pim.dpu import Dpu
from repro.pim.kernel import (
    KernelConfig,
    WfaDpuKernel,
    WramPlan,
    max_supported_tasklets,
    per_edit_cost,
)
from repro.pim import kernel as kernel_module
from repro.pim.layout import MramLayout
from repro.pim.system import PimSystem
from repro.pim.tasklet import TaskletStats
from repro.pim.trace import KernelTrace
from repro.pim.transfer import HostTransferEngine
from repro.pim.config import HostTransferConfig

PEN = AffinePenalties(4, 6, 2)


def setup_dpu(pairs, kc: KernelConfig, tasklets: int = 4, policy: str = "mram"):
    """Build a DPU with pushed inputs plus the layout and assignments."""
    kernel = WfaDpuKernel(kc)
    dpu = Dpu(DpuConfig())
    layout = MramLayout.plan(
        num_pairs=len(pairs),
        max_pattern_len=kc.max_seq_len,
        max_text_len=kc.max_seq_len,
        max_cigar_ops=kc.max_cigar_ops,
        tasklets=tasklets,
        metadata_bytes_per_tasklet=(
            kc.metadata_peak_bytes() if policy == "mram" else 0
        ),
    )
    transfer = HostTransferEngine(HostTransferConfig())
    transfer.push_batch(dpu, layout, pairs)
    assignments = [list(range(t, len(pairs), tasklets)) for t in range(tasklets)]
    return kernel, dpu, layout, assignments


class TestKernelConfig:
    def test_max_score_bound(self):
        kc = KernelConfig(penalties=PEN, max_edits=2)
        assert kc.max_score == 2 * max(4, 8) == 16
        assert KernelConfig(penalties=EditPenalties(), max_edits=3).max_score == 3

    def test_per_edit_cost(self):
        assert per_edit_cost(PEN) == 8
        assert per_edit_cost(EditPenalties()) == 1

    def test_derived_sizes(self):
        kc = KernelConfig(penalties=PEN, max_edits=2)
        assert kc.max_wavefront_width == 2 * 16 + 3
        assert kc.max_cigar_ops == 7
        assert kc.wavefront_components == 3
        assert kc.metadata_peak_bytes() > 0

    def test_validation(self):
        with pytest.raises(KernelError):
            KernelConfig(max_read_len=0)
        with pytest.raises(KernelError):
            KernelConfig(max_edits=-1)


class TestWramPlanning:
    def test_mram_policy_admits_all_24_tasklets(self):
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=4))
        assert max_supported_tasklets(kernel, DpuConfig(), "mram") == 24

    def test_wram_policy_caps_tasklets(self):
        """The paper's WRAM-pressure argument, quantified."""
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=4))
        cap = max_supported_tasklets(kernel, DpuConfig(), "wram")
        assert 1 <= cap < 8

    def test_wram_cap_shrinks_with_error_budget(self):
        caps = [
            max_supported_tasklets(
                WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=e)),
                DpuConfig(),
                "wram",
            )
            for e in (1, 2, 4, 8)
        ]
        assert caps == sorted(caps, reverse=True)
        assert caps[0] > caps[-1]

    def test_plan_rejects_impossible(self):
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=40))
        with pytest.raises(KernelError, match="WRAM"):
            kernel.plan_wram(DpuConfig(), 24, "wram")

    def test_plan_rejects_bad_tasklets(self):
        kernel = WfaDpuKernel(KernelConfig())
        with pytest.raises(KernelError):
            kernel.plan_wram(DpuConfig(), 0, "mram")
        with pytest.raises(KernelError):
            kernel.plan_wram(DpuConfig(), 25, "mram")
        with pytest.raises(KernelError):
            kernel.plan_wram(DpuConfig(), 4, "cache")

    def test_plan_fits_slice(self):
        kernel = WfaDpuKernel(KernelConfig(penalties=PEN, max_edits=4))
        plan = kernel.plan_wram(DpuConfig(), 16, "mram")
        assert plan.used_bytes <= plan.slice_bytes
        assert plan.staging_buffers == 7
        assert plan.staging_buffer_bytes % 8 == 0

    def test_admission_error_names_wram_size_and_least_need(self):
        kc = KernelConfig(penalties=PEN, max_read_len=2000, max_edits=40)
        kernel = WfaDpuKernel(kc)
        with pytest.raises(KernelError) as excinfo:
            kernel.plan_wram(DpuConfig(), 16, "mram")
        message = str(excinfo.value)
        assert "WRAM slice of 4096 B (65536 B / 16 tasklets)" in message
        # the 4088 B input and 344 B result records plus seven 8 B chunks,
        # not the 22464 B of whole-wavefront buffers
        assert "(4488 B needed with 8 B staging chunks," in message
        with pytest.raises(KernelError, match=r"slice of 2048 B \(32768 B / 16 "):
            kernel.plan_wram(DpuConfig(wram_bytes=32 * 1024), 16, "mram")
        with pytest.raises(KernelError) as excinfo:
            kernel.plan_wram(DpuConfig(), 16, "wram")
        assert "staging chunks" not in str(excinfo.value)


class TestKernelExecution:
    def test_results_match_gotoh(self):
        pairs = ReadPairGenerator(length=80, error_rate=0.04, seed=2).pairs(24)
        kc = KernelConfig(penalties=PEN, max_read_len=80, max_edits=4)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc)
        stats, results = kernel.run(
            dpu, layout, assignments, "mram", collect_results=True
        )
        assert sum(s.pairs_done for s in stats) == 24
        for index, res in results:
            pair = pairs[index]
            assert res.score == gotoh_score(pair.pattern, pair.text, PEN)
            res.cigar.validate(pair.pattern, pair.text)

    def test_results_written_to_mram(self):
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(8)
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=1)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        kernel.run(dpu, layout, assignments, "mram")
        for i, pair in enumerate(pairs):
            record = dpu.mram.read(layout.result_addr(i), layout.result_record_size)
            score, cigar = layout.unpack_result(record)
            assert score == gotoh_score(pair.pattern, pair.text, PEN)
            cigar.validate(pair.pattern, pair.text)

    def test_score_only_mode(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.05, seed=4).pairs(6)
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=3, traceback=False)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        stats, results = kernel.run(
            dpu, layout, assignments, "mram", collect_results=True
        )
        for index, res in results:
            assert res.cigar is None
            pair = pairs[index]
            assert res.score == gotoh_score(pair.pattern, pair.text, PEN)

    def test_out_of_budget_pair_raises(self):
        pairs = [ReadPairGenerator(length=40, error_rate=0.0, seed=1).pair()]
        # Corrupt the pair to exceed the kernel's edit budget.
        from repro.data.generator import ReadPair

        bad = ReadPair(pattern="A" * 40, text="T" * 40)
        kc = KernelConfig(penalties=PEN, max_read_len=40, max_edits=1)
        kernel, dpu, layout, assignments = setup_dpu([bad], kc, tasklets=1)
        with pytest.raises(KernelError, match="score bound"):
            kernel.run(dpu, layout, assignments, "mram")

    def test_stats_accumulate(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.03, seed=5).pairs(12)
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=2)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=3)
        stats, _ = kernel.run(dpu, layout, assignments, "mram")
        for s in stats:
            assert s.instructions > 0
            assert s.dma_cycles > 0
            assert s.dma_bytes > 0
            assert s.cells_computed > 0

    def test_only_busy_tasklets_get_a_context(self, monkeypatch):
        """Two pairs on 16 tasklets: 14 idle tasklets report empty stats,
        and every launch, the one that plans it and the one that reuses
        the plan, builds one allocator per busy tasklet and no other."""
        built = []

        class CountingAllocator(kernel_module.TaskletAllocator):
            def __init__(self, **kwargs):
                built.append(kwargs["wram_base"])
                super().__init__(**kwargs)

        monkeypatch.setattr(kernel_module, "TaskletAllocator", CountingAllocator)
        pairs = ReadPairGenerator(length=60, error_rate=0.03, seed=9).pairs(2)
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=2)
        kernel_module.launch_plan.cache_clear()
        for _ in range(2):  # cold plan, then warm
            built.clear()
            kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=16)
            stats, _ = kernel.run(dpu, layout, assignments, "mram")
            assert [s.tasklet_id for s in stats] == list(range(16))
            idle = [s for s in stats if s == TaskletStats(tasklet_id=s.tasklet_id)]
            assert [s.tasklet_id for s in idle] == list(range(2, 16))
            assert [s.pairs_done for s in stats[:2]] == [1, 1]
            assert built == [0, DpuConfig().wram_bytes // 16]
        assert kernel_module.launch_plan.cache_info().hits >= 1

    def test_mram_policy_moves_more_dma_bytes_than_wram(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.05, seed=6).pairs(8)
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=3)
        k1, d1, l1, a1 = setup_dpu(pairs, kc, tasklets=2, policy="mram")
        s_mram, _ = k1.run(d1, l1, a1, "mram")
        k2, d2, l2, a2 = setup_dpu(pairs, kc, tasklets=2, policy="wram")
        s_wram, _ = k2.run(d2, l2, a2, "wram")
        assert sum(t.dma_bytes for t in s_mram) > sum(t.dma_bytes for t in s_wram)
        # functional outcome identical either way
        for dpu, layout in ((d1, l1), (d2, l2)):
            score, _ = layout.unpack_result(
                dpu.mram.read(layout.result_addr(0), layout.result_record_size)
            )
            assert score == gotoh_score(pairs[0].pattern, pairs[0].text, PEN)

    def test_edit_metric_kernel(self):
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=7).pairs(6)
        kc = KernelConfig(
            penalties=EditPenalties(), max_read_len=50, max_edits=2
        )
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        _, results = kernel.run(dpu, layout, assignments, "mram", collect_results=True)
        from repro.baselines.bitparallel import levenshtein_dp

        for index, res in results:
            assert res.score == levenshtein_dp(
                pairs[index].pattern, pairs[index].text
            )

    def test_adaptive_kernel_mode(self):
        """The DPU kernel with WFA-Adapt: results remain valid CIGARs."""
        pairs = ReadPairGenerator(length=80, error_rate=0.03, seed=11).pairs(8)
        kc = KernelConfig(penalties=PEN, max_read_len=80, max_edits=6, adaptive=True)
        kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=2)
        _, results = kernel.run(dpu, layout, assignments, "mram", collect_results=True)
        for index, res in results:
            pair = pairs[index]
            exact = gotoh_score(pair.pattern, pair.text, PEN)
            assert res.score >= exact
            assert not res.exact
            res.cigar.validate(pair.pattern, pair.text)

    def test_chunked_staging_same_results_more_transfers(self):
        pairs = ReadPairGenerator(length=70, error_rate=0.05, seed=10).pairs(8)
        kc_whole = KernelConfig(penalties=PEN, max_read_len=70, max_edits=4)
        kc_chunk = KernelConfig(
            penalties=PEN, max_read_len=70, max_edits=4, staging_chunk_bytes=32
        )
        k1, d1, l1, a1 = setup_dpu(pairs, kc_whole, tasklets=2)
        s1, r1 = k1.run(d1, l1, a1, "mram", collect_results=True)
        kernel2 = WfaDpuKernel(kc_chunk)
        d2 = Dpu(DpuConfig())
        HostTransferEngine(HostTransferConfig()).push_batch(d2, l1, pairs)
        s2, r2 = kernel2.run(d2, l1, a1, "mram", collect_results=True)
        # identical functional results
        assert [(i, res.score) for i, res in r1] == [(i, res.score) for i, res in r2]
        # same bytes moved, but more (smaller) transfers -> more DMA cycles
        assert sum(t.dma_bytes for t in s2) == sum(t.dma_bytes for t in s1)
        assert d2.dma.transfers > d1.dma.transfers
        assert sum(t.dma_cycles for t in s2) > sum(t.dma_cycles for t in s1)

    def test_chunked_staging_shrinks_wram_plan(self):
        """At 1000 bp the planner chunks where whole wavefronts stop fitting."""
        kc = KernelConfig(penalties=PEN, max_read_len=1000, max_edits=20)
        auto = WfaDpuKernel(kc)
        auto_cap = max_supported_tasklets(auto, DpuConfig(), "mram")
        assert auto_cap == 24
        for chunk in (2048, 1024, 512, 256, 128, 64, 8):
            fixed = WfaDpuKernel(dataclasses.replace(kc, staging_chunk_bytes=chunk))
            assert auto_cap >= max_supported_tasklets(fixed, DpuConfig(), "mram")
        chunks = [
            auto.plan_wram(DpuConfig(), t, "mram").staging_chunk for t in range(1, 25)
        ]
        assert chunks[:5] == [None] * 5
        assert None not in chunks[5:]

    def test_invalid_chunk_sizes_rejected(self):
        for bad in (4, 12, 0, 4096):
            with pytest.raises(KernelError):
                KernelConfig(penalties=PEN, staging_chunk_bytes=bad)

    def test_layout_cigar_slot_too_small_rejected(self):
        pairs = ReadPairGenerator(length=40, seed=8).pairs(2)
        kc = KernelConfig(penalties=PEN, max_read_len=40, max_edits=4)
        kernel = WfaDpuKernel(kc)
        dpu = Dpu(DpuConfig())
        layout = MramLayout.plan(
            num_pairs=2,
            max_pattern_len=48,
            max_text_len=48,
            max_cigar_ops=2,  # smaller than the kernel may emit
            tasklets=1,
            metadata_bytes_per_tasklet=kc.metadata_peak_bytes(),
        )
        with pytest.raises(KernelError, match="CIGAR"):
            kernel.run(dpu, layout, [[0, 1]], "mram")


def whole_wavefront_plan(kc: KernelConfig, tasklets: int) -> Optional[WramPlan]:
    """The "mram" plan with whole-wavefront staging buffers, from first
    principles: records, then one score-bound-wide buffer per resident
    wavefront.  ``None`` where they do not fit a slice.
    """

    def rounded(nbytes: int) -> int:
        return -(-nbytes // 8) * 8

    slice_bytes = 64 * 1024 // tasklets // 8 * 8
    result_off = rounded(8 + 2 * rounded(kc.max_seq_len))
    staging_off = result_off + rounded(8 + rounded(4 * kc.max_cigar_ops))
    buffers = {1: 3, 3: 7, 5: 12}[kc.wavefront_components]
    buffer_bytes = rounded(4 * (2 * kc.max_score + 3))
    if staging_off + buffers * buffer_bytes > slice_bytes:
        return None
    return WramPlan(
        slice_bytes=slice_bytes,
        input_off=0,
        result_off=result_off,
        staging_off=staging_off,
        staging_buffers=buffers,
        staging_buffer_bytes=buffer_bytes,
        metadata_off=staging_off,
        metadata_bytes=0,
    )


METRICS = (EditPenalties(), LinearPenalties(), PEN, TwoPieceAffinePenalties())


class TestStagingPlanner:
    def test_whole_wavefront_plans_unchanged(self):
        """Plans keep whole wavefronts wherever they fit; the rest take the
        largest chunk that fits."""
        chunked = 0
        grid = itertools.product(METRICS, (50, 100, 150, 250), (0.02, 0.04, 0.08))
        for penalties, length, rate in grid:
            kc = KernelConfig(
                penalties=penalties,
                max_read_len=length,
                max_edits=round(rate * length),
            )
            kernel = WfaDpuKernel(kc)
            for tasklets in range(1, 25):
                plan = kernel.plan_wram(DpuConfig(), tasklets, "mram")
                whole = whole_wavefront_plan(kc, tasklets)
                if whole is not None:
                    assert plan == whole, (penalties, length, rate, tasklets)
                    assert plan.staging_chunk is None
                    continue
                chunked += 1
                room = plan.slice_bytes - plan.staging_off
                assert plan.staging_chunk == plan.staging_buffer_bytes
                assert plan.staging_chunk == min(
                    2048, room // plan.staging_buffers // 8 * 8
                )
        assert chunked > 0  # the grid reaches past whole-wavefront plans

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_auto_plan_matches_explicit_chunk(self, engine):
        pairs = ReadPairGenerator(length=1000, error_rate=0.02, seed=12).pairs(6)
        auto = KernelConfig(
            penalties=PEN, max_read_len=1000, max_edits=20, engine=engine
        )
        chunk = WfaDpuKernel(auto).plan_wram(DpuConfig(), 16, "mram").staging_chunk
        assert chunk == 264
        runs = []
        for kc in (auto, dataclasses.replace(auto, staging_chunk_bytes=chunk)):
            kernel, dpu, layout, assignments = setup_dpu(pairs, kc, tasklets=16)
            trace = KernelTrace()
            stats, _ = kernel.run(dpu, layout, assignments, "mram", trace=trace)
            dma = (dpu.dma.transfers, dpu.dma.bytes_moved)
            runs.append((stats, dma, trace.events))
        assert runs[0] == runs[1]
        assert sum(s.pairs_done for s in runs[0][0]) == 6

    def test_pair_view_dies_before_the_next_pair(self, monkeypatch):
        """No vector-engine view outlives its pair, and the group's batch
        arrays are freed with its last view, without the cycle collector."""
        pairs = ReadPairGenerator(length=100, error_rate=0.04, seed=13).pairs(12)
        kc = KernelConfig(penalties=PEN, max_read_len=100, max_edits=4, engine="vector")
        system = PimSystem(
            PimSystemConfig(num_dpus=3, num_ranks=1, tasklets=2, num_simulated_dpus=3),
            kc,
        )
        engines, views, done = [], [], []
        engine_run, align_one = BatchWfaEngine.run, WfaDpuKernel._align_one

        def spy_run(engine):
            found = engine_run(engine)
            engines.append(weakref.ref(engine))
            views.extend(weakref.ref(v) for v in found)
            return found

        def spy_align_one(kernel, *args):
            assert sum(ref() is not None for ref in views) == len(views) - len(done)
            result = align_one(kernel, *args)
            done.append(args[3])
            return result

        monkeypatch.setattr(BatchWfaEngine, "run", spy_run)
        monkeypatch.setattr(WfaDpuKernel, "_align_one", spy_align_one)
        gc.disable()
        try:
            run = system.align(pairs)
            assert len(engines) == 1 and engines[0]() is None
        finally:
            gc.enable()
        assert len(done) == len(views) == 12
        assert len(run.results) == 12
