"""Tests for the full PIM system orchestration."""

import gc
import math

import pytest

from repro.baselines.gotoh import gotoh_score
from repro.core.backtrace import backtrace
from repro.core.penalties import AffinePenalties
from repro.core.wfa import WfaEngine
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError
from repro.pim.config import PimSystemConfig, upmem_paper_system, upmem_single_rank
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem

PEN = AffinePenalties(4, 6, 2)


def small_system(**kw) -> PimSystem:
    cfg = PimSystemConfig(
        num_dpus=4, num_ranks=1, tasklets=4, num_simulated_dpus=4, **kw
    )
    kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=3)
    return PimSystem(cfg, kc)


class TestAlignBatch:
    def test_functional_results_correct(self):
        system = small_system()
        pairs = ReadPairGenerator(length=60, error_rate=0.05, seed=1).pairs(30)
        res = system.align(pairs)
        assert res.pairs_simulated == 30
        assert len(res.results) == 30
        seen = set()
        for idx, score, cigar in res.results:
            assert idx not in seen
            seen.add(idx)
            pair = pairs[idx]
            assert score == gotoh_score(pair.pattern, pair.text, PEN)
            cigar.validate(pair.pattern, pair.text)
        assert seen == set(range(30))

    def test_round_robin_distribution(self):
        system = small_system()
        pairs = ReadPairGenerator(length=60, error_rate=0.0, seed=2).pairs(10)
        res = system.align(pairs)
        # 10 pairs over 4 DPUs: loads 3,3,2,2
        loads = sorted((d.pairs_done for d in res.per_dpu), reverse=True)
        assert loads == [3, 3, 2, 2]

    def test_kernel_time_is_max_over_dpus(self):
        system = small_system()
        pairs = ReadPairGenerator(length=60, error_rate=0.05, seed=3).pairs(16)
        res = system.align(pairs)
        assert res.kernel_seconds == pytest.approx(
            max(d.seconds for d in res.per_dpu)
        )

    def test_timing_components_positive(self):
        system = small_system()
        pairs = ReadPairGenerator(length=60, error_rate=0.02, seed=4).pairs(8)
        res = system.align(pairs)
        assert res.kernel_seconds > 0
        assert res.transfer_in_seconds > 0
        assert res.transfer_out_seconds > 0
        assert res.total_seconds == pytest.approx(
            res.kernel_seconds
            + res.transfer_in_seconds
            + res.transfer_out_seconds
            + res.launch_seconds
        )
        assert res.throughput() > 0
        assert res.kernel_throughput() > res.throughput()

    def test_empty_batch(self):
        system = small_system()
        res = system.align([])
        assert res.pairs_simulated == 0
        assert res.kernel_seconds == 0.0
        assert res.dominant_bound() == "none"

    def test_verify_mode_passes_on_good_results(self):
        system = small_system()
        pairs = ReadPairGenerator(length=60, error_rate=0.04, seed=44).pairs(12)
        res = system.align(pairs, verify=True)
        assert res.pairs_simulated == 12

    def test_verify_mode_works_without_collect(self):
        system = small_system()
        pairs = ReadPairGenerator(length=60, error_rate=0.02, seed=45).pairs(6)
        res = system.align(pairs, collect_results=False, verify=True)
        assert res.pairs_simulated == 6

    def test_collect_results_optional(self):
        system = small_system()
        pairs = ReadPairGenerator(length=60, error_rate=0.02, seed=5).pairs(6)
        res = system.align(pairs, collect_results=False)
        assert res.results == []
        assert res.pairs_simulated == 6


class TestModelRun:
    def test_scale_factor(self):
        cfg = upmem_paper_system(num_simulated_dpus=1)
        kc = KernelConfig(penalties=PEN, max_read_len=100, max_edits=2)
        system = PimSystem(cfg, kc)
        spec = DatasetSpec(num_pairs=1_000_000, length=100, error_rate=0.02)
        res = system.model_run(spec, sample_pairs_per_dpu=16)
        load = math.ceil(1_000_000 / 2560)
        # the sample is rounded up to 2 pairs/tasklet (16 tasklets -> 32)
        k = max(16, 2 * cfg.tasklets)
        assert res.scale_factor == pytest.approx(load / k)
        assert res.num_pairs == 1_000_000
        assert res.pairs_simulated == k

    def test_full_load_sample_not_scaled(self):
        cfg = PimSystemConfig(num_dpus=64, num_ranks=1, tasklets=4, num_simulated_dpus=1)
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=1)
        system = PimSystem(cfg, kc)
        spec = DatasetSpec(num_pairs=640, length=50, error_rate=0.02)
        res = system.model_run(spec, sample_pairs_per_dpu=1000)
        assert res.scale_factor == 1.0
        assert res.pairs_simulated == 10  # ceil(640/64)

    def test_transfer_bytes_cover_whole_workload(self):
        cfg = upmem_paper_system(num_simulated_dpus=1)
        kc = KernelConfig(penalties=PEN, max_read_len=100, max_edits=2)
        system = PimSystem(cfg, kc)
        spec = DatasetSpec(num_pairs=5_000_000, length=100, error_rate=0.02)
        res = system.model_run(spec, sample_pairs_per_dpu=8)
        layout = system.plan_layout(8)
        assert res.bytes_in == 5_000_000 * layout.input_record_size + 2560 * 64
        assert res.bytes_out == 5_000_000 * layout.result_record_size

    def test_collect_results_functional(self):
        cfg = PimSystemConfig(num_dpus=8, num_ranks=1, tasklets=2, num_simulated_dpus=2)
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
        system = PimSystem(cfg, kc)
        spec = DatasetSpec(num_pairs=64, length=50, error_rate=0.04)
        res = system.model_run(spec, sample_pairs_per_dpu=4, collect_results=True)
        assert len(res.results) == 8  # 2 DPUs x 4 sample pairs
        for _idx, score, cigar in res.results:
            assert cigar is not None
            assert score >= 0

    def test_collect_results_follows_round_robin_index_contract(self):
        """Regression: model_run must label results ``d + local * num_dpus``
        (the contract align uses) and populate ``regions`` — it used to
        emit ``d * k + local`` and leave regions empty."""
        cfg = PimSystemConfig(num_dpus=8, num_ranks=1, tasklets=2, num_simulated_dpus=2)
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
        system = PimSystem(cfg, kc)
        spec = DatasetSpec(num_pairs=64, length=50, error_rate=0.04)
        res = system.model_run(spec, sample_pairs_per_dpu=4, collect_results=True)
        # k = 4 sample pairs on each of 2 simulated DPUs
        indices = [i for i, _s, _c in res.results]
        assert sorted(indices) == sorted(
            d + local * 8 for d in range(2) for local in range(4)
        )
        assert set(res.regions) == set(indices)
        for start in res.regions.values():
            assert start == (0, 0)  # global alignment: no clipping

    def test_invalid_sample_size(self):
        system = small_system()
        with pytest.raises(ConfigError):
            system.model_run(
                DatasetSpec(num_pairs=10, length=50, error_rate=0.0),
                sample_pairs_per_dpu=0,
            )

    def test_empty_spec_rejected(self):
        system = small_system()
        with pytest.raises(ConfigError):
            system.model_run(DatasetSpec(num_pairs=0, length=50, error_rate=0.0))


class TestPolicies:
    def test_wram_policy_works_at_low_tasklets(self):
        cfg = PimSystemConfig(
            num_dpus=2,
            num_ranks=1,
            tasklets=2,
            num_simulated_dpus=2,
            metadata_policy="wram",
        )
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=2)
        system = PimSystem(cfg, kc)
        pairs = ReadPairGenerator(length=60, error_rate=0.02, seed=6).pairs(8)
        res = system.align(pairs)
        assert res.metadata_policy == "wram"
        for idx, score, _ in res.results:
            assert score == gotoh_score(pairs[idx].pattern, pairs[idx].text, PEN)

    def test_admission_failure_at_construction(self):
        from repro.errors import KernelError

        cfg = PimSystemConfig(
            num_dpus=2,
            num_ranks=1,
            tasklets=24,
            num_simulated_dpus=2,
            metadata_policy="wram",
        )
        kc = KernelConfig(penalties=PEN, max_read_len=100, max_edits=4)
        with pytest.raises(KernelError):
            PimSystem(cfg, kc)


class TestLongReads:
    def test_default_tasklets_align_1000bp_reads(self):
        """Whole wavefronts do not fit 16 slices at 1000 bp; chunks do."""
        kc = KernelConfig(max_read_len=1000, max_edits=20)
        system = PimSystem(upmem_single_rank(tasklets=16), kc)
        pairs = ReadPairGenerator(length=1000, error_rate=0.02, seed=14).pairs(3)
        res = system.align(pairs, verify=True)
        assert res.tasklets == 16
        assert len(res.results) == 3
        for idx, score, cigar in res.results:
            pair = pairs[idx]
            engine = WfaEngine(
                pair.pattern, pair.text, kc.penalties, max_score=kc.max_score
            )
            assert (score, str(cigar)) == (engine.run(), str(backtrace(engine)))


class TestMemory:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_runs_leave_no_cyclic_garbage(self, engine):
        cfg = PimSystemConfig(
            num_dpus=4, num_ranks=1, tasklets=4, num_simulated_dpus=4
        )
        kc = KernelConfig(penalties=PEN, max_read_len=60, max_edits=3, engine=engine)
        system = PimSystem(cfg, kc)
        pairs = ReadPairGenerator(length=60, error_rate=0.04, seed=15).pairs(16)
        spec = DatasetSpec(num_pairs=400, length=60, error_rate=0.04, seed=2)
        gc.collect()
        gc.disable()
        try:
            system.align(pairs, verify=True)
            assert gc.collect() == 0
            system.model_run(spec, sample_pairs_per_dpu=8)
            assert gc.collect() == 0
        finally:
            gc.enable()
