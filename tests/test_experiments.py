"""Tests for the Fig. 1 harness and the sweeps (shape assertions).

These run miniature versions of every experiment and assert the *shape*
properties the paper reports — the same checks EXPERIMENTS.md documents.
"""

import math

import pytest

from repro.experiments.fig1 import Fig1Config, run_fig1
from repro.experiments.sweeps import (
    algorithm_comparison,
    allocator_policy_ablation,
    dpu_count_sweep,
    error_rate_sweep,
    read_length_sweep,
    tasklet_sweep,
)


@pytest.fixture(scope="module")
def fig1():
    return run_fig1(
        Fig1Config(
            cpu_sample_pairs=120,
            pim_sample_pairs_per_dpu=24,
            num_simulated_dpus=1,
        )
    )


class TestFig1(object):
    def test_two_panels(self, fig1):
        assert [p.error_rate for p in fig1.panels] == [0.02, 0.04]

    def test_pim_beats_cpu_at_both_rates(self, fig1):
        """The paper's headline: PIM total > 1x over 56-thread CPU."""
        for p in fig1.panels:
            assert p.total_speedup > 2.0
            assert p.kernel_speedup > p.total_speedup

    def test_speedups_in_paper_ballpark(self, fig1):
        """Within 2x of every published headline number."""
        from repro.perf.calibration import PAPER_TARGETS

        p2 = fig1.panel(0.02)
        p4 = fig1.panel(0.04)
        assert 0.5 < p2.total_speedup / PAPER_TARGETS.total_speedup_e2 < 2.0
        assert 0.5 < p4.total_speedup / PAPER_TARGETS.total_speedup_e4 < 2.0
        assert 0.5 < p2.kernel_speedup / PAPER_TARGETS.kernel_speedup_e2 < 2.0
        assert 0.5 < p4.kernel_speedup / PAPER_TARGETS.kernel_speedup_e4 < 2.0

    def test_kernel_advantage_shrinks_with_error_rate(self, fig1):
        """Paper: 37.4x at E=2% vs 12.3x at E=4%."""
        assert fig1.panel(0.02).kernel_speedup > fig1.panel(0.04).kernel_speedup

    def test_cpu_scaling_flattens(self, fig1):
        for p in fig1.panels:
            times = [b.seconds for b in p.cpu_curve]
            threads = [b.threads for b in p.cpu_curve]
            assert threads == [1, 2, 4, 8, 16, 32, 56]
            assert times == sorted(times, reverse=True)
            # near-linear early, flat late
            assert times[0] / times[2] > 3.0
            assert times[4] / times[6] < 1.5

    def test_transfer_dominates_pim_total(self, fig1):
        """Paper: Kernel-only speedup is ~8x Total at E=2% — transfers
        dominate the PIM end-to-end time."""
        p = fig1.panel(0.02)
        assert p.pim.transfer_seconds > p.pim.kernel_seconds

    def test_kernel_time_grows_with_error_rate(self, fig1):
        assert fig1.panel(0.04).pim.kernel_seconds > fig1.panel(0.02).pim.kernel_seconds

    def test_report_renders(self, fig1):
        text = fig1.report()
        assert "Fig. 1 panel E=2%" in text
        assert "PIM-Kernel" in text
        assert "paper vs measured" in text

    def test_comparison_rows_complete(self, fig1):
        rows = fig1.comparison_rows()
        assert len(rows) == 4

    def test_panel_lookup(self, fig1):
        assert fig1.panel(0.02).error_rate == 0.02
        with pytest.raises(KeyError):
            fig1.panel(0.5)


class TestTaskletSweep:
    def test_monotone_then_flat(self):
        res = tasklet_sweep(tasklet_counts=(1, 2, 4, 8, 16), sample_pairs_per_dpu=16)
        ks = res.series("kernel_s")
        assert ks[0] > ks[1] > ks[2] > ks[3] * 0.999
        assert ks[4] <= ks[3] * 1.001

    def test_report(self):
        res = tasklet_sweep(tasklet_counts=(1, 4), sample_pairs_per_dpu=8)
        assert "tasklet sweep" in res.report()


class TestAllocatorAblation:
    def test_mram_policy_wins(self):
        res = allocator_policy_ablation(sample_pairs_per_dpu=12)
        by_label = {r.label: r.values for r in res.rows}
        assert by_label["mram"]["max_tasklets"] == 24
        assert by_label["wram"]["max_tasklets"] < 8
        assert by_label["mram"]["kernel_s"] < by_label["wram"]["kernel_s"]


class TestExtensionSweeps:
    def test_error_rate_sweep_monotone_kernel(self):
        res = error_rate_sweep(rates=(0.01, 0.04, 0.08), sample_pairs_per_dpu=8)
        ks = res.series("kernel_s")
        assert ks[0] < ks[1] < ks[2]

    def test_read_length_sweep_runs(self):
        res = read_length_sweep(lengths=(100, 200), sample_pairs_per_dpu=4)
        assert len(res.rows) == 2
        assert all(r.values["kernel_s"] > 0 for r in res.rows)

    def test_dpu_count_sweep_kernel_scales_transfers_do_not(self):
        res = dpu_count_sweep(dpu_counts=(64, 256, 1280), sample_pairs_per_dpu=12)
        ks = res.series("kernel_s")
        totals = res.series("total_s")
        assert ks[0] > ks[1] > ks[2]
        # total time is eventually transfer-bound: sublinear improvement
        assert totals[0] / totals[2] < ks[0] / ks[2]

    def test_algorithm_comparison_wfa_wins(self):
        res = algorithm_comparison(error_rates=(0.02,), sample_pairs_per_dpu=8)
        assert res.speedup(0.02) > 1.0
        by_label = {r.label.split("(")[0]: r.values for r in res.results[0.02].rows}
        assert by_label["wfa"]["kernel_s"] < by_label["banded"]["kernel_s"]
        assert by_label["wfa"]["cells_per_pair"] < by_label["banded"]["cells_per_pair"]
