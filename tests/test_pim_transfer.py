"""Tests for the host transfer engine."""

import pytest

from repro.data.generator import ReadPairGenerator
from repro.errors import LayoutError
from repro.pim.config import DpuConfig, HostTransferConfig
from repro.pim.dpu import Dpu
from repro.pim.layout import MramLayout
from repro.pim.transfer import HostTransferEngine


@pytest.fixture
def layout():
    return MramLayout.plan(
        num_pairs=8,
        max_pattern_len=32,
        max_text_len=32,
        max_cigar_ops=5,
        tasklets=2,
        metadata_bytes_per_tasklet=512,
    )


@pytest.fixture
def engine():
    return HostTransferEngine(HostTransferConfig())


class TestFunctionalPath:
    def test_push_writes_header_and_records(self, layout, engine):
        pairs = ReadPairGenerator(length=30, error_rate=0.0, seed=1).pairs(5)
        dpu = Dpu(DpuConfig())
        moved = engine.push_batch(dpu, layout, pairs)
        assert moved == 64 + 5 * layout.input_record_size
        parsed = MramLayout.read_header(dpu.mram)
        assert parsed == layout
        back = layout.unpack_pair(
            dpu.mram.read(layout.input_addr(2), layout.input_record_size)
        )
        assert back.pattern == pairs[2].pattern

    def test_push_overflow_rejected(self, layout, engine):
        pairs = ReadPairGenerator(length=30, error_rate=0.0, seed=1).pairs(9)
        with pytest.raises(LayoutError):
            engine.push_batch(Dpu(DpuConfig()), layout, pairs)

    def test_pull_roundtrip(self, layout, engine):
        dpu = Dpu(DpuConfig())
        record = layout.pack_result(7, None)
        dpu.mram.write(layout.result_addr(0), record)
        results, moved = engine.pull_results_full(dpu, layout, 1)
        assert results == [(7, None, 0, 0)]
        assert moved == layout.result_record_size

    def test_pull_overflow_rejected(self, layout, engine):
        with pytest.raises(LayoutError):
            engine.pull_results_full(Dpu(DpuConfig()), layout, 9)

    def test_push_accounting_uses_layout_header_constant(self, layout, monkeypatch):
        """Regression: push accounting must track ``layout.HEADER_BYTES``,
        not a hardcoded 64, or it silently diverges from
        ``PimSystem._system_bytes`` if the header ever changes."""
        import repro.pim.transfer as transfer_mod

        monkeypatch.setattr(transfer_mod, "HEADER_BYTES", 128)
        engine = HostTransferEngine(HostTransferConfig())
        pairs = ReadPairGenerator(length=30, error_rate=0.0, seed=1).pairs(3)
        moved = engine.push_batch(Dpu(DpuConfig()), layout, pairs)
        assert moved == 128 + 3 * layout.input_record_size
        assert engine.stats.bytes_to_dpu == moved

    def test_stats_merge(self, layout, engine):
        from repro.pim.transfer import TransferStats

        a = TransferStats(bytes_to_dpu=10, bytes_from_dpu=20, pushes=1, pulls=2)
        a.merge(TransferStats(bytes_to_dpu=5, bytes_from_dpu=7, pushes=3, pulls=4))
        assert a == TransferStats(
            bytes_to_dpu=15, bytes_from_dpu=27, pushes=4, pulls=6
        )

    def test_stats_accumulate(self, layout, engine):
        pairs = ReadPairGenerator(length=30, error_rate=0.0, seed=1).pairs(2)
        dpu = Dpu(DpuConfig())
        engine.push_batch(dpu, layout, pairs)
        engine.pull_results_full(dpu, layout, 2)
        assert engine.stats.pushes == 1
        assert engine.stats.pulls == 1
        assert engine.stats.bytes_to_dpu > 0
        assert engine.stats.bytes_from_dpu == 2 * layout.result_record_size


class TestTimingModel:
    def test_seconds_linear_in_bytes(self, engine):
        assert engine.to_dpu_seconds(2_000_000) == pytest.approx(
            2 * engine.to_dpu_seconds(1_000_000)
        )
        assert engine.from_dpu_seconds(0) == 0.0

    def test_uses_effective_bandwidths(self):
        cfg = HostTransferConfig(
            effective_to_dpu_bytes_per_s=1e9, effective_from_dpu_bytes_per_s=5e8
        )
        e = HostTransferEngine(cfg)
        assert e.to_dpu_seconds(1e9) == pytest.approx(1.0)
        assert e.from_dpu_seconds(1e9) == pytest.approx(2.0)

    def test_launch_overhead(self):
        e = HostTransferEngine(HostTransferConfig(launch_overhead_s=0.25))
        assert e.launch_seconds() == 0.25

    def test_rank_bound_on_small_systems(self):
        cfg = HostTransferConfig(
            effective_to_dpu_bytes_per_s=6.6e9,
            per_rank_to_dpu_bytes_per_s=0.7e9,
        )
        e = HostTransferEngine(cfg)
        nbytes = int(1e9)
        # one rank: per-rank bandwidth binds
        assert e.to_dpu_seconds(nbytes, num_ranks=1) == pytest.approx(1e9 / 0.7e9)
        # forty ranks: aggregate binds
        assert e.to_dpu_seconds(nbytes, num_ranks=40) == pytest.approx(1e9 / 6.6e9)

    def test_rank_bound_crossover(self):
        e = HostTransferEngine(HostTransferConfig())
        nbytes = int(1e9)
        times = [e.to_dpu_seconds(nbytes, r) for r in (1, 2, 4, 8, 16, 40)]
        # monotone non-increasing, saturating at the aggregate limit
        assert all(a >= b for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(e.to_dpu_seconds(nbytes))

    def test_zero_ranks_means_aggregate_only(self):
        e = HostTransferEngine(HostTransferConfig())
        assert e.from_dpu_seconds(1000, 0) == e.from_dpu_seconds(1000)
