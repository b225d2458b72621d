"""Tests for the functional CPU runner."""

import pytest

from repro.baselines.gotoh import gotoh_score
from repro.core.penalties import AffinePenalties
from repro.cpu.runner import CpuRunner
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError

PEN = AffinePenalties(4, 6, 2)


class TestMeasure:
    def test_counters_accumulate_over_sample(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.03, seed=1).pairs(20)
        m = CpuRunner(PEN).measure(pairs)
        assert m.pairs == 20
        assert m.counters.cells_computed > 0
        assert m.cells_per_pair == m.counters.cells_computed / 20
        assert m.metadata_bytes_per_pair > 0
        assert len(m.scores) == 20
        assert m.seq_bytes_per_pair == pytest.approx(
            sum(len(p.pattern) + len(p.text) for p in pairs) / 20
        )

    def test_scores_are_correct(self):
        pairs = ReadPairGenerator(length=50, error_rate=0.05, seed=2).pairs(10)
        m = CpuRunner(PEN).measure(pairs)
        for pair, score in zip(pairs, m.scores):
            assert score == gotoh_score(pair.pattern, pair.text, PEN)

    def test_score_only_measure_cheaper_memory(self):
        pairs = ReadPairGenerator(length=80, error_rate=0.05, seed=3).pairs(10)
        with_tb = CpuRunner(PEN, traceback=True).measure(pairs)
        without = CpuRunner(PEN, traceback=False).measure(pairs)
        assert without.counters.backtrace_ops == 0
        assert with_tb.counters.backtrace_ops > 0
        assert (
            without.counters.peak_live_bytes <= with_tb.counters.peak_live_bytes
        )

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigError):
            CpuRunner(PEN).measure([])

    def test_adaptive_mode(self):
        pairs = ReadPairGenerator(length=60, error_rate=0.03, seed=4).pairs(5)
        m = CpuRunner(PEN, adaptive=True).measure(pairs)
        assert m.pairs == 5


class TestAlignAll:
    def test_serial(self):
        pairs = ReadPairGenerator(length=40, error_rate=0.05, seed=5).pairs(8)
        results = CpuRunner(PEN).align_all(pairs)
        assert len(results) == 8
        for pair, res in zip(pairs, results):
            assert res.score == gotoh_score(pair.pattern, pair.text, PEN)
            res.cigar.validate(pair.pattern, pair.text)
