"""Tests for the analysis package (batch statistics)."""

import pytest

from repro.analysis import Distribution, summarize_results
from repro.core.aligner import WavefrontAligner
from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError

PEN = AffinePenalties(4, 6, 2)


@pytest.fixture(scope="module")
def results():
    pairs = ReadPairGenerator(length=80, error_rate=0.04, seed=20).pairs(40)
    aligner = WavefrontAligner(PEN)
    return [aligner.align(p.pattern, p.text) for p in pairs]


class TestDistribution:
    def test_basic(self):
        d = Distribution.of([1, 2, 3, 4, 5])
        assert d.count == 5
        assert d.mean == 3
        assert d.median == 3
        assert d.minimum == 1 and d.maximum == 5

    def test_single_value(self):
        d = Distribution.of([7])
        assert d.mean == d.median == d.minimum == d.maximum == 7

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Distribution.of([])

    def test_describe(self):
        assert "n=3" in Distribution.of([1, 2, 3]).describe()


class TestBatchStats:
    def test_summarize(self, results):
        stats = summarize_results(results)
        assert stats.scores.count == 40
        assert 0 <= stats.scores.mean <= 4 * 8  # <= budget * per-edit cost
        assert 0.8 < stats.identities.mean <= 1.0
        assert stats.op_totals["M"] > 0
        assert stats.exact_fraction == 1.0
        assert sum(stats.score_histogram.values()) == 40

    def test_rates(self, results):
        stats = summarize_results(results)
        assert 0 <= stats.mismatch_rate < 0.1
        assert 0 <= stats.gap_rate < 0.1

    def test_report_renders(self, results):
        text = summarize_results(results).report()
        assert "scores" in text and "identities" in text

    def test_score_only_batch(self):
        pairs = ReadPairGenerator(length=40, error_rate=0.02, seed=21).pairs(5)
        aligner = WavefrontAligner(PEN)
        res = [aligner.align(p.pattern, p.text, score_only=True) for p in pairs]
        stats = summarize_results(res)
        assert stats.scores.count == 5
        assert stats.op_totals == {"M": 0, "X": 0, "I": 0, "D": 0}

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize_results([])
