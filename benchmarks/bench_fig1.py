"""Fig. 1 — the paper's headline figure (experiment index: Fig. 1, Obs. 2).

Regenerates both panels of "Time for aligning 5 million read pairs using
WFA": CPU bars at 1..56 threads, PIM Kernel and PIM Total, for E in
{2%, 4%}, plus the paper-vs-measured speedup block.
"""

from conftest import emit

from repro.experiments.fig1 import Fig1Config, run_fig1
from repro.perf.calibration import PAPER_TARGETS


def test_fig1_full(benchmark):
    # Fig1Config() defaults: the same sampling as `repro fig1`, the
    # example script and the benchmark's experiments.fig1.* metrics.
    result = benchmark.pedantic(
        lambda: run_fig1(Fig1Config()), rounds=1, iterations=1
    )
    emit("fig1", result.report())

    # Shape assertions: who wins, by roughly what factor.
    p2, p4 = result.panel(0.02), result.panel(0.04)
    assert p2.total_speedup > 1.0 and p4.total_speedup > 1.0
    assert 0.5 < p2.total_speedup / PAPER_TARGETS.total_speedup_e2 < 2.0
    assert 0.5 < p4.total_speedup / PAPER_TARGETS.total_speedup_e4 < 2.0
    assert 0.5 < p2.kernel_speedup / PAPER_TARGETS.kernel_speedup_e2 < 2.0
    assert 0.5 < p4.kernel_speedup / PAPER_TARGETS.kernel_speedup_e4 < 2.0
    assert p2.kernel_speedup > p4.kernel_speedup  # crossover direction
