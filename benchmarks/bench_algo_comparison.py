"""Ext. E — future work: other alignment algorithms on PIM (experiment index).

WFA vs classical banded Gotoh DP, both as score-only DPU kernels on the
same simulated hardware.  On low-error reads WFA computes an order of
magnitude fewer cells — the reason it is the state of the art that the
paper ports.
"""

from conftest import emit

from repro.experiments.sweeps import algorithm_comparison


def test_wfa_vs_banded_on_dpu(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep algos`
    result = benchmark.pedantic(algorithm_comparison, rounds=1, iterations=1)
    emit("algo_comparison", result.report())

    for e in result.results:
        assert result.speedup(e) > 1.0  # WFA's kernel beats banded DP
