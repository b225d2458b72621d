"""Ext. D — future work: higher edit-distance thresholds (experiment index).

WFA's work grows ~quadratically with the alignment score, so kernel time
should grow super-linearly in E while the transfer time stays flat —
shrinking PIM's kernel-only advantage exactly as Fig. 1's E=2% vs 4%
columns already hint (37.4x -> 12.3x).
"""

from conftest import emit

from repro.experiments.sweeps import error_rate_sweep


def test_error_rate_scaling(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep error-rate`
    result = benchmark.pedantic(error_rate_sweep, rounds=1, iterations=1)
    emit("error_rate_sweep", result.report())

    kernel = result.series("kernel_s")
    total = result.series("total_s")
    # kernel time strictly increases with E
    assert all(a < b for a, b in zip(kernel, kernel[1:]))
    # super-linear growth: E 2% -> 8% (4x) costs more than 4x kernel time
    assert kernel[4] / kernel[1] > 4.0
    # transfers flat: total grows much slower than kernel
    assert total[-1] / total[0] < kernel[-1] / kernel[0]
