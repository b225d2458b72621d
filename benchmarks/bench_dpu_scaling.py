"""Ext. G — system-size scaling (experiment index).

Kernel time scales down linearly with the number of DPUs (the workload is
embarrassingly parallel) while host transfer time does not — so
end-to-end speedup saturates, which is why the paper reports Kernel and
Total separately.
"""

from conftest import emit

from repro.experiments.sweeps import dpu_count_sweep


def test_dpu_count_scaling(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep dpus`
    result = benchmark.pedantic(dpu_count_sweep, rounds=1, iterations=1)
    emit("dpu_count_sweep", result.report())

    kernel = result.series("kernel_s")
    total = result.series("total_s")
    # kernel scales ~linearly with DPUs (40x DPUs -> >10x kernel gain)
    assert kernel[0] / kernel[-1] > 10.0
    # total saturates well below the kernel gain (transfer floor)
    assert total[0] / total[-1] < 0.5 * kernel[0] / kernel[-1]
