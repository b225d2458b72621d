"""Abl. B — DPU kernel time vs tasklet count (experiment index).

The revolving 11-cycle pipeline means a DPU only reaches one instruction
per cycle with >= 11 active tasklets (PrIM); kernel time should fall
steeply to ~11 tasklets and flatten after.
"""

from conftest import emit

from repro.experiments.sweeps import tasklet_sweep


def test_tasklet_scaling(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep tasklets`
    result = benchmark.pedantic(tasklet_sweep, rounds=1, iterations=1)
    emit("tasklet_sweep", result.report())

    ks = result.series("kernel_s")
    # steep improvement up to the pipeline depth...
    assert ks[0] / ks[4] > 5.0  # 1T -> 11T
    # ...then saturation (within 10% from 11 to 24 tasklets)
    assert max(ks[4:]) / min(ks[4:]) < 1.35
