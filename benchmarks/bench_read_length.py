"""Ext. C — future work: scaling to longer read lengths (experiment index).

Holds total bases fixed while lengthening reads; WFA work per base grows
with the absolute per-read error count (score^2 term), so throughput in
bases/s should degrade gracefully with length at fixed error *rate*.
"""

from conftest import emit

from repro.experiments.sweeps import read_length_sweep


def test_read_length_scaling(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep read-length`
    result = benchmark.pedantic(read_length_sweep, rounds=1, iterations=1)
    emit("read_length_sweep", result.report())

    pairs_per_s = result.series("pairs_per_s")
    # longer reads = fewer pairs/s, monotonically
    assert all(a > b for a, b in zip(pairs_per_s, pairs_per_s[1:]))
    kernel = result.series("kernel_s")
    assert all(k > 0 for k in kernel)
