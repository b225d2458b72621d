"""Abl. A — the paper's allocator design choice (experiment index).

"Since a DPU's 64KB WRAM is shared among all threads, we cannot fit the
WFA metadata for all threads in WRAM without sacrificing the number of
threads.  Hence, to unleash the maximum threads, we store the metadata in
MRAM and transfer it to/from WRAM on demand."

This bench quantifies exactly that: max admissible tasklets and resulting
kernel time under each metadata placement policy.
"""

from conftest import emit

from repro.experiments.sweeps import allocator_policy_ablation


def test_allocator_policy(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep allocator`
    result = benchmark.pedantic(allocator_policy_ablation, rounds=1, iterations=1)
    emit("allocator_policy", result.report())

    values = {r.label: r.values for r in result.rows}
    assert values["mram"]["max_tasklets"] == 24  # "unleash the maximum threads"
    assert values["wram"]["max_tasklets"] <= 6  # "sacrificing the number of threads"
    assert values["mram"]["kernel_s"] < values["wram"]["kernel_s"]
