"""Ext. I — metadata staging granularity on long reads (experiment index).

The paper's whole-wavefront staging sizes WRAM buffers by the score
bound, which collapses tasklet admission on long reads (the obstacle
behind its "longer read lengths" future work).  Chunked staging keeps
WRAM constant per tasklet and recovers the thread count; the ``auto``
row is the chunk the WRAM planner picks when none is configured.
"""

from conftest import emit

from repro.experiments.sweeps import staging_chunk_ablation


def test_staging_granularity(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep staging`
    result = benchmark.pedantic(staging_chunk_ablation, rounds=1, iterations=1)
    emit("staging_chunk", result.report())

    rows = {r.label: r.values for r in result.rows}
    # the planner's own pick beats whole wavefronts on both counts
    assert rows["auto"]["tasklets"] > rows["whole"]["tasklets"]
    assert rows["auto"]["kernel_s"] < rows["whole"]["kernel_s"]
    # chunked staging admits strictly more tasklets than whole-wavefront...
    assert rows["256B"]["tasklets"] > rows["whole"]["tasklets"]
    # ...and converts that into net kernel time despite extra DMA setups.
    assert rows["256B"]["kernel_s"] < rows["whole"]["kernel_s"]
