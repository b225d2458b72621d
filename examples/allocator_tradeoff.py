#!/usr/bin/env python3
"""Explore the paper's central design trade-off: where does WFA metadata live?

For each metadata placement policy ("wram" vs the paper's "mram") and a
range of edit budgets, this prints how many tasklets the 64 KB shared
WRAM admits and what the resulting kernel throughput is — the
quantitative version of the paper's argument that MRAM-resident metadata
"unleashes the maximum threads".

Run:  python examples/allocator_tradeoff.py
"""

from repro import AffinePenalties
from repro.experiments import allocator_policy_ablation, tasklet_sweep
from repro.perf import format_table
from repro.pim import DpuConfig, KernelConfig, WfaDpuKernel, max_supported_tasklets


def admission_table() -> None:
    """Tasklet admission vs edit budget, per policy."""
    rows = []
    for max_edits in (1, 2, 4, 6, 8, 12):
        kc = KernelConfig(penalties=AffinePenalties(), max_edits=max_edits)
        kernel = WfaDpuKernel(kc)
        rows.append(
            (
                f"{max_edits} edits (score<= {kc.max_score})",
                f"{kc.metadata_peak_bytes():,} B",
                max_supported_tasklets(kernel, DpuConfig(), "wram"),
                max_supported_tasklets(kernel, DpuConfig(), "mram"),
            )
        )
    print(
        format_table(
            ["edit budget", "peak metadata/alignment", "wram tasklets", "mram tasklets"],
            rows,
            title="tasklet admission: 64 KB WRAM shared by all tasklets",
        )
    )


def main() -> None:
    admission_table()
    print()
    # the sweeps' defaults: the tables `repro sweep allocator` and
    # `repro sweep tasklets` print
    print(allocator_policy_ablation().report())
    print()
    print(tasklet_sweep().report())
    print()
    print(
        "Reading: the 'wram' policy starves thread-level parallelism exactly\n"
        "as the paper describes; the 'mram' policy admits all 24 tasklets and\n"
        "rides the 11-deep revolving pipeline to ~1 instruction/cycle."
    )


if __name__ == "__main__":
    main()
