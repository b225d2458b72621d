"""Ablations and extension sweeps (DESIGN.md experiment index, rows A-F).

* :func:`tasklet_sweep` — DPU kernel time vs tasklet count (Abl. B:
  the 11-stage pipeline makes tasklets nearly free up to ~11).
* :func:`allocator_policy_ablation` — the paper's central design choice
  (Abl. A): metadata in MRAM admits all 24 tasklets; metadata in WRAM
  collapses the admissible tasklet count (and with it throughput).
* :func:`read_length_sweep` / :func:`error_rate_sweep` — the paper's
  named future work (Ext. C/D): scaling to longer reads and higher E.
* :func:`algorithm_comparison` — WFA vs banded-DP DPU kernels (Ext. E).

All sweeps use the sampled-measurement methodology of
:meth:`~repro.pim.system.PimSystem.model_run`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.penalties import AffinePenalties, Penalties
from repro.baselines.banded import band_for_error_rate
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPairGenerator
from repro.errors import KernelError
from repro.perf.report import format_table
from repro.pim.config import DpuConfig, PimSystemConfig, upmem_paper_system
from repro.pim.dpu import Dpu
from repro.pim.kernel import KernelConfig, WfaDpuKernel, max_supported_tasklets
from repro.pim.kernel_banded import BandedDpuKernel, BandedKernelConfig
from repro.pim.layout import MramLayout
from repro.pim.system import PimSystem
from repro.pim.transfer import HostTransferEngine

__all__ = [
    "SweepRow",
    "SweepResult",
    "AlgorithmComparison",
    "tasklet_sweep",
    "allocator_policy_ablation",
    "read_length_sweep",
    "error_rate_sweep",
    "algorithm_comparison",
    "dpu_count_sweep",
]


@dataclass
class SweepRow:
    """One sweep point: a label plus named measurements."""

    label: str
    values: dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    """A named sweep with uniform row schema."""

    name: str
    columns: list[str]
    rows: list[SweepRow]

    def report(self) -> str:
        return format_table(
            ["point"] + self.columns,
            [
                [r.label] + [f"{r.values.get(c, float('nan')):.5g}" for c in self.columns]
                for r in self.rows
            ],
            title=self.name,
        )

    def series(self, column: str) -> list[float]:
        return [r.values[column] for r in self.rows]


def _default_spec(error_rate: float = 0.02, length: int = 100) -> DatasetSpec:
    return DatasetSpec(
        num_pairs=5_000_000, length=length, error_rate=error_rate, seed=0
    )


def tasklet_sweep(
    error_rate: float = 0.02,
    tasklet_counts: tuple[int, ...] = (1, 2, 4, 8, 11, 16, 20, 24),
    metadata_policy: str = "mram",
    sample_pairs_per_dpu: int = 48,
    penalties: Penalties | None = None,
) -> SweepResult:
    """Kernel time vs tasklets (Abl. B).  Inadmissible points are skipped."""
    pen = penalties if penalties is not None else AffinePenalties()
    spec = _default_spec(error_rate)
    rows: list[SweepRow] = []
    for t in tasklet_counts:
        try:
            cfg = upmem_paper_system(
                tasklets=t, num_simulated_dpus=1, metadata_policy=metadata_policy
            )
            kc = KernelConfig(
                penalties=pen,
                max_read_len=spec.length,
                max_edits=max(spec.edit_budget, 1),
            )
            system = PimSystem(cfg, kc)
        except KernelError:
            rows.append(
                SweepRow(label=f"{t}T", values={"kernel_s": float("nan"), "admitted": 0})
            )
            continue
        res = system.model_run(spec, sample_pairs_per_dpu=sample_pairs_per_dpu)
        rows.append(
            SweepRow(
                label=f"{t}T",
                values={
                    "kernel_s": res.kernel_seconds,
                    "total_s": res.total_seconds,
                    "admitted": 1,
                },
            )
        )
    return SweepResult(
        name=f"tasklet sweep (E={error_rate:.0%}, policy={metadata_policy})",
        columns=["kernel_s", "total_s", "admitted"],
        rows=rows,
    )


def allocator_policy_ablation(
    error_rate: float = 0.04,
    sample_pairs_per_dpu: int = 32,
    penalties: Penalties | None = None,
) -> SweepResult:
    """MRAM- vs WRAM-resident metadata (Abl. A, the paper's key design).

    For each policy: the maximum admissible tasklet count and the kernel
    time at that count.  The MRAM policy should admit the full 24 and win
    on throughput — the paper's argument for its allocator.
    """
    pen = penalties if penalties is not None else AffinePenalties()
    spec = _default_spec(error_rate)
    kc = KernelConfig(
        penalties=pen, max_read_len=spec.length, max_edits=max(spec.edit_budget, 1)
    )
    kernel = WfaDpuKernel(kc)
    rows: list[SweepRow] = []
    base = upmem_paper_system(num_simulated_dpus=1)
    for policy in ("wram", "mram"):
        best_t = max_supported_tasklets(kernel, base.dpu, policy)
        if best_t == 0:
            rows.append(
                SweepRow(label=policy, values={"max_tasklets": 0, "kernel_s": float("nan")})
            )
            continue
        cfg = upmem_paper_system(
            tasklets=best_t, num_simulated_dpus=1, metadata_policy=policy
        )
        system = PimSystem(cfg, kc)
        res = system.model_run(spec, sample_pairs_per_dpu=sample_pairs_per_dpu)
        rows.append(
            SweepRow(
                label=policy,
                values={
                    "max_tasklets": best_t,
                    "kernel_s": res.kernel_seconds,
                    "total_s": res.total_seconds,
                },
            )
        )
    return SweepResult(
        name=f"allocator policy ablation (E={error_rate:.0%})",
        columns=["max_tasklets", "kernel_s", "total_s"],
        rows=rows,
    )


def _admitted_tasklets(kc: KernelConfig, preferred: int = 16) -> int:
    """Largest usable tasklet count <= ``preferred`` for this kernel.

    Bigger scores mean wider wavefronts; where whole-wavefront staging
    buffers no longer fit a tasklet's WRAM slice the planner stages in
    chunks instead, so only reads whose input and result records alone
    crowd the slice force fewer tasklets.  Sweeps report the admitted
    count.
    """
    base = upmem_paper_system(num_simulated_dpus=1)
    cap = max_supported_tasklets(WfaDpuKernel(kc), base.dpu, "mram")
    return min(preferred, cap)


def read_length_sweep(
    lengths: tuple[int, ...] = (100, 200, 500, 1000),
    error_rate: float = 0.02,
    sample_pairs_per_dpu: int = 6,
    penalties: Penalties | None = None,
) -> SweepResult:
    """Future work Ext. C: scaling to longer reads.

    The workload holds total bases constant-ish per DPU by reducing the
    pair count with length, as a real sequencing workload would.
    """
    pen = penalties if penalties is not None else AffinePenalties()
    rows: list[SweepRow] = []
    for length in lengths:
        num_pairs = 5_000_000 * 100 // length
        spec = DatasetSpec(
            num_pairs=num_pairs, length=length, error_rate=error_rate, seed=0
        )
        kc = KernelConfig(
            penalties=pen, max_read_len=length, max_edits=max(spec.edit_budget, 1)
        )
        tasklets = _admitted_tasklets(kc)
        if tasklets == 0:
            rows.append(
                SweepRow(
                    label=f"{length}bp",
                    values={
                        "tasklets": 0,
                        "kernel_s": float("nan"),
                        "total_s": float("nan"),
                        "pairs_per_s": float("nan"),
                        "bases_per_s": float("nan"),
                    },
                )
            )
            continue
        cfg = upmem_paper_system(tasklets=tasklets, num_simulated_dpus=1)
        system = PimSystem(cfg, kc)
        res = system.model_run(spec, sample_pairs_per_dpu=sample_pairs_per_dpu)
        rows.append(
            SweepRow(
                label=f"{length}bp",
                values={
                    "tasklets": tasklets,
                    "kernel_s": res.kernel_seconds,
                    "total_s": res.total_seconds,
                    "pairs_per_s": res.throughput(),
                    "bases_per_s": res.throughput() * 2 * length,
                },
            )
        )
    return SweepResult(
        name=f"read length sweep (E={error_rate:.0%}, constant total bases)",
        columns=["tasklets", "kernel_s", "total_s", "pairs_per_s", "bases_per_s"],
        rows=rows,
    )


def error_rate_sweep(
    rates: tuple[float, ...] = (0.01, 0.02, 0.04, 0.06, 0.08, 0.10),
    sample_pairs_per_dpu: int = 12,
    penalties: Penalties | None = None,
) -> SweepResult:
    """Future work Ext. D: higher edit-distance thresholds."""
    pen = penalties if penalties is not None else AffinePenalties()
    rows: list[SweepRow] = []
    for rate in rates:
        spec = _default_spec(rate)
        kc = KernelConfig(
            penalties=pen,
            max_read_len=spec.length,
            max_edits=max(spec.edit_budget, 1),
        )
        tasklets = _admitted_tasklets(kc)
        if tasklets == 0:
            rows.append(
                SweepRow(
                    label=f"E={rate:.0%}",
                    values={
                        "tasklets": 0,
                        "kernel_s": float("nan"),
                        "total_s": float("nan"),
                        "pairs_per_s": float("nan"),
                    },
                )
            )
            continue
        cfg = upmem_paper_system(tasklets=tasklets, num_simulated_dpus=1)
        system = PimSystem(cfg, kc)
        res = system.model_run(spec, sample_pairs_per_dpu=sample_pairs_per_dpu)
        rows.append(
            SweepRow(
                label=f"E={rate:.0%}",
                values={
                    "tasklets": tasklets,
                    "kernel_s": res.kernel_seconds,
                    "total_s": res.total_seconds,
                    "pairs_per_s": res.throughput(),
                },
            )
        )
    return SweepResult(
        name="error rate sweep (100bp, 5M pairs)",
        columns=["tasklets", "kernel_s", "total_s", "pairs_per_s"],
        rows=rows,
    )


def dpu_count_sweep(
    dpu_counts: tuple[int, ...] = (64, 256, 640, 1280, 2560),
    error_rate: float = 0.02,
    sample_pairs_per_dpu: int = 32,
) -> SweepResult:
    """System-size scaling: kernel time shrinks with DPUs, transfers don't."""
    rows: list[SweepRow] = []
    spec = _default_spec(error_rate)
    for num in dpu_counts:
        cfg = PimSystemConfig(
            num_dpus=num,
            num_ranks=max(1, num // 64),
            tasklets=16,
            num_simulated_dpus=1,
        )
        kc = KernelConfig(
            max_read_len=spec.length, max_edits=max(spec.edit_budget, 1)
        )
        system = PimSystem(cfg, kc)
        res = system.model_run(spec, sample_pairs_per_dpu=sample_pairs_per_dpu)
        rows.append(
            SweepRow(
                label=f"{num}DPU",
                values={
                    "kernel_s": res.kernel_seconds,
                    "total_s": res.total_seconds,
                    "pairs_per_s": res.throughput(),
                },
            )
        )
    return SweepResult(
        name=f"DPU count sweep (E={error_rate:.0%})",
        columns=["kernel_s", "total_s", "pairs_per_s"],
        rows=rows,
    )


def _whole_wavefront_tasklets(kernel: WfaDpuKernel, dpu: DpuConfig) -> int:
    """Largest tasklet count whose plan stages whole wavefronts (0 if none)."""
    best = 0
    for t in range(1, dpu.max_tasklets + 1):
        try:
            plan = kernel.plan_wram(dpu, t, "mram")
        except KernelError:
            continue
        if plan.staging_chunk is None:
            best = t
    return best


def staging_chunk_ablation(
    length: int = 1000,
    error_rate: float = 0.02,
    chunks: tuple[int, ...] = (1024, 512, 256, 128),
    sample_pairs_per_dpu: int = 4,
    penalties: Penalties | None = None,
) -> SweepResult:
    """Ext. I: whole-wavefront vs chunked metadata staging on long reads.

    Whole-wavefront staging sizes WRAM buffers by the score bound, which
    starves tasklets on long reads; fixed-size chunks keep WRAM constant
    at the price of more DMA transfers.  Rows: ``whole`` runs at the
    largest tasklet count whose plan keeps whole wavefronts (the paper's
    baseline design), ``auto`` at up to 16 tasklets with the chunk the
    WRAM planner picks, then one row per fixed chunk in ``chunks``.  The
    sweep shows the trade: chunked staging recovers tasklet admission
    (and usually net kernel time) exactly where the paper's future work
    needs it.
    """
    pen = penalties if penalties is not None else AffinePenalties()
    spec = DatasetSpec(
        num_pairs=500_000, length=length, error_rate=error_rate, seed=0
    )
    base = upmem_paper_system(num_simulated_dpus=1)
    variants = [("whole", None), ("auto", None)]
    variants += [(f"{chunk}B", chunk) for chunk in chunks]
    rows: list[SweepRow] = []
    for label, chunk in variants:
        kc = KernelConfig(
            penalties=pen,
            max_read_len=length,
            max_edits=max(spec.edit_budget, 1),
            staging_chunk_bytes=chunk,
        )
        kernel = WfaDpuKernel(kc)
        if label == "whole":
            cap = _whole_wavefront_tasklets(kernel, base.dpu)
        else:
            cap = max_supported_tasklets(kernel, base.dpu, "mram")
        if cap == 0:
            rows.append(
                SweepRow(
                    label=label,
                    values={"tasklets": 0, "kernel_s": float("nan")},
                )
            )
            continue
        tasklets = min(16, cap)
        cfg = upmem_paper_system(tasklets=tasklets, num_simulated_dpus=1)
        system = PimSystem(cfg, kc)
        res = system.model_run(spec, sample_pairs_per_dpu=sample_pairs_per_dpu)
        rows.append(
            SweepRow(
                label=label,
                values={
                    "tasklets": tasklets,
                    "kernel_s": res.kernel_seconds,
                    "total_s": res.total_seconds,
                },
            )
        )
    return SweepResult(
        name=f"metadata staging granularity ({length}bp, E={error_rate:.0%})",
        columns=["tasklets", "kernel_s", "total_s"],
        rows=rows,
    )


@dataclass
class AlgorithmComparison:
    """Ext. E: one WFA-vs-banded table per error threshold, plus WFA's
    kernel speedup over banded DP at each."""

    results: dict[float, SweepResult]

    def speedup(self, error_rate: float) -> float:
        """Banded kernel seconds over WFA kernel seconds at one threshold."""
        vals = {r.label.split("(")[0]: r.values for r in self.results[error_rate].rows}
        return vals["banded"]["kernel_s"] / vals["wfa"]["kernel_s"]

    def report(self) -> str:
        speedups = format_table(
            ["threshold", "wfa_speedup_over_banded"],
            [(f"E={e:.0%}", f"{self.speedup(e):.2f}x") for e in self.results],
        )
        return "\n\n".join(
            [res.report() for res in self.results.values()] + [speedups]
        )


def algorithm_comparison(
    error_rates: tuple[float, ...] = (0.02, 0.04),
    sample_pairs_per_dpu: int = 24,
    tasklets: int = 16,
) -> AlgorithmComparison:
    """Ext. E: WFA vs banded-DP DPU kernels, both score-only, at each
    error threshold."""
    return AlgorithmComparison(
        {
            e: _algorithm_point(e, sample_pairs_per_dpu, tasklets)
            for e in error_rates
        }
    )


def _algorithm_point(
    error_rate: float, sample_pairs_per_dpu: int, tasklets: int
) -> SweepResult:
    """WFA and banded DP at one error threshold."""
    spec = _default_spec(error_rate)
    load = math.ceil(spec.num_pairs / 2560)
    k = min(sample_pairs_per_dpu, load)
    scale = load / k
    gen = ReadPairGenerator(
        length=spec.length, error_rate=spec.error_rate, seed=spec.seed + 1
    )
    pairs = gen.pairs(k)
    base = upmem_paper_system(tasklets=tasklets, num_simulated_dpus=1)

    rows: list[SweepRow] = []

    # WFA kernel, score-only.
    kc = KernelConfig(
        max_read_len=spec.length,
        max_edits=max(spec.edit_budget, 1),
        traceback=False,
    )
    system = PimSystem(base, kc)
    layout = system.plan_layout(k)
    dpu = Dpu(base.dpu, dpu_id=0)
    system.transfer.push_batch(dpu, layout, pairs)
    stats, _ = system.kernel.run(
        dpu, layout, system._tasklet_assignments(k), base.metadata_policy
    )
    summary = dpu.summarize(stats)
    rows.append(
        SweepRow(
            label="wfa",
            values={
                "kernel_s": summary.seconds * scale,
                "cells_per_pair": sum(t.cells_computed for t in stats) / k,
            },
        )
    )

    # Banded kernel, score-only, band sized for the error threshold.
    band = band_for_error_rate(spec.length, spec.error_rate)
    seq_slot = spec.length + max(spec.edit_budget, 1)
    bkc = BandedKernelConfig(max_read_len=seq_slot, band=band)
    bkernel = BandedDpuKernel(bkc)
    bkernel.plan_check(base.dpu, tasklets)
    layout_b = MramLayout.plan(
        num_pairs=k,
        max_pattern_len=seq_slot,
        max_text_len=seq_slot,
        max_cigar_ops=2,
        tasklets=tasklets,
        metadata_bytes_per_tasklet=0,
        mram_capacity=base.dpu.mram_bytes,
    )
    dpu_b = Dpu(base.dpu, dpu_id=1)
    transfer = HostTransferEngine(base.transfer)
    transfer.push_batch(dpu_b, layout_b, pairs)
    assignments = [list(range(t, k, tasklets)) for t in range(tasklets)]
    bstats = bkernel.run(dpu_b, layout_b, assignments)
    bsummary = dpu_b.summarize(bstats)
    rows.append(
        SweepRow(
            label=f"banded(band={band})",
            values={
                "kernel_s": bsummary.seconds * scale,
                "cells_per_pair": sum(t.cells_computed for t in bstats) / k,
            },
        )
    )
    return SweepResult(
        name=f"algorithm comparison on the DPU (E={error_rate:.0%}, score-only)",
        columns=["kernel_s", "cells_per_pair"],
        rows=rows,
    )
