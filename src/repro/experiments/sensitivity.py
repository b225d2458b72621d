"""Calibration sensitivity analysis.

The timing models carry characterized constants (DMA setup cycles,
per-cell instruction costs, effective bandwidths, ...).  This experiment
perturbs each key constant and reports how the Fig. 1 headline ratios
move — quantifying which conclusions are robust to calibration error and
which are not.  A reproduction that models honestly should show:

* the *who-wins* conclusion (PIM > CPU) survives large perturbations;
* the exact multipliers move roughly linearly with the anchored
  constants (as expected — they were anchored, see
  ``repro.perf.calibration``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from repro.core.penalties import AffinePenalties
from repro.cpu.config import CpuConfig, xeon_gold_5120_dual
from repro.cpu.model import CpuModel
from repro.cpu.runner import CpuRunner
from repro.data.datasets import DatasetSpec
from repro.perf.report import format_table
from repro.pim.config import (
    DpuTimingConfig,
    HostTransferConfig,
    PimSystemConfig,
    upmem_paper_system,
)
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem

__all__ = ["SensitivityPoint", "SensitivityResult", "sensitivity_analysis"]


@dataclass
class SensitivityPoint:
    """Headline ratios under one perturbed configuration."""

    label: str
    total_speedup: float
    kernel_speedup: float


@dataclass
class SensitivityResult:
    baseline: SensitivityPoint
    points: list[SensitivityPoint] = field(default_factory=list)

    def report(self) -> str:
        rows = [
            (
                p.label,
                f"{p.total_speedup:.2f}x",
                f"{p.kernel_speedup:.1f}x",
                f"{p.total_speedup / self.baseline.total_speedup - 1:+.0%}"
                if p is not self.baseline
                else "baseline",
            )
            for p in [self.baseline] + self.points
        ]
        return format_table(
            ["configuration", "total speedup", "kernel speedup", "delta"],
            rows,
            title="sensitivity of Fig. 1 headline ratios (E=2%)",
        )

    def all_pim_wins(self) -> bool:
        return all(p.total_speedup > 1.0 for p in [self.baseline] + self.points)


def _evaluate(
    spec: DatasetSpec,
    cpu_cfg: CpuConfig,
    pim_cfg: PimSystemConfig,
    cpu_sample: int,
    pim_sample: int,
) -> tuple[float, float]:
    """(total_speedup, kernel_speedup) of PIM over the 56T CPU."""
    measurement = CpuRunner(AffinePenalties()).measure(spec.sample(cpu_sample))
    cpu_time = (
        CpuModel(cpu_cfg)
        .time_for(
            measurement.counters,
            measurement.pairs,
            measurement.seq_bytes_per_pair,
            spec.num_pairs,
            cpu_cfg.max_threads,
        )
        .seconds
    )
    kc = KernelConfig(max_read_len=spec.length, max_edits=max(spec.edit_budget, 1))
    run = PimSystem(pim_cfg, kc).model_run(spec, sample_pairs_per_dpu=pim_sample)
    return cpu_time / run.total_seconds, cpu_time / run.kernel_seconds


def sensitivity_analysis(
    factor: float = 1.5,
    cpu_sample: int = 150,
    pim_sample: int = 32,
) -> SensitivityResult:
    """Perturb each key constant by ``x factor`` and ``/ factor``."""
    spec = DatasetSpec(num_pairs=5_000_000, length=100, error_rate=0.02, seed=0)
    base_cpu = xeon_gold_5120_dual()
    base_pim = upmem_paper_system(tasklets=16, num_simulated_dpus=1)

    total, kernel = _evaluate(spec, base_cpu, base_pim, cpu_sample, pim_sample)
    result = SensitivityResult(
        baseline=SensitivityPoint("baseline", total, kernel)
    )

    def pim_with_timing(**changes) -> PimSystemConfig:
        timing = dataclasses.replace(base_pim.dpu.timing, **changes)
        dpu = dataclasses.replace(base_pim.dpu, timing=timing)
        return base_pim.with_(dpu=dpu)

    def pim_with_transfer(**changes) -> PimSystemConfig:
        transfer = dataclasses.replace(base_pim.transfer, **changes)
        return base_pim.with_(transfer=transfer)

    knobs: list[tuple[str, Callable[[float], tuple[CpuConfig, PimSystemConfig]]]] = [
        (
            "DMA setup cycles",
            lambda f: (
                base_cpu,
                pim_with_timing(
                    dma_setup_cycles=DpuTimingConfig().dma_setup_cycles * f
                ),
            ),
        ),
        (
            "DMA streaming rate",
            lambda f: (
                base_cpu,
                pim_with_timing(
                    dma_cycles_per_8b=DpuTimingConfig().dma_cycles_per_8b * f
                ),
            ),
        ),
        (
            "host transfer bandwidth",
            lambda f: (
                base_cpu,
                pim_with_transfer(
                    effective_to_dpu_bytes_per_s=(
                        HostTransferConfig().effective_to_dpu_bytes_per_s * f
                    ),
                    effective_from_dpu_bytes_per_s=(
                        HostTransferConfig().effective_from_dpu_bytes_per_s * f
                    ),
                ),
            ),
        ),
        (
            "CPU effective bandwidth",
            lambda f: (
                base_cpu.with_(
                    mem_bandwidth_bytes_per_s=(
                        base_cpu.mem_bandwidth_bytes_per_s * f
                    )
                ),
                base_pim,
            ),
        ),
    ]

    for name, make in knobs:
        for f, tag in ((factor, f"x{factor:g}"), (1 / factor, f"/{factor:g}")):
            cpu_cfg, pim_cfg = make(f)
            t, k = _evaluate(spec, cpu_cfg, pim_cfg, cpu_sample, pim_sample)
            result.points.append(SensitivityPoint(f"{name} {tag}", t, k))
    return result
