"""Performance plumbing: cost tables, calibration record, reporting."""

from repro.perf.calibration import PAPER_TARGETS, PaperTargets
from repro.perf.costs import CpuCostModel, DpuCostModel
from repro.perf.report import (
    format_comparison,
    format_series,
    format_table,
    human_time,
)

__all__ = [
    "PaperTargets",
    "PAPER_TARGETS",
    "CpuCostModel",
    "DpuCostModel",
    "format_table",
    "format_series",
    "format_comparison",
    "human_time",
]
