"""Result analysis: batch statistics."""

from repro.analysis.stats import BatchStats, Distribution, summarize_results

__all__ = [
    "BatchStats",
    "Distribution",
    "summarize_results",
]
