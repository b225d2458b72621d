"""Machine-readable Fig. 1 records.

Serializes a Fig. 1 reproduction to a stable JSON schema so downstream
tooling — regression dashboards, plotting scripts, CI checks — can
consume the reproduction's numbers without scraping text tables.
``fig1_to_dict`` is what ``repro fig1 --json`` writes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro import __version__
from repro.experiments.fig1 import Fig1Result
from repro.perf.calibration import PAPER_TARGETS

__all__ = ["fig1_to_dict", "write_record"]

SCHEMA_VERSION = 1


def fig1_to_dict(result: Fig1Result) -> dict:
    """Stable dictionary form of a Fig. 1 reproduction."""
    panels = []
    for p in result.panels:
        panels.append(
            {
                "error_rate": p.error_rate,
                "workload": p.spec.describe(),
                "cpu_seconds_by_threads": {
                    str(b.threads): b.seconds for b in p.cpu_curve
                },
                "cpu_bound_by_threads": {
                    str(b.threads): b.bound for b in p.cpu_curve
                },
                "pim": {
                    "kernel_seconds": p.pim.kernel_seconds,
                    "transfer_in_seconds": p.pim.transfer_in_seconds,
                    "transfer_out_seconds": p.pim.transfer_out_seconds,
                    "launch_seconds": p.pim.launch_seconds,
                    "total_seconds": p.pim.total_seconds,
                    "tasklets": p.pim.tasklets,
                    "metadata_policy": p.pim.metadata_policy,
                    "dominant_bound": p.pim.dominant_bound(),
                    "bytes_in": p.pim.bytes_in,
                    "bytes_out": p.pim.bytes_out,
                },
                "total_speedup": p.total_speedup,
                "kernel_speedup": p.kernel_speedup,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "experiment": "fig1",
        "paper_targets": {
            "total_speedup_e2": PAPER_TARGETS.total_speedup_e2,
            "total_speedup_e4": PAPER_TARGETS.total_speedup_e4,
            "kernel_speedup_e2": PAPER_TARGETS.kernel_speedup_e2,
            "kernel_speedup_e4": PAPER_TARGETS.kernel_speedup_e4,
        },
        "panels": panels,
    }


def write_record(record: dict, path: Union[str, Path]) -> Path:
    """Write a record as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
