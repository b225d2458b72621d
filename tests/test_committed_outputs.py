"""The committed sweep tables under ``benchmarks/out/`` match a fresh run.

Each case reruns one sweep with the arguments its ``benchmarks/bench_*.py``
script passes and compares the rendered table byte for byte with the file
that script writes, so a change that moves a modeled number cannot land
without regenerating the table (and the docs that quote it).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.sweeps import (
    error_rate_sweep,
    read_length_sweep,
    staging_chunk_ablation,
)

OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "out"

#: output name -> the sweep call of the script that writes it
SWEEPS = {
    # benchmarks/bench_read_length.py
    "read_length_sweep": lambda: read_length_sweep(
        lengths=(100, 200, 500, 1000), sample_pairs_per_dpu=6
    ),
    # benchmarks/bench_error_rate.py
    "error_rate_sweep": lambda: error_rate_sweep(
        rates=(0.01, 0.02, 0.04, 0.06, 0.08, 0.10), sample_pairs_per_dpu=12
    ),
    # benchmarks/bench_staging_chunk.py
    "staging_chunk": lambda: staging_chunk_ablation(
        length=1000, error_rate=0.02, sample_pairs_per_dpu=4
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_committed_sweep_output_is_current(name):
    committed = (OUT / f"{name}.txt").read_text()
    assert SWEEPS[name]().report() + "\n" == committed
