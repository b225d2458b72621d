"""The committed tables under ``benchmarks/out/`` match a fresh run.

Each case runs one ``repro sweep`` (or ``repro fig1``) at its defaults —
the sampling the ``benchmarks/bench_*.py`` script that writes the file
uses too — and compares stdout byte for byte with the committed file, so
a change that moves a modeled number cannot land without regenerating
the table (and the docs that quote it).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "out"

#: committed output name -> the command that prints it
COMMANDS = {
    "tasklet_sweep": ["sweep", "tasklets"],
    "allocator_policy": ["sweep", "allocator"],
    "error_rate_sweep": ["sweep", "error-rate"],
    "read_length_sweep": ["sweep", "read-length"],
    "dpu_count_sweep": ["sweep", "dpus"],
    "algo_comparison": ["sweep", "algos"],
    "staging_chunk": ["sweep", "staging"],
    "sensitivity": ["sweep", "sensitivity"],
    "fig1": ["fig1"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_committed_sweep_output_is_current(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (OUT / f"{name}.txt").read_text()
