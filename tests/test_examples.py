"""Smoke tests keeping every example script runnable.

Each example runs as a subprocess with the repo's interpreter; assertions
check the headline lines so doc rot surfaces as a test failure.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "alignment penalty" in out
        assert "CIGAR" in out

    def test_read_mapping_batch(self):
        out = run_example("read_mapping_batch.py")
        assert "0 mismatches" in out
        assert "throughput" in out

    def test_fig1_quick(self):
        out = run_example("fig1_reproduction.py", "--quick")
        assert "paper vs measured" in out
        assert "PIM-Kernel" in out

    def test_allocator_tradeoff(self):
        out = run_example("allocator_tradeoff.py")
        assert "tasklet admission" in out
        assert "mram" in out

    def test_long_read_alignment(self):
        out = run_example("long_read_alignment.py")
        assert "WFA-Adapt" in out

    def test_semiglobal_mapping(self):
        out = run_example("semiglobal_mapping.py")
        assert "position recovered" in out

    def test_metrics_tour(self):
        out = run_example("metrics_tour.py")
        assert "every mode" in out
        assert "= oracle" in out

    def test_pim_mapping(self):
        out = run_example("pim_mapping.py")
        assert "96/96" in out
        assert "PAF round trip" in out
