"""Tests for machine-readable experiment records."""

import json

import pytest

from repro.cli import main
from repro.experiments.fig1 import Fig1Config, run_fig1
from repro.experiments.record import fig1_to_dict, write_record


@pytest.fixture(scope="module")
def fig1():
    return run_fig1(
        Fig1Config(
            cpu_sample_pairs=80, pim_sample_pairs_per_dpu=16, num_simulated_dpus=1
        )
    )


class TestFig1Record:
    def test_schema(self, fig1):
        rec = fig1_to_dict(fig1)
        assert rec["schema_version"] == 1
        assert rec["experiment"] == "fig1"
        assert len(rec["panels"]) == 2
        panel = rec["panels"][0]
        assert panel["error_rate"] == 0.02
        assert set(panel["cpu_seconds_by_threads"]) == {
            "1", "2", "4", "8", "16", "32", "56",
        }
        assert panel["pim"]["total_seconds"] > panel["pim"]["kernel_seconds"]
        assert panel["total_speedup"] > 1.0

    def test_paper_targets_embedded(self, fig1):
        rec = fig1_to_dict(fig1)
        assert rec["paper_targets"]["kernel_speedup_e2"] == 37.4

    def test_json_serializable(self, fig1):
        text = json.dumps(fig1_to_dict(fig1))
        assert "kernel_seconds" in text

    def test_write_record_roundtrip(self, fig1, tmp_path):
        path = write_record(fig1_to_dict(fig1), tmp_path / "fig1.json")
        loaded = json.loads(path.read_text())
        assert loaded["experiment"] == "fig1"


class TestCliJson:
    def test_fig1_json_flag(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        rc = main(["fig1", "--quick", "--json", str(out)])
        assert rc == 0
        loaded = json.loads(out.read_text())
        assert loaded["experiment"] == "fig1"
        assert "machine-readable record" in capsys.readouterr().out
