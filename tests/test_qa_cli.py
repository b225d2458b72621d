"""CLI surface of the QA sweep: ``repro qa``."""

from __future__ import annotations

import json

from repro.cli import main
from repro.qa.runner import REPORT_SCHEMA


class TestQaCommand:
    def test_clean_run_exits_zero(self, capsys, tmp_path):
        report = tmp_path / "qa.jsonl"
        code = main(
            ["qa", "--trials", "20", "--seed", "42", "--report", str(report)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 disagreement(s) [OK]" in out
        assert "schema-valid report" in out
        lines = [json.loads(l) for l in report.read_text().splitlines()]
        assert lines[0]["schema"] == REPORT_SCHEMA
        assert lines[-1]["ok"] is True
        assert lines[-1]["cases_checked"] == len(lines) - 2

    def test_kill_dpu_run_still_exits_zero(self, capsys, tmp_path):
        """A persistent DPU death is requeued away: the QA verdicts are
        unchanged and the recovery shows up in the output."""
        report = tmp_path / "qa-kill.jsonl"
        code = main(
            [
                "qa", "--trials", "12", "--seed", "42",
                "--dpus", "4", "--kill-dpu", "1",
                "--report", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovery[" in out
        assert "pair(s) re-run" in out
        summary = json.loads(report.read_text().splitlines()[-1])
        assert summary["ok"] is True
        assert summary["recovery"] is not None

    def test_reports_are_reproducible(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(
                ["qa", "--trials", "10", "--seed", "7", "--report", str(path)]
            ) == 0
        assert a.read_text() == b.read_text()

    def test_qa_help_lists_fault_flag(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["qa", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--kill-dpu" in out
        assert "--shards" in out


class TestQaShards:
    def test_sharded_sweep_matches_unsharded_verdicts(self, tmp_path):
        """--shards routes the sweep through the fleet; the per-case
        oracle verdicts must be identical to the unsharded scheduler's."""
        flat, sharded = tmp_path / "flat.jsonl", tmp_path / "sharded.jsonl"
        assert main(
            ["qa", "--trials", "24", "--seed", "11", "--report", str(flat)]
        ) == 0
        assert main(
            [
                "qa", "--trials", "24", "--seed", "11",
                "--shards", "2", "--report", str(sharded),
            ]
        ) == 0

        def cases(path):
            return [
                json.loads(l)
                for l in path.read_text().splitlines()
                if json.loads(l)["record"] == "case"
            ]

        assert cases(flat) == cases(sharded)
        header = json.loads(sharded.read_text().splitlines()[0])
        assert header["config"]["shards"] == 2

    def test_sharded_sweep_with_fault_still_agrees(self, capsys, tmp_path):
        report = tmp_path / "sharded-kill.jsonl"
        code = main(
            [
                "qa", "--trials", "16", "--seed", "42",
                "--shards", "2", "--workers", "2",
                "--kill-dpu", "1", "--report", str(report),
            ]
        )
        assert code == 0
        summary = json.loads(report.read_text().splitlines()[-1])
        assert summary["ok"] is True
        assert summary["recovery"] is not None
