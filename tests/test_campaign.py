"""The ablation x chaos campaign runner (see docs/campaigns.md).

Pins the contracts the evidence report is trusted for: the standard
vocabulary is wide enough for the acceptance grid, reports are
byte-identical across reruns and worker counts, a torn report resumes
to the byte-identical file (Hypothesis drives arbitrary truncation
points and worker counts through a stateful machine), and the marquee
ablation deltas — breaker off regresses modeled recovery, journal off
pays a full modeled restart, requeue off abandons pairs — actually show
up in the report.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.errors import ConfigError, QaError
from repro.pim.ablation import (
    STANDARD_ABLATION_NAMES,
    STANDARD_ABLATIONS,
    AblationConfig,
    ablation_by_name,
)
from repro.qa import campaign as campaign_mod
from repro.qa.campaign import (
    CAMPAIGN_SCHEMA,
    STANDARD_GRID,
    CampaignConfig,
    FaultGridPoint,
    build_fault_plan,
    build_net_plan,
    cell_name,
    grid_point_by_name,
    run_campaign,
    validate_campaign_report,
)

#: a small grid that still exercises faults, sharding, crash/resume and
#: multi-round scheduling — the shape every fast test here reuses.
SMALL = CampaignConfig(
    pairs=16,
    pairs_per_round=4,
    serve_requests=0,
    ablations=(
        AblationConfig(name="baseline"),
        AblationConfig(name="requeue_off", requeue=False),
        AblationConfig(name="journal_off", journal=False),
    ),
    grid=(
        FaultGridPoint(name="dead_dpu", dead_dpus=1),
        FaultGridPoint(name="crash_dead", dead_dpus=1, crash=True),
    ),
)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("campaign") / "small.jsonl"
    report = run_campaign(SMALL, report_path=path)
    return report, path


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    """The default campaign — the acceptance-criteria grid."""
    path = tmp_path_factory.mktemp("campaign") / "full.jsonl"
    report = run_campaign(CampaignConfig(), report_path=path)
    return report, path


class TestVocabulary:
    def test_standard_axes_are_wide_enough(self):
        # the acceptance grid: >= 6 distinct ablations, >= 3 fault points
        assert len(STANDARD_ABLATIONS) >= 6
        assert len(STANDARD_GRID) >= 3
        assert len({a.name for a in STANDARD_ABLATIONS}) == len(
            STANDARD_ABLATIONS
        )
        assert len({g.name for g in STANDARD_GRID}) == len(STANDARD_GRID)
        assert STANDARD_ABLATIONS[0].all_on

    def test_every_feature_has_an_off_ablation(self):
        flags = ("breaker", "requeue", "journal", "fallback", "cache")
        for flag in flags:
            assert any(
                not getattr(a, flag) for a in STANDARD_ABLATIONS
            ), f"no standard ablation turns {flag} off"
        assert any(a.engine == "scalar" for a in STANDARD_ABLATIONS)
        assert any(a.shards == 1 for a in STANDARD_ABLATIONS)

    def test_lookup_by_name(self):
        assert ablation_by_name("breaker_off").breaker is False
        assert grid_point_by_name("crash_dead").crash is True
        with pytest.raises(ConfigError):
            ablation_by_name("bogus")
        with pytest.raises(ConfigError):
            grid_point_by_name("bogus")
        assert "breaker_off" in STANDARD_ABLATION_NAMES

    def test_fault_plans_are_seeded_and_disjoint(self):
        point = grid_point_by_name("dead_dpu")
        a = build_fault_plan(point, 4, seed=42, point_index=1)
        b = build_fault_plan(point, 4, seed=42, point_index=1)
        assert a.to_dict() == b.to_dict()
        assert build_fault_plan(grid_point_by_name("calm"), 4, 42, 0) is None
        crowded = FaultGridPoint(name="crowded", dead_dpus=2, stalled_dpus=2)
        with pytest.raises(ConfigError, match="healthy spare"):
            build_fault_plan(crowded, 4, 42, 0)

    def test_config_roundtrip(self):
        cfg = CampaignConfig()
        assert CampaignConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(QaError, match="baseline"):
            CampaignConfig(
                ablations=(ablation_by_name("breaker_off"),)
            ).validate()


class TestDeterminism:
    def test_byte_identical_across_workers_and_reruns(self, tmp_path):
        paths = {}
        for label, workers in (("seq", 1), ("par", 2), ("again", 1)):
            paths[label] = tmp_path / f"{label}.jsonl"
            run_campaign(SMALL, workers=workers, report_path=paths[label])
        seq = paths["seq"].read_bytes()
        assert paths["par"].read_bytes() == seq
        assert paths["again"].read_bytes() == seq

    def test_cells_are_complete_ordered_and_unique(self, small_report):
        report, path = small_report
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert records[0]["schema"] == CAMPAIGN_SCHEMA
        cells = [r["cell"] for r in records if r["record"] == "cell"]
        assert cells == SMALL.cell_names()
        assert len(cells) == len(set(cells))
        validate_campaign_report(path)

    def test_report_object_matches_file(self, small_report):
        report, path = small_report
        lines = [
            json.dumps(line, sort_keys=True) for line in report.to_lines()
        ]
        assert path.read_text().splitlines() == lines


class TestEvidence:
    """The deltas the campaign exists to produce, on the default grid."""

    def test_breaker_off_regresses_recovery(self, full_report):
        report, _ = full_report
        base = report.cell(cell_name("baseline", "dead_dpu"))["metrics"]
        off = report.cell(cell_name("breaker_off", "dead_dpu"))["metrics"]
        assert off["recovery_seconds"] > base["recovery_seconds"]
        delta = report.cell(cell_name("breaker_off", "dead_dpu"))["delta"]
        assert delta["recovery_seconds_delta"] > 0

    def test_journal_off_pays_full_restart(self, full_report):
        report, _ = full_report
        base = report.cell(cell_name("baseline", "crash_dead"))["metrics"]
        off = report.cell(cell_name("journal_off", "crash_dead"))["metrics"]
        assert off["restart_overhead_seconds"] == off["total_seconds"]
        assert off["restart_overhead_seconds"] > base["restart_overhead_seconds"]
        assert base["resume_identical"] is True
        assert base["rounds_replayed"] > 0

    def test_requeue_off_abandons_pairs_under_persistent_death(
        self, full_report
    ):
        report, _ = full_report
        off = report.cell(cell_name("requeue_off", "dead_dpu"))["metrics"]
        assert off["abandoned_pairs"] > 0
        assert off["oracle_agreement"] < 1.0
        base = report.cell(cell_name("baseline", "dead_dpu"))["metrics"]
        assert base["oracle_agreement"] == 1.0

    def test_shards_1_halves_throughput(self, full_report):
        report, _ = full_report
        delta = report.cell(cell_name("shards_1", "calm"))["delta"]
        assert delta["throughput_ratio"] < 0.75

    def test_serve_knobs_show_up(self, full_report):
        report, _ = full_report
        assert (
            report.cell(cell_name("cache_off", "calm"))["delta"][
                "serve_cached_pairs_delta"
            ]
            < 0
        )
        assert (
            report.cell(cell_name("fallback_off", "dead_dpu"))["delta"][
                "serve_fallback_pairs_delta"
            ]
            < 0
        )

    def test_scalar_engine_is_model_equivalent(self, full_report):
        """The engine knob moves wall clock only: modeled metrics match."""
        report, _ = full_report
        delta = report.cell(cell_name("scalar_engine", "calm"))["delta"]
        assert delta["throughput_ratio"] == 1.0
        assert delta["oracle_agreement_delta"] == 0.0

    def test_summary_is_ok_and_validates(self, full_report):
        report, path = full_report
        summary = report.summary()
        assert summary["ok"] is True
        assert summary["resumes_checked"] > 0
        assert summary["resumes_identical"] == summary["resumes_checked"]
        assert validate_campaign_report(path) == summary


class TestNetworkGrid:
    def test_network_points_in_standard_grid(self):
        lossy = grid_point_by_name("lossy_net")
        part = grid_point_by_name("partition")
        assert lossy.lossy_links >= 1 and lossy.net_active
        assert part.partition_s > 0 and part.net_active
        assert not grid_point_by_name("calm").net_active

    def test_build_net_plan_seeded_and_calm(self):
        point = grid_point_by_name("lossy_net")
        a = build_net_plan(point, 2, seed=42, point_index=5)
        b = build_net_plan(point, 2, seed=42, point_index=5)
        assert a == b and not a.is_calm()
        assert build_net_plan(grid_point_by_name("calm"), 2, 42, 0) is None
        with pytest.raises(ConfigError, match="lossy"):
            build_net_plan(
                FaultGridPoint(name="flood", lossy_links=3), 2, 42, 0
            )

    def test_crash_and_net_faults_cannot_combine(self):
        # networked cells run inline-only, so crash/resume has no journal
        with pytest.raises(ConfigError, match="inline-only"):
            FaultGridPoint(name="bad", crash=True, lossy_links=1).validate()

    def test_grid_point_dict_back_compat(self):
        # pre-transport reports carry no net fields; they parse as calm
        old = {
            "name": "dead_dpu",
            "dead_dpus": 1,
            "stalled_dpus": 0,
            "corrupt_dpus": 0,
            "crash": False,
        }
        point = FaultGridPoint.from_dict(old)
        assert point.lossy_links == 0 and point.partition_s == 0.0
        assert not point.net_active

    def test_net_cells_complete_oracle_equal(self, full_report):
        report, _ = full_report
        lossy = report.cell(cell_name("baseline", "lossy_net"))["metrics"]
        part = report.cell(cell_name("baseline", "partition"))["metrics"]
        calm = report.cell(cell_name("baseline", "calm"))["metrics"]
        assert lossy["oracle_agreement"] == 1.0
        assert part["oracle_agreement"] == 1.0
        assert part["net_partition_blocked"] >= 1
        assert part["net_redeliveries"] >= 1
        assert all(calm[k] == 0 for k in (
            "net_drops",
            "net_redeliveries",
            "net_duplicates_absorbed",
            "net_partition_blocked",
            "net_steals",
        ))

    def test_validator_rejects_tampered_net_counters(
        self, small_report, tmp_path
    ):
        _, path = small_report
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # SMALL's grid has no network point, so any nonzero net counter
        # in a cell is a fabrication the validator must catch
        records[1]["metrics"]["net_drops"] = 3
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        with pytest.raises(QaError, match="net counters"):
            validate_campaign_report(tampered)


class TestResume:
    def test_resume_from_any_line_truncation_is_byte_identical(
        self, small_report, tmp_path
    ):
        _, golden_path = small_report
        golden = golden_path.read_bytes()
        lines = golden_path.read_text().splitlines(keepends=True)
        work = tmp_path / "torn.jsonl"
        for keep in range(len(lines) + 1):
            work.write_bytes(b"".join(l.encode() for l in lines[:keep]))
            run_campaign(SMALL, report_path=work, resume=True)
            assert work.read_bytes() == golden, f"diverged resuming at {keep}"

    def test_resume_from_torn_partial_line(self, small_report, tmp_path):
        _, golden_path = small_report
        golden = golden_path.read_bytes()
        work = tmp_path / "torn.jsonl"
        work.write_bytes(golden[: len(golden) // 2])
        run_campaign(SMALL, report_path=work, resume=True)
        assert work.read_bytes() == golden

    def test_inline_resume_streams_one_cell_at_a_time(
        self, small_report, tmp_path, monkeypatch
    ):
        """Run inline, a resumed campaign writes each cell's line before
        the next cell runs, so a crash loses at most the running cell."""
        _, golden_path = small_report
        golden = golden_path.read_bytes()
        lines = golden.splitlines(keepends=True)
        work = tmp_path / "torn.jsonl"
        work.write_bytes(b"".join(lines[:3]) + lines[3][:10])  # 2 cells kept
        on_disk = []
        run_cell = campaign_mod.run_cell

        def watching(task):
            on_disk.append(len(work.read_bytes().splitlines()))
            return run_cell(task)

        monkeypatch.setattr(campaign_mod, "run_cell", watching)
        run_campaign(SMALL, report_path=work, resume=True)
        assert work.read_bytes() == golden
        # header + 2 salvaged cells, then one more line per computed cell
        assert on_disk == list(range(3, len(lines) - 1))

    def test_resume_rejects_foreign_config(self, small_report, tmp_path):
        _, golden_path = small_report
        work = tmp_path / "foreign.jsonl"
        work.write_bytes(golden_path.read_bytes())
        other = CampaignConfig(
            pairs=SMALL.pairs + 4,
            pairs_per_round=SMALL.pairs_per_round,
            serve_requests=0,
            ablations=SMALL.ablations,
            grid=SMALL.grid,
        )
        with pytest.raises(QaError, match="different campaign"):
            run_campaign(other, report_path=work, resume=True)

    def test_events_published_in_cell_order(self):
        from repro.obs import RunTelemetry
        from repro.obs.events import CAMPAIGN_CELL, CAMPAIGN_DONE

        telemetry = RunTelemetry()
        report = run_campaign(SMALL, telemetry=telemetry)
        cells = telemetry.events.events(CAMPAIGN_CELL)
        assert [dict(e.attrs)["ablation"] for e in cells] == [
            r["ablation"] for r in report.cells
        ]
        (done,) = telemetry.events.events(CAMPAIGN_DONE)
        assert dict(done.attrs) == {"cells": len(report.cells), "ok": True}
        # cumulative modeled time: non-decreasing
        times = [e.t_s for e in cells]
        assert times == sorted(times)


class CampaignResumeMachine(RuleBasedStateMachine):
    """Crash the campaign at arbitrary points; resume at arbitrary worker
    counts; the report must always converge to the golden bytes — no
    cell dropped, duplicated, or reordered."""

    golden: bytes = b""

    @initialize()
    def setup(self):
        import tempfile
        from pathlib import Path

        self._dir = tempfile.TemporaryDirectory()
        self.path = Path(self._dir.name) / "report.jsonl"
        if not CampaignResumeMachine.golden:
            run_campaign(SMALL, report_path=self.path)
            CampaignResumeMachine.golden = self.path.read_bytes()
        self.path.write_bytes(CampaignResumeMachine.golden)

    @rule(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        workers=st.sampled_from([1, 2]),
    )
    def crash_and_resume(self, fraction, workers):
        torn = CampaignResumeMachine.golden[
            : int(len(CampaignResumeMachine.golden) * fraction)
        ]
        self.path.write_bytes(torn)
        run_campaign(SMALL, workers=workers, report_path=self.path, resume=True)
        assert self.path.read_bytes() == CampaignResumeMachine.golden

    @rule()
    def validate_current(self):
        summary = validate_campaign_report(self.path)
        assert summary["cells"] == len(SMALL.cell_names())

    def teardown(self):
        self._dir.cleanup()


CampaignResumeMachine.TestCase.settings = settings(
    max_examples=8,
    stateful_step_count=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestCampaignResumeMachine = CampaignResumeMachine.TestCase
