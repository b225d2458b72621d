"""Tests for the perf ledger: scenarios, records, and the regression gate."""

import json
import os
from pathlib import Path

import pytest

from repro.errors import LedgerError
from repro.obs.bench import (
    GATED_FIELDS,
    LEDGER_SCHEMA,
    ScenarioResult,
    append_records,
    compare,
    config_fingerprint,
    counters_from_diff,
    latest_by_scenario,
    load_ledger,
    make_record,
    run_scenarios,
    scenario_names,
    validate_record,
)
from repro.obs.scenarios import SCENARIO_NAMES
from repro.pim import parallel as parallel_mod
from repro.pim.system import PimSystem

#: the committed perf-gate baseline (`make perf-gate`)
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def result(scenario="demo", **overrides):
    kwargs = dict(
        scenario=scenario,
        config={"pairs": 10, "seed": 7},
        pairs_per_second=1000.0,
        total_seconds=0.01,
        kernel_seconds=0.008,
        latency_p50_s=1e-3,
        latency_p90_s=2e-3,
        latency_p99_s=3e-3,
        info={"note": "test"},
        counters={"pim_rounds_total": 2},
    )
    kwargs.update(overrides)
    return ScenarioResult(**kwargs)


def record(scenario="demo", **overrides):
    return make_record(result(scenario, **overrides), profile="quick")


class TestFingerprint:
    def test_stable_and_order_insensitive(self):
        a = config_fingerprint({"b": 2, "a": 1})
        b = config_fingerprint({"a": 1, "b": 2})
        assert a == b
        assert len(a) == 16
        assert config_fingerprint({"a": 1, "b": 3}) != a

    def test_nested_values_matter(self):
        assert config_fingerprint({"w": [1, 2]}) != config_fingerprint(
            {"w": [2, 1]}
        )


class TestRecords:
    def test_make_record_shape(self):
        rec = record()
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["scenario"] == "demo"
        assert rec["profile"] == "quick"
        assert rec["config_fingerprint"] == config_fingerprint(rec["config"])
        assert set(GATED_FIELDS) <= set(rec)
        validate_record(rec)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda r: r.update(schema="bogus/v0"), "schema"),
            (lambda r: r.pop("counters"), "missing keys"),
            (lambda r: r.update(profile="nightly"), "profile"),
            (lambda r: r.update(pairs_per_second=-1.0), ">= 0"),
            (lambda r: r.update(config_fingerprint="0" * 16), "fingerprint"),
            (lambda r: r.update(latency_p99_s="fast"), "number"),
        ],
    )
    def test_validate_rejects(self, mutate, match):
        rec = record()
        mutate(rec)
        with pytest.raises(LedgerError, match=match):
            validate_record(rec)


class TestLedgerFile:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.json"
        assert load_ledger(path) == []
        assert append_records(path, [record()]) == 1
        assert append_records(path, [record(), record("other")]) == 3
        loaded = load_ledger(path)
        assert [r["scenario"] for r in loaded] == ["demo", "demo", "other"]

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text("{not json")
        with pytest.raises(LedgerError, match="not valid JSON"):
            load_ledger(path)

    def test_non_list_document_rejected(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"oops": 1}))
        with pytest.raises(LedgerError, match="JSON list"):
            load_ledger(path)

    def test_invalid_record_rejected_on_load(self, tmp_path):
        path = tmp_path / "ledger.json"
        bad = record()
        bad["pairs_per_second"] = -5.0
        path.write_text(json.dumps([bad]))
        with pytest.raises(LedgerError):
            load_ledger(path)

    def test_latest_by_scenario_keeps_last(self):
        older = record(pairs_per_second=100.0)
        newer = record(pairs_per_second=200.0)
        latest = latest_by_scenario([older, newer, record("other")])
        assert latest["demo"]["pairs_per_second"] == 200.0
        assert set(latest) == {"demo", "other"}


class TestCompare:
    def test_clean_self_compare(self):
        records = [record(), record("other")]
        assert compare(records, records) == []

    def test_throughput_drop_fails_named(self):
        baseline = [record(pairs_per_second=1000.0)]
        current = [record(pairs_per_second=800.0)]
        (failure,) = compare(current, baseline)
        assert failure.scenario == "demo"
        assert failure.metric == "pairs_per_second"
        text = str(failure)
        assert "demo" in text and "pairs_per_second" in text
        assert "1000" in text and "800" in text

    def test_latency_rise_fails(self):
        baseline = [record()]
        current = [record(latency_p99_s=3e-3 * 1.5)]
        (failure,) = compare(current, baseline)
        assert failure.metric == "latency_p99_s"

    def test_within_threshold_passes(self):
        baseline = [record(pairs_per_second=1000.0)]
        current = [record(pairs_per_second=950.0)]  # 5% < 10%
        assert compare(current, baseline) == []

    def test_missing_scenario_is_an_error(self):
        with pytest.raises(LedgerError, match="demo"):
            compare([record("other")], [record("demo")])

    def test_fingerprint_mismatch_is_incomparable(self):
        baseline = [record()]
        current = [record(config={"pairs": 99, "seed": 7})]
        with pytest.raises(LedgerError, match="fingerprint"):
            compare(current, baseline)

    def test_bad_thresholds_rejected(self):
        records = [record()]
        with pytest.raises(LedgerError):
            compare(records, records, max_throughput_drop=1.0)
        with pytest.raises(LedgerError):
            compare(records, records, max_latency_rise=-0.1)

    def test_most_regressed_first(self):
        baseline = [record(), record("other")]
        current = [
            record(pairs_per_second=500.0),  # 50% drop
            record("other", pairs_per_second=800.0),  # 20% drop
        ]
        failures = compare(current, baseline)
        assert [f.scenario for f in failures] == ["demo", "other"]


class TestScenarioCatalog:
    def test_catalog_names(self):
        assert scenario_names() == sorted(SCENARIO_NAMES)
        assert len(SCENARIO_NAMES) == 8

    def test_unknown_scenario_rejected(self):
        with pytest.raises(LedgerError, match="unknown scenario"):
            run_scenarios(names=["nope"])

    def test_bad_profile_rejected(self):
        with pytest.raises(LedgerError, match="profile"):
            run_scenarios(profile="nightly")

    def test_quick_catalog_runs_and_validates(self):
        records = run_scenarios(profile="quick")
        assert [r["scenario"] for r in records] == sorted(SCENARIO_NAMES)
        for rec in records:
            validate_record(rec)
            assert rec["pairs_per_second"] > 0
        by_name = latest_by_scenario(records)
        # modeled-counter sections ride along where a registry is wired
        assert by_name["scheduler_rounds"]["counters"]
        assert by_name["serve_replay"]["counters"]
        # identity claims surface in info
        assert (
            by_name["engine_vector_vs_scalar"]["info"]["results_identical"]
            is True
        )
        assert by_name["host_parallel"]["info"]["results_identical"] is True
        # and a fresh run gates cleanly against itself
        assert compare(records, records) == []
        # every modeled number equals the committed baseline's exactly; a
        # change that moves one on purpose re-records BENCH_baseline.json
        baseline = latest_by_scenario(load_ledger(BASELINE))
        assert sorted(baseline) == sorted(by_name)
        for name, base in sorted(baseline.items()):
            fresh = by_name[name]
            assert fresh["config_fingerprint"] == base["config_fingerprint"], name
            assert fresh["counters"] == base["counters"], name
            for key in GATED_FIELDS:
                assert fresh[key] == base[key], f"{name}: {key}"


    def test_host_parallel_compares_the_pool_with_an_in_process_run(
        self, monkeypatch
    ):
        """On a four-core host too, the scenario's first run starts no
        pool, so its identity check compares the pool with the
        sequential path."""
        built, pools_after = [], []

        class Pool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

            def shutdown(self):
                pass

        align = PimSystem.align

        def counting(system, *args, **kwargs):
            run = align(system, *args, **kwargs)
            pools_after.append(len(built))
            return run

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(PimSystem, "align", counting)
        (record,) = run_scenarios(names=["host_parallel"])
        assert pools_after == [0, 1] and built == [2]
        assert record["info"]["results_identical"] is True


class TestCountersFromDiff:
    def test_counter_families_summed_and_zeroes_dropped(self):
        diff = {
            "schema": "repro.obs.metrics/v1",
            "families": [
                {
                    "name": "pim_rounds_total",
                    "kind": "counter",
                    "series": [
                        {"labels": {"w": "a"}, "value": 2},
                        {"labels": {"w": "b"}, "value": 3},
                    ],
                },
                {
                    "name": "pim_idle_total",
                    "kind": "counter",
                    "series": [{"labels": {}, "value": 0}],
                },
                {
                    "name": "queue_depth",
                    "kind": "gauge",
                    "series": [{"labels": {}, "value": 7}],
                },
            ],
        }
        assert counters_from_diff(diff) == {"pim_rounds_total": 5}

    def test_matches_live_registry_diff(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        rounds = registry.counter("pim_rounds_total", "rounds")
        registry.gauge("queue_depth", "depth").set(7)
        before = registry.snapshot()
        rounds.inc(2, w="a")
        rounds.inc(3, w="b")
        assert counters_from_diff(registry.diff(before)) == {
            "pim_rounds_total": 5.0
        }


class TestBenchCli:
    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_run_then_gate_passes(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        scenario = "engine_vector_vs_scalar"
        assert self._run(
            ["bench", "run", "--scenario", scenario, "--ledger", str(ledger)]
        ) == 0
        assert self._run(
            [
                "bench", "compare",
                "--ledger", str(ledger),
                "--baseline", str(ledger),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert len(load_ledger(ledger)) == 1

    def test_no_append_leaves_ledger_alone(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        assert self._run(
            [
                "bench", "run",
                "--scenario", "engine_vector_vs_scalar",
                "--ledger", str(ledger),
                "--no-append",
            ]
        ) == 0
        assert not ledger.exists()

    def test_gate_fails_on_doctored_baseline(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        scenario = "engine_vector_vs_scalar"
        assert self._run(
            ["bench", "run", "--scenario", scenario, "--ledger", str(ledger)]
        ) == 0
        records = json.loads(ledger.read_text())
        doctored = [dict(records[0])]
        doctored[0]["pairs_per_second"] *= 2  # pretend we used to be 2x faster
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doctored))
        assert self._run(
            [
                "bench", "compare",
                "--ledger", str(ledger),
                "--baseline", str(baseline),
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert scenario in err and "pairs_per_second" in err

    def test_compare_without_baseline_errors(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        append_records(ledger, [record()])
        missing = tmp_path / "baseline.json"
        assert self._run(
            [
                "bench", "compare",
                "--ledger", str(ledger),
                "--baseline", str(missing),
            ]
        ) == 1
        assert "no baseline records" in capsys.readouterr().err
