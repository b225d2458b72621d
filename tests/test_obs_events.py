"""Tests for the structured event log and its cross-layer publishers."""

import pytest

from repro.errors import ConfigError, TelemetryError
from repro.obs import RunTelemetry, validate_event_log, write_events_jsonl
from repro.obs.events import (
    BREAKER,
    CAMPAIGN_CELL,
    CAMPAIGN_DONE,
    EVENT_KINDS,
    EVENTS_SCHEMA,
    FALLBACK,
    JOURNAL_REPLAY,
    NET_DROP,
    NET_PARTITION,
    NET_REDELIVER,
    REBALANCE,
    SLO_ALERT,
    STEAL,
    WATCHDOG,
    EventLog,
)


class TestPublish:
    def test_sequence_and_sorted_attrs(self):
        log = EventLog()
        first = log.publish(BREAKER, 0.5, dpu=3, old="closed", new="open")
        second = log.publish(WATCHDOG, 0.7, round=1, dpu=2)
        assert (first.seq, second.seq) == (0, 1)
        assert [k for k, _ in first.attrs] == ["dpu", "new", "old"]
        assert second.to_dict() == {
            "record": "event",
            "seq": 1,
            "t_s": 0.7,
            "kind": "watchdog",
            "attrs": {"dpu": 2, "round": 1},
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown event kind"):
            EventLog().publish("reboot", 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(TelemetryError, match=">= 0"):
            EventLog().publish(BREAKER, -1.0)

    def test_non_scalar_attr_rejected(self):
        with pytest.raises(TelemetryError, match="JSON scalar"):
            EventLog().publish(BREAKER, 0.0, dpus=[1, 2])

    def test_vocabulary_is_closed(self):
        assert EVENT_KINDS == {
            BREAKER, WATCHDOG, JOURNAL_REPLAY, FALLBACK,
            SLO_ALERT, REBALANCE, CAMPAIGN_CELL, CAMPAIGN_DONE,
            NET_DROP, NET_REDELIVER, NET_PARTITION, STEAL,
        }


class TestBounds:
    def test_capacity_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.publish(STEAL, float(i), round=i, from_shard=0, to_shard=1)
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.seq for e in log.events()] == [2, 3, 4]  # seqs keep rising
        assert log.header()["dropped"] == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            EventLog(capacity=0)


class TestQueries:
    def _populated(self):
        log = EventLog()
        log.publish(BREAKER, 0.1, dpu=1, old="closed", new="open")
        log.publish(FALLBACK, 0.2, state="active", healthy_fraction=0.5)
        log.publish(BREAKER, 0.3, dpu=1, old="open", new="half_open")
        return log

    def test_filter_by_kind(self):
        log = self._populated()
        assert [e.t_s for e in log.events(BREAKER)] == [0.1, 0.3]
        assert log.events(STEAL) == []
        with pytest.raises(TelemetryError):
            log.events("bogus")

    def test_kinds_seen_sorted(self):
        assert self._populated().kinds_seen() == {"breaker": 2, "fallback": 1}


class TestDocuments:
    def test_roundtrip_validates(self, tmp_path):
        log = EventLog()
        log.publish(JOURNAL_REPLAY, 0.0, round=0, pairs=24)
        log.publish(NET_DROP, 1.5, round=1, shard=0, direction="out", attempt=0)
        path = tmp_path / "events.jsonl"
        log.write(path)
        header = validate_event_log(str(path))
        assert header["schema"] == EVENTS_SCHEMA
        assert header["events"] == 2
        assert validate_event_log(log.to_records()) == header

    def test_deterministic_jsonl(self):
        def build():
            log = EventLog()
            log.publish(SLO_ALERT, 0.02, state="fire", window_s=0.02, burn=11.0)
            log.publish(SLO_ALERT, 0.03, state="resolve", window_s=0.02)
            return log.to_jsonl()

        assert build() == build()

    @pytest.mark.parametrize(
        "records, match",
        [
            ([], "at least a header"),
            ([{"record": "header", "schema": "bogus/v0", "events": 0}],
             "bad header"),
            ([{"record": "header", "schema": EVENTS_SCHEMA, "events": 2}],
             "header says"),
            ([{"record": "header", "schema": EVENTS_SCHEMA, "events": 1},
              {"record": "event", "kind": "bogus", "seq": 0, "t_s": 0.0,
               "attrs": {}}],
             "unknown kind"),
            ([{"record": "header", "schema": EVENTS_SCHEMA, "events": 2},
              {"record": "event", "kind": "steal", "seq": 1, "t_s": 0.0,
               "attrs": {}},
              {"record": "event", "kind": "steal", "seq": 1, "t_s": 0.0,
               "attrs": {}}],
             "does not increase"),
            ([{"record": "header", "schema": EVENTS_SCHEMA, "events": 1},
              {"record": "event", "kind": "steal", "seq": 0, "t_s": -1.0,
               "attrs": {}}],
             "t_s"),
            ([{"record": "header", "schema": EVENTS_SCHEMA, "events": 1},
              {"record": "event", "kind": "steal", "seq": 0, "t_s": 0.0,
               "attrs": []}],
             "attrs"),
        ],
    )
    def test_validation_rejects(self, records, match):
        with pytest.raises(TelemetryError, match=match):
            validate_event_log(records)

    def test_write_events_jsonl_helper(self, tmp_path):
        tel = RunTelemetry()
        tel.events.publish(BREAKER, 0.1, dpu=0, old="closed", new="open")
        path = tmp_path / "ev.jsonl"
        write_events_jsonl(str(path), tel)
        assert validate_event_log(str(path))["events"] == 1


class TestLayerPublishers:
    """Each resilience layer publishes its typed events."""

    def test_fleet_health_publishes_breaker_transitions(self):
        from repro.pim.health import FleetHealth, HealthPolicy

        log = EventLog()
        health = FleetHealth(
            4,
            policy=HealthPolicy(window=4, failure_threshold=2, cooldown_s=1.0),
            events=log,
        )
        health.record_failure(1, now=0.1)
        health.record_failure(1, now=0.2)  # trips open
        (ev,) = log.events(BREAKER)
        assert dict(ev.attrs) == {"dpu": 1, "old": "closed", "new": "open"}
        assert ev.t_s == 0.2

    def test_scheduler_publishes_watchdog_and_journal_replay(self, tmp_path):
        from repro.core.penalties import AffinePenalties
        from repro.data.generator import ReadPairGenerator
        from repro.pim.config import PimSystemConfig
        from repro.pim.faults import FaultPlan, TaskletStall
        from repro.pim.fleet import FleetCoordinator
        from repro.pim.kernel import KernelConfig

        def make_fleet():
            """A one-shard fleet; its round step reports into ``tel``."""
            tel = RunTelemetry()
            fleet = FleetCoordinator(
                PimSystemConfig(
                    num_dpus=4, num_ranks=1, tasklets=2, num_simulated_dpus=4
                ),
                KernelConfig(
                    penalties=AffinePenalties(4, 6, 2),
                    max_read_len=50,
                    max_edits=2,
                ),
                telemetry=tel,
            )
            return fleet, tel

        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(24)
        plan = FaultPlan(stalls=(TaskletStall(dpu_id=2),))

        fleet, tel = make_fleet()
        journal = tmp_path / "run.jsonl"
        fleet.run(pairs, pairs_per_round=12, fault_plan=plan, journal=str(journal))
        trips = tel.events.events(WATCHDOG)
        assert trips and all(
            dict(e.attrs)["dpu"] == 2 for e in trips
        )

        resumed, tel2 = make_fleet()
        run = resumed.resume_run(
            str(journal), pairs, pairs_per_round=12, fault_plan=plan
        )
        assert run.rounds_replayed == 2
        replays = tel2.events.events(JOURNAL_REPLAY)
        assert [dict(e.attrs)["round"] for e in replays] == [0, 1]

    def test_dispatcher_publishes_fallback_edges(self):
        """Covered end-to-end in test_obs_slo.py's chaos drill; here just
        pin that the kind is wired at all via the drill helper."""
        from repro.obs.events import FALLBACK as kind

        assert kind in EVENT_KINDS
