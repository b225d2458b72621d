"""Acceptance suite for the modeled coordinator<->shard transport.

The transport's core claims, pinned:

- a calm plan never constructs a transport, so the networked code path
  is byte-identical to the direct fleet path — results, recovery,
  timings, metric snapshots;
- under a seeded :class:`~repro.pim.transport.NetworkFaultPlan` with at
  least one live shard, every pair completes oracle-equal and the whole
  run (including the transport report) is deterministic per seed;
- hedged work-stealing beats timeout-retry-only on modeled
  ``total_seconds`` under a long one-shard partition (the acceptance
  pin the ISSUE names);
- health-ledger deltas ride home from pool workers, so the per-shard
  health docs are byte-identical at ``shard_workers`` 0, 1 and 2;
- networked rounds run through the same round loop as direct ones, so
  their ``watchdog`` events name the shard-local round.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.penalties import EditPenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError, DegradedCapacity, TransportError
from repro.obs.events import validate_event_log
from repro.obs.telemetry import RunTelemetry
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, RetryPolicy, TaskletStall
from repro.pim.fleet import FleetCoordinator
from repro.pim.health import HealthPolicy
from repro.pim.kernel import KernelConfig
from repro.pim.transport import (
    Envelope,
    LinkDelay,
    LinkDrop,
    LinkDuplicate,
    LinkReorder,
    NetworkFaultPlan,
    Partition,
    TransportPolicy,
)

NUM_DPUS = 4


def make_config() -> PimSystemConfig:
    return PimSystemConfig(
        num_dpus=NUM_DPUS, num_ranks=1, tasklets=4, num_simulated_dpus=NUM_DPUS
    )


def make_kernel() -> KernelConfig:
    return KernelConfig(
        penalties=EditPenalties(), max_read_len=32, max_edits=4
    )


def make_fleet(shards: int, **kwargs) -> FleetCoordinator:
    return FleetCoordinator(make_config(), make_kernel(), shards=shards, **kwargs)


def make_pairs(n: int, seed: int = 7, length: int = 24):
    return ReadPairGenerator(length=length, error_rate=0.05, seed=seed).pairs(n)


def kitchen_sink_plan(seed: int = 3) -> NetworkFaultPlan:
    """Every fault family at once, on a 2-shard fleet's links."""
    return NetworkFaultPlan(
        seed=seed,
        drops=(
            LinkDrop(shard_id=0, p=0.2, direction="work"),
            LinkDrop(shard_id=1, p=0.3, direction="both"),
        ),
        duplicates=(LinkDuplicate(shard_id=1, p=0.3),),
        delays=(LinkDelay(shard_id=0, delay_s=1e-4, jitter_s=5e-5),),
        reorders=(LinkReorder(shard_id=1, p=0.2, penalty_s=2e-4),),
        partitions=(Partition(start_s=0.01, end_s=0.02, shard_ids=(1,)),),
    )


class TestPlanValidation:
    def test_empty_plan_is_calm(self):
        assert NetworkFaultPlan().is_calm()

    def test_zero_effect_entries_are_calm(self):
        plan = NetworkFaultPlan(
            drops=(LinkDrop(shard_id=0, p=0.0),),
            duplicates=(LinkDuplicate(shard_id=1, p=0.0),),
            delays=(LinkDelay(shard_id=0, delay_s=0.0, jitter_s=0.0),),
            reorders=(LinkReorder(shard_id=1, p=0.0),),
        )
        assert plan.is_calm()
        assert not kitchen_sink_plan().is_calm()

    def test_bad_probabilities_refused(self):
        with pytest.raises(ConfigError):
            LinkDrop(shard_id=0, p=1.5)
        with pytest.raises(ConfigError):
            LinkDuplicate(shard_id=0, p=-0.1)
        with pytest.raises(ConfigError):
            LinkDelay(shard_id=0, delay_s=-1e-3)
        with pytest.raises(ConfigError):
            LinkDrop(shard_id=0, p=0.5, direction="sideways")

    def test_bad_policy_refused(self):
        with pytest.raises(ConfigError):
            TransportPolicy(link_timeout_s=0.0)
        with pytest.raises(ConfigError):
            TransportPolicy(max_redeliveries=0)
        with pytest.raises(ConfigError):
            TransportPolicy(backoff_factor=0.5)

    def test_round_trip_through_dict(self):
        plan = kitchen_sink_plan()
        assert NetworkFaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_garbage_refused(self):
        with pytest.raises(ConfigError):
            NetworkFaultPlan.from_dict({"drops": [{"nope": 1}]})
        with pytest.raises(ConfigError):
            NetworkFaultPlan.from_dict({"schema": "other/v9"})

    def test_policy_without_plan_refused(self):
        with pytest.raises(ConfigError):
            make_fleet(2, transport_policy=TransportPolicy())

    @pytest.mark.parametrize(
        "plan",
        [
            NetworkFaultPlan(drops=(LinkDrop(shard_id=7, p=1.0),)),
            NetworkFaultPlan(duplicates=(LinkDuplicate(shard_id=2, p=0.5),)),
            NetworkFaultPlan(delays=(LinkDelay(shard_id=-1),)),
            NetworkFaultPlan(reorders=(LinkReorder(shard_id=3, p=0.5),)),
            NetworkFaultPlan(partitions=(Partition(0.0, 1.0, shard_ids=(0, 5)),)),
        ],
    )
    def test_plan_naming_unknown_links_refused(self, plan):
        """A fault on a link the fleet lacks would switch the transport
        on and then never fire; the plan is refused instead."""
        with pytest.raises(ConfigError, match="shard links"):
            make_fleet(2, net_plan=plan)

    def test_envelope_key_is_per_round_not_per_shard(self):
        # a stolen round's result must dedup against the original's
        # late copy, so the idempotency key ignores the executing shard
        assert Envelope.make_key("result", 7) == "result/round-0007"


class TestCalmByteIdentity:
    @pytest.mark.parametrize("shard_workers", [0, 2])
    def test_calm_plan_is_the_direct_path(self, shard_workers):
        """A calm plan never constructs a transport: results, timings,
        and the metrics snapshot are byte-identical to no plan at all."""
        pairs = make_pairs(48)
        direct = make_fleet(
            2, shard_workers=shard_workers, telemetry=RunTelemetry()
        )
        calm = make_fleet(
            2,
            shard_workers=shard_workers,
            telemetry=RunTelemetry(),
            net_plan=NetworkFaultPlan(drops=(LinkDrop(shard_id=0, p=0.0),)),
        )
        assert calm.transport is None
        run_a = direct.run(pairs, pairs_per_round=8, collect_results=True)
        run_b = calm.run(pairs, pairs_per_round=8, collect_results=True)
        assert run_a.to_dict() == run_b.to_dict()
        assert sorted(run_a.results()) == sorted(run_b.results())
        assert run_a.total_seconds == run_b.total_seconds
        assert direct.metrics_snapshot() == calm.metrics_snapshot()


class TestNetworkedRuns:
    def test_lossy_run_oracle_equal_and_deterministic(self):
        pairs = make_pairs(48)
        oracle = make_fleet(2).run(pairs, pairs_per_round=8, collect_results=True)

        def lossy_run():
            fleet = make_fleet(2, net_plan=kitchen_sink_plan())
            assert fleet.transport is not None
            return fleet.run(pairs, pairs_per_round=8, collect_results=True)

        run_a, run_b = lossy_run(), lossy_run()
        assert sorted(run_a.results()) == sorted(oracle.results())
        assert run_a.to_dict() == run_b.to_dict()
        report = run_a.transport
        assert report is not None
        assert report.drops > 0
        assert report.redeliveries > 0
        assert report.duplicates_absorbed > 0
        assert report.partition_blocked > 0
        # redelivery only adds modeled time
        assert run_a.total_seconds >= oracle.total_seconds

    def test_transport_counters_and_events(self):
        telemetry = RunTelemetry()
        fleet = make_fleet(2, telemetry=telemetry, net_plan=kitchen_sink_plan())
        fleet.run(make_pairs(48), pairs_per_round=8, collect_results=True)
        families = {
            f["name"]: f for f in fleet.metrics_snapshot()["families"]
        }
        for key in (
            "pim_net_envelopes_total",
            "pim_net_drops_total",
            "pim_net_redeliveries_total",
            "pim_net_duplicates_absorbed_total",
            "pim_net_partition_blocked_total",
        ):
            assert key in families, f"{key} missing from the federated snapshot"
            assert sum(s["value"] for s in families[key]["series"]) > 0
        records = fleet.event_records()
        validate_event_log(records)
        kinds = {r["kind"] for r in records[1:]}
        assert {"net_drop", "net_redeliver", "net_partition"} <= kinds

    def test_repeat_runs_salt_the_fault_rng(self):
        """A long-lived transport (the serve path: one ``fleet.run`` per
        batch) must not replay the same drop decisions every run —
        round indices restart at 0, so ``begin_run`` salts the RNG.
        The first run's salt is 0: byte-identical to a fresh fleet."""
        plan = NetworkFaultPlan(seed=5, drops=(LinkDrop(shard_id=1, p=0.3),))
        pairs = make_pairs(32)
        fleet = make_fleet(2, net_plan=plan)
        fresh = make_fleet(2, net_plan=plan)
        first = fleet.run(pairs, pairs_per_round=8, collect_results=True)
        assert first.to_dict() == fresh.run(
            pairs, pairs_per_round=8, collect_results=True
        ).to_dict()
        drops = {first.transport.drops}
        for _ in range(6):
            drops.add(
                fleet.run(pairs, pairs_per_round=8).transport.drops
            )
        assert len(drops) > 1, (
            "every run replayed identical drop decisions; begin_run "
            "did not salt the fault RNG"
        )

    def test_watchdog_events_carry_shard_local_rounds(self):
        """A DPU that stalls every round trips the watchdog on each of
        its shard's rounds; over the network, as on the direct path,
        every trip names its own shard-local round."""
        fleet = make_fleet(
            2, telemetry=RunTelemetry(), net_plan=kitchen_sink_plan()
        )
        stall = FaultPlan(
            seed=5, stalls=(TaskletStall(dpu_id=2, attempts=(0,)),)
        )
        run = fleet.run(
            make_pairs(48), pairs_per_round=8, collect_results=True, fault_plan=stall
        )
        assert run.placements.count(0) == 3
        rounds = [
            r["attrs"]["round"]
            for r in fleet.event_records()[1:]
            if r["kind"] == "watchdog" and r["attrs"]["shard"] == 0
        ]
        assert rounds == [0, 1, 2]

    def test_journal_refused_over_an_active_plan(self, tmp_path):
        fleet = make_fleet(2, net_plan=kitchen_sink_plan())
        with pytest.raises(ConfigError):
            fleet.run(
                make_pairs(16), pairs_per_round=8, journal=tmp_path / "journal"
            )

    def test_liveness_violation_raises_transport_error(self):
        """Every link drops everything and hedging is off: the round can
        never come home, which is a plan error, not a hang."""
        plan = NetworkFaultPlan(
            drops=(
                LinkDrop(shard_id=0, p=1.0),
                LinkDrop(shard_id=1, p=1.0),
            ),
        )
        fleet = make_fleet(
            2,
            net_plan=plan,
            transport_policy=TransportPolicy(max_redeliveries=4),
        )
        with pytest.raises(TransportError):
            fleet.run(make_pairs(16), pairs_per_round=8)


class TestHedgedStealing:
    PLAN = NetworkFaultPlan(
        seed=1,
        partitions=(Partition(start_s=1e-4, end_s=0.3, shard_ids=(1,)),),
    )

    def run(self, hedge: bool):
        fleet = make_fleet(
            2,
            net_plan=self.PLAN,
            transport_policy=TransportPolicy(hedge=hedge),
        )
        run = fleet.run(make_pairs(48), pairs_per_round=8, collect_results=True)
        return run

    def test_hedged_stealing_beats_timeout_retry_only(self):
        """The ISSUE's acceptance pin: under a long one-shard partition,
        hedged re-dispatch onto the live shard beats riding out the
        partition with timeout-retry, on modeled total_seconds."""
        retry_only = self.run(hedge=False)
        hedged = self.run(hedge=True)
        assert sorted(hedged.results()) == sorted(retry_only.results())
        assert hedged.total_seconds < retry_only.total_seconds
        assert hedged.transport.steals >= 1
        assert retry_only.transport.steals == 0
        # the partitioned shard's rounds all ride out the window under
        # retry-only, so the win is the partition length, roughly
        assert retry_only.total_seconds > 0.3
        assert hedged.total_seconds < 0.3

    def test_steal_race_never_keeps_two_results(self):
        hedged = self.run(hedge=True)
        report = hedged.transport
        # one survivor recorded per round, every extra arrival absorbed
        assert sorted(report.survivors) == list(range(6))
        assert len(report.receipts) == 6
        assert report.duplicates_absorbed >= report.steals - 1

    def test_deterministic_per_seed(self):
        assert self.run(True).to_dict() == self.run(True).to_dict()


class TestHealthDeltasAcrossWorkers:
    def run_with_workers(self, shard_workers: int):
        fleet = make_fleet(
            2,
            shard_workers=shard_workers,
            health_policy=HealthPolicy(
                window=4, failure_threshold=2, cooldown_s=1e9
            ),
            fault_domain="uniform",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            run = fleet.run(
                make_pairs(64),
                pairs_per_round=8,
                collect_results=True,
                fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=1),)),
                retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=2e-3),
            )
        docs = [h.to_dict(1e6) for h in fleet.shard_healths]
        return sorted(run.results()), docs

    def test_health_docs_identical_at_any_worker_count(self):
        """Satellite 1's pin: the shard_workers > 1 + health restriction
        is lifted — ledger deltas ship home from pool workers, so the
        health docs are byte-identical inline, at one worker, and two."""
        inline_results, inline_docs = self.run_with_workers(0)
        for workers in (1, 2):
            results, docs = self.run_with_workers(workers)
            assert results == inline_results
            assert docs == inline_docs
        # the dead DPU must actually be quarantined in every variant
        assert any(
            b["state"] == "open" for doc in inline_docs
            for b in doc["breakers"].values()
        )


class TestServeIntegration:
    def test_non_fleet_service_refuses_net_plan(self):
        from repro.serve.service import build_service

        with pytest.raises(ConfigError):
            build_service(
                num_dpus=NUM_DPUS,
                max_read_len=32,
                max_edits=4,
                net_plan=kitchen_sink_plan(),
            )

    def test_link_health_degrades_dispatcher_capacity(self):
        """A link partitioned past the end of the run stays quarantined:
        its breaker opens, never sees a success, and the dispatcher's
        backpressure signal reports the fleet below full capacity."""
        fleet = make_fleet(
            2,
            net_plan=NetworkFaultPlan(
                seed=1,
                partitions=(Partition(start_s=0.0, end_s=1e6, shard_ids=(1,)),),
            ),
            transport_policy=TransportPolicy(hedge=True, breaker_cooldown_s=1e9),
        )
        assert fleet.link_healthy_fraction(0.0) == 1.0
        run = fleet.run(make_pairs(48), pairs_per_round=8, collect_results=True)
        # hedging moved the dead link's rounds onto the live shard
        assert run.transport.steals >= 1
        assert fleet.link_healthy_fraction(run.total_seconds) == 0.5
