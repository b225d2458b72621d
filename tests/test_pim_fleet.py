"""Differential shard-equivalence suite for the sharded fleet.

The fleet's core claim: placement never changes results.  For any
workload, penalties and worker count, a :class:`~repro.pim.fleet.FleetCoordinator`
at ``shards=1`` is byte-identical to an unsharded
:class:`~repro.pim.scheduler.BatchScheduler` run — results, recovery
reports, metric snapshots — and ``shards=2/4`` reproduce the same
stream under deterministic round striping.  The acceptance pin runs the
paper-shaped 512-pair workload at 4 shards, kills a shard's journal
mid-run, resumes from the federated manifest, and requires everything
(including per-shard health-ledger state and journal bytes) to replay
identically.
"""

from __future__ import annotations

import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.penalties import AffinePenalties, EditPenalties, LinearPenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError, DegradedCapacity, JournalError
from repro.obs.events import validate_event_log
from repro.obs.telemetry import RunTelemetry
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, RetryPolicy, TaskletStall
from repro.pim.fleet import (
    MANIFEST_SCHEMA,
    FleetCoordinator,
    shard_journal_name,
    slice_fault_plan,
)
from repro.pim.health import HealthPolicy
from repro.pim.journal import result_to_dict
from repro.pim.kernel import KernelConfig
from repro.pim.scheduler import BatchScheduler
from repro.pim.system import PimSystem

NUM_DPUS = 4


def make_config() -> PimSystemConfig:
    return PimSystemConfig(
        num_dpus=NUM_DPUS, num_ranks=1, tasklets=4, num_simulated_dpus=NUM_DPUS
    )


def make_kernel(penalties=None, max_read_len: int = 32) -> KernelConfig:
    return KernelConfig(
        penalties=penalties if penalties is not None else EditPenalties(),
        max_read_len=max_read_len,
        max_edits=4,
    )


def make_fleet(shards: int, penalties=None, **kwargs) -> FleetCoordinator:
    return FleetCoordinator(
        make_config(), make_kernel(penalties), shards=shards, **kwargs
    )


def make_pairs(n: int, seed: int = 7, length: int = 24):
    return ReadPairGenerator(length=length, error_rate=0.05, seed=seed).pairs(n)


def flat_results(run) -> list[tuple[int, int, str]]:
    """Workload-global (index, score, cigar) triples, sorted."""
    out, start = [], 0
    for rnd, size in zip(run.per_round, run.schedule.round_sizes()):
        out.extend((i + start, s, str(c)) for i, s, c in rnd.results)
        start += size
    return sorted(out)


class TestShardEquivalence:
    def test_shards1_byte_identical_to_unsharded(self):
        """shards=1 is the unsharded scheduler to the byte — results,
        per-round checkpoints, timings AND the metric snapshot."""
        pairs = make_pairs(50)
        tel = RunTelemetry()
        baseline = BatchScheduler(
            PimSystem(make_config(), make_kernel(), telemetry=tel)
        ).run(pairs, pairs_per_round=8, collect_results=True)

        fleet = make_fleet(1, telemetry=RunTelemetry())
        run = fleet.run(pairs, pairs_per_round=8, collect_results=True)

        assert [result_to_dict(r) for r in run.per_round] == [
            result_to_dict(r) for r in baseline.per_round
        ]
        assert run.total_seconds == baseline.total_seconds
        assert run.recovery is None and baseline.recovery is None
        assert fleet.metrics_snapshot() == tel.registry.snapshot()

    @given(
        n=st.integers(min_value=1, max_value=36),
        seed=st.integers(min_value=0, max_value=2**16),
        pairs_per_round=st.integers(min_value=3, max_value=13),
        penalties=st.sampled_from(
            [EditPenalties(), LinearPenalties(), AffinePenalties()]
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_workload_any_penalties(
        self, n, seed, pairs_per_round, penalties
    ):
        """For any workload/penalties, every shard count delivers the
        unsharded result stream."""
        pairs = make_pairs(n, seed=seed)
        baseline = BatchScheduler(
            PimSystem(make_config(), make_kernel(penalties))
        ).run(pairs, pairs_per_round=pairs_per_round, collect_results=True)
        expected = flat_results(baseline)
        for shards in (1, 2, 4):
            run = make_fleet(shards, penalties).run(
                pairs, pairs_per_round=pairs_per_round, collect_results=True
            )
            assert flat_results(run) == expected, f"shards={shards} diverged"
            assert run.recovery is None

    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        dead=st.integers(min_value=0, max_value=NUM_DPUS - 1),
        transient=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_uniform_faults_identical_across_shard_counts(
        self, n, seed, dead, transient
    ):
        """Under a uniform-domain fault plan (same local fault on every
        shard), results AND recovery reports are identical at every
        shard count."""
        pairs = make_pairs(n, seed=seed)
        plan = FaultPlan(
            seed=3,
            deaths=(DpuDeath(dpu_id=dead, attempts=(0,) if transient else None),),
        )
        policy = RetryPolicy(max_attempts=2, max_requeues=NUM_DPUS - 1)
        baseline = BatchScheduler(PimSystem(make_config(), make_kernel())).run(
            pairs,
            pairs_per_round=7,
            collect_results=True,
            fault_plan=plan,
            retry_policy=policy,
        )
        for shards in (1, 2, 4):
            run = make_fleet(shards, fault_domain="uniform").run(
                pairs,
                pairs_per_round=7,
                collect_results=True,
                fault_plan=plan,
                retry_policy=policy,
            )
            assert flat_results(run) == flat_results(baseline)
            assert run.recovery.to_dict() == baseline.recovery.to_dict()

    def test_worker_counts_0_1_2_identical(self):
        """Deterministic placement at any per-shard worker count: the
        host-parallel fan-out below the shards never changes results."""
        pairs = make_pairs(40)
        reference = None
        for workers in (1, 0, 2):
            run = make_fleet(2, workers=workers).run(
                pairs, pairs_per_round=8, collect_results=True
            )
            doc = [result_to_dict(r) for r in run.per_round]
            if reference is None:
                reference = doc
            else:
                assert doc == reference, f"workers={workers} diverged"

    def test_shard_workers_process_pool_identical(self):
        """Process-parallel shard execution returns the same FleetRun
        the sequential path does (and federates worker telemetry)."""
        pairs = make_pairs(48)
        sequential = make_fleet(4, telemetry=RunTelemetry())
        seq_run = sequential.run(pairs, pairs_per_round=6, collect_results=True)
        parallel = make_fleet(4, shard_workers=2, telemetry=RunTelemetry())
        par_run = parallel.run(pairs, pairs_per_round=6, collect_results=True)
        assert [result_to_dict(r) for r in par_run.per_round] == [
            result_to_dict(r) for r in seq_run.per_round
        ]
        assert par_run.total_seconds == seq_run.total_seconds
        # counters federate identically either way (gauges may differ:
        # merge keeps the max, a live registry keeps the last write)
        def counters(snap):
            return [
                f for f in snap["families"] if f["kind"] == "counter"
            ]

        assert counters(parallel.metrics_snapshot()) == counters(
            sequential.metrics_snapshot()
        )


class TestAcceptance512:
    """The ISSUE's acceptance pin: 512 pairs, 4 shards, byte identity."""

    PAIRS = 512
    PPR = 32

    def test_fleet4_matches_fleet1_fault_free(self):
        pairs = make_pairs(self.PAIRS, seed=17, length=32)
        one = make_fleet(1).run(
            pairs, pairs_per_round=self.PPR, collect_results=True
        )
        four = make_fleet(4).run(
            pairs, pairs_per_round=self.PPR, collect_results=True
        )
        assert [result_to_dict(r) for r in four.per_round] == [
            result_to_dict(r) for r in one.per_round
        ]
        assert four.results() == one.results()
        # federation buys modeled time, never different answers
        assert four.total_seconds < one.total_seconds
        assert four.throughput() > one.throughput()

    def test_fleet4_matches_fleet1_under_faults(self):
        """Scores, CIGARs AND RecoveryReports byte-identical under an
        injected death (uniform domain: the same local DPU dies on
        every shard)."""
        pairs = make_pairs(self.PAIRS, seed=17, length=32)
        plan = FaultPlan(
            seed=5,
            deaths=(DpuDeath(dpu_id=1),),
            stalls=(TaskletStall(dpu_id=2, attempts=(0,)),),
        )
        runs = {}
        for shards in (1, 4):
            runs[shards] = make_fleet(shards, fault_domain="uniform").run(
                pairs,
                pairs_per_round=self.PPR,
                collect_results=True,
                fault_plan=plan,
            )
        assert flat_results(runs[4]) == flat_results(runs[1])
        assert runs[4].recovery.to_dict() == runs[1].recovery.to_dict()

    def test_mid_round_shard_kill_resume_replays_identically(self, tmp_path):
        """Kill one shard's journal mid-round and another's entirely;
        resume must replay to identical results, recovery, health
        state and journal bytes."""
        pairs = make_pairs(self.PAIRS, seed=17, length=32)
        plan = FaultPlan(seed=5, deaths=(DpuDeath(dpu_id=1),))
        full_dir = tmp_path / "full"
        crash_dir = tmp_path / "crash"

        def fleet():
            return make_fleet(
                4, health_policy=HealthPolicy(), telemetry=RunTelemetry()
            )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            reference = fleet()
            full = reference.run(
                pairs,
                pairs_per_round=self.PPR,
                collect_results=True,
                fault_plan=plan,
                journal=full_dir,
            )
            shutil.copytree(full_dir, crash_dir)
            # shard 1: torn mid-run (header + one round survives);
            # shard 3: crashed before its journal hit the disk at all
            torn = crash_dir / shard_journal_name(1)
            lines = torn.read_text().splitlines(True)
            torn.write_text("".join(lines[:2]))
            (crash_dir / shard_journal_name(3)).unlink()

            resumer = fleet()
            resumed = resumer.resume_run(
                crash_dir,
                pairs,
                pairs_per_round=self.PPR,
                collect_results=True,
                fault_plan=plan,
            )

        assert resumed.results() == full.results()
        assert resumed.recovery.to_dict() == full.recovery.to_dict()
        assert resumed.total_seconds == full.total_seconds
        assert resumed.placements == full.placements
        assert resumed.rounds_replayed > 0
        # health ledgers replay to identical per-shard breaker state
        assert resumer.health_states() == reference.health_states()
        # every journal file rebuilt byte-identically
        for path in sorted(full_dir.iterdir()):
            assert (crash_dir / path.name).read_bytes() == path.read_bytes()

    def test_resume_at_different_worker_count_validates(self, tmp_path):
        """The fingerprint excludes workers (and shards lives in the
        manifest), so a crashed fleet run resumes at any worker count."""
        pairs = make_pairs(64, seed=3)
        journal = tmp_path / "journal"
        full = make_fleet(2).run(
            pairs, pairs_per_round=8, collect_results=True, journal=journal
        )
        torn = journal / shard_journal_name(0)
        lines = torn.read_text().splitlines(True)
        torn.write_text("".join(lines[:3]))
        resumed = make_fleet(2, workers=2).resume_run(
            journal, pairs, pairs_per_round=8, collect_results=True
        )
        assert resumed.results() == full.results()


class TestPlacementAndRebalance:
    def test_striped_placement_is_deterministic(self):
        fleet = make_fleet(4)
        assert fleet.place_rounds(6) == [0, 1, 2, 3, 0, 1]
        assert fleet.place_rounds(6) == [0, 1, 2, 3, 0, 1]

    def test_quarantined_shard_loses_placement_and_event_fires(self):
        """Killing most of shard 0 drops its healthy fraction below the
        threshold: later placements avoid it and a ``rebalance`` event
        lands in the primary event log."""
        telemetry = RunTelemetry()
        fleet = make_fleet(
            2, health_policy=HealthPolicy(), telemetry=telemetry
        )
        pairs = make_pairs(60)
        plan = FaultPlan(
            seed=3,
            deaths=(
                DpuDeath(dpu_id=0),
                DpuDeath(dpu_id=1),
                DpuDeath(dpu_id=2),
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            run = fleet.run(
                pairs, pairs_per_round=6, collect_results=True, fault_plan=plan
            )
            now = run.total_seconds
            assert fleet.available_shards(now) == (1,)
            with pytest.warns(DegradedCapacity):
                placements = fleet.place_rounds(4, now=now)
        assert placements == [1, 1, 1, 1]
        rebalances = telemetry.events.events("rebalance")
        assert rebalances, "no rebalance event on active-set change"
        attrs = dict(rebalances[-1].attrs)
        assert attrs == {"active": 1, "excluded": "0", "shards": 2}
        # pairs still all delivered despite the dying shard
        assert sorted(i for i, _, _ in run.results()) == list(range(60))

    def test_event_federation_orders_and_validates(self):
        telemetry = RunTelemetry()
        fleet = make_fleet(
            2, health_policy=HealthPolicy(), telemetry=telemetry
        )
        pairs = make_pairs(60)
        plan = FaultPlan(seed=3, deaths=(DpuDeath(dpu_id=0),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            fleet.run(
                pairs, pairs_per_round=6, collect_results=True, fault_plan=plan
            )
        records = fleet.event_records()
        header = validate_event_log(records)
        assert header["events"] == len(records) - 1
        # shard events carry their shard id; times never run backwards
        times = [r["t_s"] for r in records[1:]]
        assert times == sorted(times)
        assert any(r["attrs"].get("shard") == 0 for r in records[1:])

    def test_health_doc_merges_shards(self):
        fleet = make_fleet(2, health_policy=HealthPolicy())
        doc = fleet.health_doc()
        assert doc["schema"] == "repro.pim.fleet.health/v1"
        assert doc["shards"] == 2
        assert doc["total_dpus"] == 2 * NUM_DPUS
        assert doc["healthy_fraction"] == 1.0
        assert doc["available_shards"] == [0, 1]
        assert set(doc["per_shard"]) == {"0", "1"}


class TestFaultDomains:
    def test_slice_keeps_and_rebases_this_shards_faults(self):
        plan = FaultPlan(
            seed=9,
            deaths=(DpuDeath(dpu_id=1), DpuDeath(dpu_id=5)),
            stalls=(TaskletStall(dpu_id=4, attempts=(0,)),),
        )
        shard0 = slice_fault_plan(plan, 0, NUM_DPUS)
        shard1 = slice_fault_plan(plan, 1, NUM_DPUS)
        assert [f.dpu_id for f in shard0.deaths] == [1]
        assert shard0.stalls == ()
        assert [f.dpu_id for f in shard1.deaths] == [1]  # 5 - 4
        assert [f.dpu_id for f in shard1.stalls] == [0]  # 4 - 4
        assert shard1.seed == plan.seed

    def test_empty_slice_is_still_a_plan(self):
        """A shard with no faults still takes the resilient path, so
        every shard count produces structurally identical recovery."""
        plan = FaultPlan(seed=9, deaths=(DpuDeath(dpu_id=0),))
        empty = slice_fault_plan(plan, 3, NUM_DPUS)
        assert empty is not None
        assert empty.deaths == () and empty.seed == plan.seed

    def test_global_domain_death_only_hurts_its_shard(self):
        """A global-domain death on shard 1's first DPU leaves shards
        0/2/3 fault-free but still produces one coherent global
        recovery report."""
        pairs = make_pairs(64)
        plan = FaultPlan(seed=3, deaths=(DpuDeath(dpu_id=NUM_DPUS),))
        run = make_fleet(4, fault_domain="global").run(
            pairs, pairs_per_round=8, collect_results=True, fault_plan=plan
        )
        assert sorted(i for i, _, _ in run.results()) == list(range(64))
        rec = run.recovery.to_dict()
        assert rec["completed_pairs"] == list(range(64))
        assert rec["faults_seen"] > 0
        assert rec["rerun_pairs"], "the dead DPU's pairs were never requeued"


class TestValidation:
    def test_bad_construction_refused(self):
        with pytest.raises(ConfigError):
            make_fleet(0)
        with pytest.raises(ConfigError):
            make_fleet(2, fault_domain="banana")
        with pytest.raises(ConfigError):
            make_fleet(2, min_shard_healthy_fraction=0.0)
        # shard_workers > 1 + health_policy used to be refused; health
        # deltas now ride home in ShardOutcome, so it constructs fine
        fleet = make_fleet(2, shard_workers=2, health_policy=HealthPolicy())
        assert all(h is not None for h in fleet.shard_healths)

    def test_resume_refuses_shard_count_mismatch(self, tmp_path):
        pairs = make_pairs(30)
        journal = tmp_path / "journal"
        make_fleet(2).run(
            pairs, pairs_per_round=6, collect_results=True, journal=journal
        )
        with pytest.raises(JournalError, match="shards"):
            make_fleet(4).resume_run(
                journal, pairs, pairs_per_round=6, collect_results=True
            )

    def test_one_telemetry_federates_one_fleet(self):
        from repro.errors import TelemetryError

        telemetry = RunTelemetry()
        make_fleet(2, telemetry=telemetry)
        with pytest.raises(TelemetryError):
            make_fleet(2, telemetry=telemetry)

    def test_one_shard_journal_is_a_file_pinned_to_one_shard(self, tmp_path):
        """One shard journals to a single file with no manifest; a
        journal written at one shard count refuses to resume at another
        in both directions."""
        pairs = make_pairs(30)
        single = tmp_path / "run.jsonl"
        fleet_dir = tmp_path / "fleet"
        full = make_fleet(1).run(
            pairs, pairs_per_round=6, collect_results=True, journal=single
        )
        assert single.is_file()
        make_fleet(2).run(
            pairs, pairs_per_round=6, collect_results=True, journal=fleet_dir
        )
        with pytest.raises(JournalError):
            make_fleet(2).resume_run(
                single, pairs, pairs_per_round=6, collect_results=True
            )
        with pytest.raises(JournalError):
            make_fleet(1).resume_run(
                fleet_dir, pairs, pairs_per_round=6, collect_results=True
            )
        resumed = make_fleet(1).resume_run(
            single, pairs, pairs_per_round=6, collect_results=True
        )
        assert resumed.rounds_replayed == full.schedule.rounds
        assert resumed.results() == full.results()

    def test_resume_refuses_workload_mismatch(self, tmp_path):
        pairs = make_pairs(30)
        journal = tmp_path / "journal"
        make_fleet(2).run(
            pairs, pairs_per_round=6, collect_results=True, journal=journal
        )
        with pytest.raises(JournalError, match="fingerprint"):
            make_fleet(2).resume_run(
                journal,
                make_pairs(30, seed=99),
                pairs_per_round=6,
                collect_results=True,
            )

    def test_resume_refuses_fault_domain_mismatch(self, tmp_path):
        pairs = make_pairs(30)
        journal = tmp_path / "journal"
        make_fleet(2, fault_domain="global").run(
            pairs, pairs_per_round=6, collect_results=True, journal=journal
        )
        with pytest.raises(JournalError, match="fault_domain"):
            make_fleet(2, fault_domain="uniform").resume_run(
                journal, pairs, pairs_per_round=6, collect_results=True
            )

    def test_manifest_shape(self, tmp_path):
        pairs = make_pairs(20)
        journal = tmp_path / "journal"
        make_fleet(2).run(
            pairs, pairs_per_round=6, collect_results=True, journal=journal
        )
        manifest = FleetCoordinator.load_manifest(journal)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["shards"] == 2
        assert len(manifest["placements"]) == 4  # ceil(20 / 6)
        assert "workers" not in manifest["fingerprint"]
        assert "shards" not in manifest["fingerprint"]

    def test_fleet_run_summary_doc(self):
        pairs = make_pairs(20)
        run = make_fleet(2).run(pairs, pairs_per_round=6, collect_results=True)
        doc = run.to_dict()
        assert doc["schema"] == "repro.pim.fleet.run/v1"
        assert doc["shards"] == 2
        assert doc["rounds"] == 4
        assert doc["recovery"] is None
        assert doc["throughput_pairs_per_s"] == pytest.approx(run.throughput())
