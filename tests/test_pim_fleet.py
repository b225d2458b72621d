"""Differential shard-equivalence suite for the sharded fleet.

The fleet's core claim: placement never changes results.  A
:class:`~repro.pim.fleet.FleetCoordinator` at ``shards=1`` adds nothing
to its shard's :class:`~repro.pim.scheduler.BatchScheduler` round steps
— results, timings, metric snapshots — and for any workload, penalties
and worker count ``shards=2/4`` reproduce the one-shard stream (results
and recovery reports) under deterministic round striping.  The acceptance pin runs the
paper-shaped 512-pair workload at 4 shards, kills a shard's journal
mid-run, resumes from the federated manifest, and requires everything
(including per-shard health-ledger state and journal bytes) to replay
identically.
"""

from __future__ import annotations

import shutil
import warnings
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.penalties import AffinePenalties, EditPenalties, LinearPenalties
from repro.core.wfa_batch import BatchWfaEngine
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError, DegradedCapacity, JournalError
from repro.obs.events import validate_event_log
from repro.obs.telemetry import RunTelemetry
from repro.pim import kernel as kernel_mod
from repro.pim import parallel as parallel_mod
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
from repro.pim.transport import LinkDrop, NetworkFaultPlan, Partition, TransportPolicy

NUM_DPUS = 4


def make_config(workers: int = 1) -> PimSystemConfig:
    return PimSystemConfig(
        num_dpus=NUM_DPUS,
        num_ranks=1,
        tasklets=4,
        num_simulated_dpus=NUM_DPUS,
        workers=workers,
    )


def make_kernel(penalties=None, max_read_len: int = 32) -> KernelConfig:
    return KernelConfig(
        penalties=penalties if penalties is not None else EditPenalties(),
        max_read_len=max_read_len,
        max_edits=4,
    )


def make_fleet(
    shards: int, penalties=None, workers: int = 1, **kwargs
) -> FleetCoordinator:
    return FleetCoordinator(
        make_config(workers), make_kernel(penalties), shards=shards, **kwargs
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
        """shards=1 is its round steps on an unsharded system to the
        byte — results, per-round checkpoints, the serialized total AND
        the metric snapshot."""
        pairs = make_pairs(50)
        tel = RunTelemetry()
        scheduler = BatchScheduler(
            PimSystem(make_config(), make_kernel(), telemetry=tel)
        )
        scheduler._note_round_size(8)
        steps, clock = [], 0.0
        for index, start in enumerate(range(0, len(pairs), 8)):
            step = scheduler.run(
                index, start, pairs[start : start + 8], clock, collect_results=True
            )
            steps.append(step)
            clock += step.total_seconds + step.recovery_overhead_seconds
        # the makespan sums each section over the rounds, in this order
        serialized = (
            sum(r.kernel_seconds for r in steps)
            + sum(r.transfer_seconds for r in steps)
            + sum(r.launch_seconds for r in steps)
            + sum(r.recovery_overhead_seconds for r in steps)
        )

        fleet = make_fleet(1, telemetry=RunTelemetry())
        run = fleet.run(pairs, pairs_per_round=8, collect_results=True)

        assert [result_to_dict(r) for r in run.per_round] == [
            result_to_dict(r) for r in steps
        ]
        assert run.total_seconds == serialized == pytest.approx(clock)
        assert run.recovery is None
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
        one-shard result stream."""
        pairs = make_pairs(n, seed=seed)
        baseline = make_fleet(1, penalties).run(
            pairs, pairs_per_round=pairs_per_round, collect_results=True
        )
        assert baseline.recovery is None
        expected = flat_results(baseline)
        for shards in (2, 4):
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
        baseline = make_fleet(1, fault_domain="uniform").run(
            pairs,
            pairs_per_round=7,
            collect_results=True,
            fault_plan=plan,
            retry_policy=policy,
        )
        for shards in (2, 4):
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
        host-parallel fan-out below the shards never changes results,
        modeled time or the federated counters."""
        pairs = make_pairs(48)
        reference = None
        for workers in (1, 0, 2):
            fleet = make_fleet(4, workers=workers, telemetry=RunTelemetry())
            run = fleet.run(pairs, pairs_per_round=6, collect_results=True)
            counters = [
                f for f in fleet.metrics_snapshot()["families"]
                if f["kind"] == "counter"
            ]
            doc = (
                [result_to_dict(r) for r in run.per_round],
                run.total_seconds,
                counters,
            )
            if reference is None:
                reference = doc
            else:
                assert doc == reference, f"workers={workers} diverged"


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


class TestPooledShards:
    def test_pool_workers_ship_their_runs_home(self):
        """DPU-pool workers' runs land on their shards' home timelines:
        the run manifest, the Chrome trace and the reconciled run count
        are the inline run's."""
        from repro.obs.export import to_chrome_trace

        pairs = make_pairs(48)
        plan = FaultPlan(seed=3, deaths=(DpuDeath(dpu_id=1),))
        seen = {}
        for workers in (1, 2):
            telemetry = RunTelemetry()
            make_fleet(2, workers=workers, telemetry=telemetry).run(
                pairs, pairs_per_round=8, collect_results=True, fault_plan=plan
            )
            seen[workers] = (
                telemetry.metrics_document()["runs"],
                to_chrome_trace(telemetry),
                telemetry.reconcile()["runs"],
            )
        assert seen[1][2] == 6
        assert seen[2] == seen[1]


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


class TestOneEngineStream:
    """The round loop aligns the pairs of every round a fleet call
    executes in one vector-engine stream where the system allows it
    (in-process jobs, every DPU simulated), and no result depends on
    which engine run held a pair."""

    @pytest.fixture
    def engine_runs(self, monkeypatch):
        """Batch size of every vector-engine run, in call order."""
        sizes = []
        run = BatchWfaEngine.run

        def counting(engine):
            sizes.append(engine.size)
            return run(engine)

        monkeypatch.setattr(BatchWfaEngine, "run", counting)
        return sizes

    @staticmethod
    def fleet(shards=4, engine="vector", config=None, **kwargs):
        kernel = replace(make_kernel(), engine=engine)
        return FleetCoordinator(
            config if config is not None else make_config(),
            kernel,
            shards=shards,
            **kwargs,
        )

    def scalar_results(self, pairs, shards=4, **kwargs):
        run = self.fleet(shards, engine="scalar").run(
            pairs, collect_results=True, **kwargs
        )
        return flat_results(run)

    def test_one_engine_run_per_fleet_call(self, engine_runs):
        pairs = make_pairs(96)
        run = self.fleet().run(pairs, pairs_per_round=24, collect_results=True)
        assert run.placements == [0, 1, 2, 3]
        assert engine_runs == [96]  # one run for all four rounds
        assert flat_results(run) == self.scalar_results(pairs, pairs_per_round=24)

    def test_a_round_that_fills_a_run_keeps_its_own_views(
        self, engine_runs, monkeypatch
    ):
        """A round larger than one engine run shares none: its jobs take
        their views one job at a time, as a lone round's do.  Smaller
        rounds share runs.  Either way no more than two runs are alive
        while the kernels align, however large the round."""
        budget = 10 * make_kernel().metadata_peak_bytes() + 5
        monkeypatch.setattr(kernel_mod, "BATCH_BUDGET_BYTES", budget)
        engines, alive = [], []
        engine_init = BatchWfaEngine.__init__
        align_one = kernel_mod.WfaDpuKernel._align_one

        def tracking_init(engine, *args, **kwargs):
            engine_init(engine, *args, **kwargs)
            engines.append(weakref.ref(engine))

        def counting_align_one(kernel, *args):
            alive.append(sum(ref() is not None for ref in engines))
            return align_one(kernel, *args)

        monkeypatch.setattr(BatchWfaEngine, "__init__", tracking_init)
        monkeypatch.setattr(kernel_mod.WfaDpuKernel, "_align_one", counting_align_one)
        pairs = make_pairs(48)
        # 24-pair rounds: one job-ordered stream per round, in 10-pair runs
        for ppr, runs in ((24, [10, 10, 4] * 2), (8, [10, 10, 10, 10, 8])):
            engine_runs.clear()
            alive.clear()
            run = self.fleet(2).run(pairs, pairs_per_round=ppr, collect_results=True)
            assert engine_runs == runs
            assert len(alive) == 48 and max(alive) <= 2
            assert flat_results(run) == self.scalar_results(
                pairs, shards=2, pairs_per_round=ppr
            )

    def test_pooled_jobs_align_in_their_workers(self, monkeypatch):
        """At ``workers=2`` the coordinator aligns nothing: every engine
        run happens inside a pool worker's group."""
        runs, pool = [], {"inside": False}
        run = BatchWfaEngine.run

        def counting(engine):
            runs.append((engine.size, pool["inside"]))
            return run(engine)

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, *iterables):
                pool["inside"] = True
                try:
                    return list(map(fn, *iterables))
                finally:
                    pool["inside"] = False

            def shutdown(self):
                pass

        monkeypatch.setattr(BatchWfaEngine, "run", counting)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", InlinePool)
        pairs = make_pairs(96)
        pooled = self.fleet(config=make_config(workers=2)).run(
            pairs, pairs_per_round=24, collect_results=True
        )
        # four rounds, each two groups of two 6-pair jobs
        assert runs == [(12, True)] * 8
        assert flat_results(pooled) == self.scalar_results(pairs, pairs_per_round=24)

    def test_only_simulated_dpus_pairs_are_aligned(self, engine_runs):
        config = replace(make_config(), num_simulated_dpus=2)
        pairs = make_pairs(96)
        run = self.fleet(config=config).run(
            pairs, pairs_per_round=24, collect_results=True
        )
        # slots 0 and 1 take 6 of each round's 24 pairs apiece
        assert engine_runs == [12] * 4
        assert len(flat_results(run)) == 48

    def test_resume_aligns_only_the_rounds_it_executes(self, engine_runs, tmp_path):
        pairs = make_pairs(96)
        journal = tmp_path / "journal"
        whole = self.fleet().run(
            pairs, pairs_per_round=24, collect_results=True, journal=journal
        )
        (journal / shard_journal_name(2)).unlink()
        engine_runs.clear()
        resumed = self.fleet().resume_run(
            journal, pairs, pairs_per_round=24, collect_results=True
        )
        assert resumed.rounds_replayed == 3
        assert engine_runs == [24]  # round 2 alone
        assert resumed.results() == whole.results()

    def test_hedged_steal_realigns_the_stolen_round(self, engine_runs):
        plan = NetworkFaultPlan(
            seed=1,
            partitions=(Partition(start_s=1e-4, end_s=0.3, shard_ids=(1,)),),
        )
        pairs = make_pairs(48)
        run = self.fleet(
            2, net_plan=plan, transport_policy=TransportPolicy(hedge=True)
        ).run(pairs, pairs_per_round=8, collect_results=True)
        steals = run.transport.steals
        assert steals >= 1
        assert engine_runs == [48] + [8] * steals
        assert flat_results(run) == self.scalar_results(
            pairs, shards=2, pairs_per_round=8
        )

    def test_empty_call_still_runs(self, engine_runs):
        plan = NetworkFaultPlan(seed=1, drops=(LinkDrop(shard_id=0, p=0.5),))
        for fleet in (self.fleet(), self.fleet(2, net_plan=plan)):
            run = fleet.run([], pairs_per_round=24)
            assert run.per_round == [] and run.schedule.rounds == 0
        assert engine_runs == []

    def test_faults_and_quarantine_match_the_scalar_engine(
        self, engine_runs, monkeypatch
    ):
        """A dead DPU is retried, requeued and then quarantined, so its
        shard's later round splits its views over three slots; results,
        recovery, metrics, events and health equal the scalar engine's,
        and every pair aligns once, in the call's one engine run."""
        scalar_runs = []
        engine = kernel_mod.WfaEngine

        class Counting(engine):
            def run(self):
                scalar_runs.append(1)
                return super().run()

        def run(kernel_engine):
            telemetry = RunTelemetry()
            fleet = self.fleet(
                engine=kernel_engine,
                telemetry=telemetry,
                health_policy=HealthPolicy(failure_threshold=1, cooldown_s=1e9),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedCapacity)
                out = fleet.run(
                    make_pairs(192),
                    pairs_per_round=24,
                    collect_results=True,
                    fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=1),)),
                )
            return (
                flat_results(out),
                out.recovery.to_dict(),
                fleet.metrics_snapshot(),
                fleet.event_records(),
                fleet.health_doc(),
            )

        scalar = run("scalar")
        monkeypatch.setattr(kernel_mod, "WfaEngine", Counting)
        vector = run("vector")
        assert vector == scalar
        assert scalar[1]["rerun_pairs"]  # recovery really ran
        assert scalar[4]["per_shard"]["0"]["quarantined"] == [1]
        # a job handed too few views would realign, a mismatched view
        # would fall back to the scalar engine
        assert engine_runs == [192]
        assert scalar_runs == []
