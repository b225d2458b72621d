"""Fault injection + host-side recovery (repro.pim.faults)."""

from __future__ import annotations

import random

import pytest

from repro.core.penalties import EditPenalties
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import (
    ConfigError,
    CorruptResultError,
    DpuFailure,
    FaultError,
    MemoryFault,
    TaskletStallError,
    TransferError,
)
from repro.obs.metrics import MetricsRegistry
from repro.pim.config import PimSystemConfig
from repro.pim.dpu import Dpu
from repro.pim.faults import (
    DpuDeath,
    FaultPlan,
    JobRecoveryRecord,
    MramCorruption,
    RecoveryReport,
    RetryPolicy,
    TaskletStall,
    TransferTruncation,
    spare_placements,
)
from repro.pim.fleet import FleetCoordinator
from repro.pim.kernel import KernelConfig
from repro.pim.layout import MramLayout
from repro.pim.system import PimSystem
from repro.pim.transfer import HostTransferEngine


def make_layout(kc: KernelConfig, per_dpu: int, tasklets: int) -> MramLayout:
    return MramLayout.plan(
        num_pairs=per_dpu,
        max_pattern_len=kc.max_seq_len,
        max_text_len=kc.max_seq_len,
        max_cigar_ops=kc.max_cigar_ops,
        tasklets=tasklets,
        metadata_bytes_per_tasklet=kc.metadata_peak_bytes(),
    )


def small_configs(workers=1) -> tuple[PimSystemConfig, KernelConfig]:
    return (
        PimSystemConfig(
            num_dpus=4,
            num_ranks=1,
            tasklets=4,
            num_simulated_dpus=4,
            workers=workers,
        ),
        KernelConfig(penalties=EditPenalties(), max_read_len=40, max_edits=4),
    )


def small_system(workers=1) -> PimSystem:
    return PimSystem(*small_configs(workers))


def small_fleet() -> FleetCoordinator:
    """A one-shard fleet: the plain multi-round run."""
    return FleetCoordinator(*small_configs())


def workload(n: int = 40) -> list[ReadPair]:
    return ReadPairGenerator(length=32, error_rate=0.05, seed=7).pairs(n)


def result_key(run) -> list[tuple[int, int, str]]:
    return sorted((i, s, str(c)) for i, s, c in run.results)


class TestPlanValidation:
    def test_bad_corruption_region(self):
        with pytest.raises(ConfigError):
            MramCorruption(dpu_id=0, region="wram")

    def test_bad_corruption_bits(self):
        with pytest.raises(ConfigError):
            MramCorruption(dpu_id=0, num_bits=0)

    def test_bad_truncation_direction(self):
        with pytest.raises(ConfigError):
            TransferTruncation(dpu_id=0, direction="sideways")

    def test_negative_keep_bytes(self):
        with pytest.raises(ConfigError):
            TransferTruncation(dpu_id=0, keep_bytes=-1)

    def test_negative_dma_budget(self):
        with pytest.raises(ConfigError):
            TaskletStall(dpu_id=0, dma_budget=-1)

    def test_targets_and_faulty_dpus(self):
        plan = FaultPlan(
            deaths=(DpuDeath(dpu_id=3),),
            corruptions=(MramCorruption(dpu_id=1),),
        )
        assert plan.targets(3) and plan.targets(1)
        assert not plan.targets(0)
        assert plan.faulty_dpus() == (1, 3)
        assert plan.always_dead(3)
        assert not plan.always_dead(1)

    def test_to_dict_is_json_ready(self):
        import json

        plan = FaultPlan(
            seed=9,
            deaths=(DpuDeath(dpu_id=0, attempts=(0, 1)),),
            stalls=(TaskletStall(dpu_id=2, dma_budget=5),),
        )
        doc = json.loads(json.dumps(plan.to_dict()))
        assert doc["seed"] == 9
        assert doc["deaths"][0]["dpu_id"] == 0


class TestFlipBits:
    def test_deterministic_for_seed(self):
        from repro.pim.memory import SimMemory

        a, b = SimMemory(64), SimMemory(64)
        pos_a = a.flip_bits(8, 16, 4, random.Random(5))
        pos_b = b.flip_bits(8, 16, 4, random.Random(5))
        assert pos_a == pos_b
        assert a.read(0, 64) == b.read(0, 64)

    def test_flips_inside_window_only(self):
        from repro.pim.memory import SimMemory

        mem = SimMemory(64)
        positions = mem.flip_bits(16, 8, 6, random.Random(1))
        assert all(16 * 8 <= p < 24 * 8 for p in positions)
        assert mem.read(0, 16) == b"\x00" * 16
        assert mem.read(24, 40) == b"\x00" * 40

    def test_rejects_empty_window(self):
        from repro.pim.memory import SimMemory

        with pytest.raises(MemoryFault):
            SimMemory(64).flip_bits(0, 0, 1, random.Random(0))


def raw_job(plan: FaultPlan, pairs: list[ReadPair], dpu_id: int = 0):
    """A DpuJob on the *unrecovered* path (run_dpu_job raises faults)."""
    from repro.pim.parallel import DpuJob

    system = small_system()
    return DpuJob(
        dpu_id=dpu_id,
        layout=system.plan_layout(len(pairs)),
        dpu_config=system.config.dpu,
        transfer_config=system.config.transfer,
        kernel_config=system.kernel_config,
        metadata_policy=system.config.metadata_policy,
        tasklets=system.config.tasklets,
        pairs=tuple(pairs),
        fault_plan=plan,
    )


class TestTypedErrors:
    """Faults surface as typed errors — never a silently wrong alignment.

    The unrecovered execution path (``run_dpu_job``) propagates them;
    the recovery layer catches exactly this subtree and converts it
    into retries/requeues/abandonment (``TestRecovery``).
    """

    def test_dead_dpu_raises_dpu_failure(self):
        from repro.pim.parallel import run_dpu_job

        plan = FaultPlan(deaths=(DpuDeath(dpu_id=0),))
        with pytest.raises(DpuFailure) as err:
            run_dpu_job(raw_job(plan, workload(8)))
        assert err.value.dpu_id == 0

    def test_corrupt_header_raises_corrupt_result_error(self):
        from repro.pim.parallel import run_dpu_job

        plan = FaultPlan(
            seed=2,
            corruptions=(MramCorruption(dpu_id=0, region="header", num_bits=8),),
        )
        with pytest.raises(CorruptResultError):
            run_dpu_job(raw_job(plan, workload(8)))

    def test_output_corruption_raises_corrupt_result_error(self):
        from repro.pim.parallel import run_dpu_job

        plan = FaultPlan(
            seed=6,
            corruptions=(MramCorruption(dpu_id=0, region="output", num_bits=6),),
        )
        with pytest.raises((CorruptResultError, TransferError)):
            run_dpu_job(raw_job(plan, workload(8)))

    def test_truncated_pull_raises_transfer_error(self):
        from repro.pim.parallel import run_dpu_job

        plan = FaultPlan(
            truncations=(TransferTruncation(dpu_id=0, direction="pull", keep_bytes=8),)
        )
        with pytest.raises(TransferError):
            run_dpu_job(raw_job(plan, workload(8)))

    def test_stall_raises_tasklet_stall_error(self):
        from repro.pim.parallel import run_dpu_job

        plan = FaultPlan(stalls=(TaskletStall(dpu_id=0, dma_budget=3),))
        with pytest.raises(TaskletStallError):
            run_dpu_job(raw_job(plan, workload(8)))

    def test_persistent_corruption_requeues_never_lies(self):
        # Header rot pinned to physical DPU 1 on *every* attempt:
        # retrying there keeps failing typed, then the job requeues onto
        # healthy hardware — no bad record ever reaches the caller.
        pairs = workload(16)
        baseline = result_key(small_system().align(pairs))
        plan = FaultPlan(
            seed=2,
            corruptions=(
                MramCorruption(dpu_id=1, region="header", num_bits=8, attempts=None),
            ),
        )
        run = small_system().align(pairs, fault_plan=plan)
        report = run.recovery
        assert report.all_ok
        rec = report.records[1]
        assert rec.requeued and rec.final_placement != 1
        assert "CorruptResultError" in rec.errors
        assert result_key(run) == baseline

    def test_truncated_push_raises_transfer_error(self):
        from repro.pim.config import DpuConfig

        dpu = Dpu(DpuConfig(), dpu_id=0)
        kc = KernelConfig(penalties=EditPenalties(), max_read_len=32, max_edits=4)
        layout = make_layout(kc, per_dpu=4, tasklets=1)
        from repro.pim.config import HostTransferConfig

        engine = HostTransferEngine(HostTransferConfig())
        engine.injector = FaultPlan(
            truncations=(TransferTruncation(dpu_id=0, direction="push", keep_bytes=100),)
        ).injector(0)
        with pytest.raises(TransferError):
            engine.push_batch(dpu, layout, workload(4))

    def test_input_region_corruption_never_silent(self):
        # Corrupting the *input* region changes what the kernel aligns;
        # only worker-side verification against the original batch can
        # catch it.  It must surface as CorruptResultError, not as a
        # plausible-but-wrong alignment.
        pairs = workload(12)
        baseline = result_key(small_system().align(pairs))
        plan = FaultPlan(
            seed=4,
            corruptions=(
                MramCorruption(dpu_id=0, region="input", num_bits=4, attempts=None),
            ),
        )
        run = small_system().align(pairs, fault_plan=plan)
        rec = run.recovery.records[0]
        assert set(rec.errors) == {"CorruptResultError"}
        assert rec.requeued and rec.final_placement != 0
        assert result_key(run) == baseline


class TestRecovery:
    def test_transient_death_retry_is_byte_identical(self):
        """Acceptance pin: a DPU dying mid-run, with retry+requeue, must
        reproduce the fault-free run bit for bit — sequentially and in a
        worker pool."""
        pairs = workload(40)
        baseline = result_key(small_system().align(pairs))
        plan = FaultPlan(seed=3, deaths=(DpuDeath(dpu_id=2, attempts=(0, 1)),))
        for workers in (0, 2):
            run = small_system(workers=workers).align(pairs, fault_plan=plan)
            assert result_key(run) == baseline
            assert run.recovery.all_ok
            assert run.recovery.records[2].attempts == 3
            assert run.recovery.faults_seen == 2

    def test_persistent_death_requeues_byte_identical(self):
        pairs = workload(40)
        baseline = result_key(small_system().align(pairs))
        plan = FaultPlan(deaths=(DpuDeath(dpu_id=1),))
        run = small_system().align(pairs, fault_plan=plan)
        assert result_key(run) == baseline
        rec = run.recovery.records[1]
        assert rec.requeued and not rec.abandoned
        assert rec.final_placement != 1
        assert rec.final_placement in spare_placements(1, range(4), plan)

    def test_mixed_transient_faults_recover(self):
        pairs = workload(40)
        baseline = result_key(small_system().align(pairs))
        plan = FaultPlan(
            seed=11,
            corruptions=(MramCorruption(dpu_id=1, region="output", num_bits=3),),
            truncations=(TransferTruncation(dpu_id=0, direction="pull", keep_bytes=16),),
            stalls=(TaskletStall(dpu_id=3, dma_budget=5),),
        )
        run = small_system(workers=2).align(pairs, fault_plan=plan)
        assert result_key(run) == baseline
        assert run.recovery.all_ok
        assert run.recovery.faults_seen == 3

    @pytest.mark.parametrize("seed", [8, 11])
    def test_cigar_op_rot_is_recovered(self, seed):
        """A bit flip on a result's CIGAR op byte is a typed, retryable
        parse failure: recovery re-runs the DPU and returns every pair."""

        def system():
            return PimSystem(
                PimSystemConfig(num_dpus=4, num_ranks=1, tasklets=4, num_simulated_dpus=4),
                KernelConfig(max_read_len=50, max_edits=4),
            )

        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=3).pairs(32)
        baseline = result_key(system().align(pairs, collect_results=True))
        plan = FaultPlan(
            seed=seed,
            corruptions=(
                MramCorruption(dpu_id=0, region="output", record=3, num_bits=1),
            ),
        )
        run = system().align(pairs, collect_results=True, fault_plan=plan)
        assert result_key(run) == baseline
        assert run.recovery.all_ok
        assert run.recovery.faults_seen == 1
        assert run.recovery.records[0].attempts == 2

    def test_all_dead_abandons_everything(self):
        plan = FaultPlan(deaths=tuple(DpuDeath(dpu_id=d) for d in range(4)))
        run = small_system().align(workload(20), fault_plan=plan)
        assert run.results == []
        assert not run.recovery.all_ok
        assert sorted(run.recovery.abandoned_pairs) == list(range(20))
        assert run.recovery.completed_pairs == []

    def test_degradation_report_partitions_pairs(self):
        plan = FaultPlan(
            deaths=(DpuDeath(dpu_id=0),),
            corruptions=(
                MramCorruption(dpu_id=2, region="header", num_bits=8, attempts=None),
            ),
        )
        # Kill requeueing so DPU 2's pairs are really abandoned.
        run = small_system().align(
            workload(20),
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, max_requeues=0),
        )
        report = run.recovery
        everything = (
            set(report.completed_pairs)
            | set(report.rerun_pairs)
            | set(report.abandoned_pairs)
        )
        assert set(report.completed_pairs).isdisjoint(report.abandoned_pairs)
        assert set(report.rerun_pairs) <= set(report.completed_pairs) | set(
            report.abandoned_pairs
        )
        assert everything == set(range(20))
        doc = report.to_dict()
        assert doc["schema"] == "repro.pim.recovery/v1"
        assert doc["abandoned_pairs"] == sorted(report.abandoned_pairs)

    def test_fault_metrics_land_in_registry(self):
        registry = MetricsRegistry()
        plan = FaultPlan(seed=3, deaths=(DpuDeath(dpu_id=2, attempts=(0,)),))
        run = small_system().align(workload(16), fault_plan=plan)
        run.recovery.count_into(registry)
        assert registry.counter("pim_fault_errors_total").value(kind="DpuFailure") == 1
        assert registry.counter("pim_job_retries_total").value() == 1
        assert registry.counter("pim_pairs_abandoned_total").value() == 0

    def test_backoff_is_modeled_not_slept(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.5, backoff_factor=2.0)
        assert policy.backoff_seconds(0) == 0.5
        assert policy.backoff_seconds(2) == 2.0
        plan = FaultPlan(deaths=(DpuDeath(dpu_id=0, attempts=(0,)),))
        import time

        t0 = time.monotonic()
        run = small_system().align(workload(8), fault_plan=plan, retry_policy=policy)
        assert time.monotonic() - t0 < 0.5  # never actually slept
        assert run.recovery.backoff_seconds == 0.5


class TestReportAlgebra:
    def test_merge_and_shift(self):
        a = RecoveryReport(
            records=[JobRecoveryRecord(dpu_id=0, num_pairs=2)],
            completed_pairs=[0, 1],
        )
        b = RecoveryReport(
            records=[JobRecoveryRecord(dpu_id=0, num_pairs=2, abandoned=True)],
            abandoned_pairs=[0, 1],
        )
        b.shift_pairs(2)
        a.merge(b)
        assert a.completed_pairs == [0, 1]
        assert a.abandoned_pairs == [2, 3]
        assert not a.all_ok


class TestSchedulerFaults:
    def test_multi_round_run_merges_reports(self):
        pairs = workload(30)
        baseline = small_fleet().run(pairs, pairs_per_round=10,
                                     collect_results=True)
        plan = FaultPlan(seed=5, deaths=(DpuDeath(dpu_id=1, attempts=(0,)),))
        run = small_fleet().run(
            pairs, pairs_per_round=10, collect_results=True, fault_plan=plan
        )
        assert run.recovery is not None
        # every round saw DPU 1 die once on attempt 0
        assert run.recovery.faults_seen == 3
        assert sorted(run.recovery.completed_pairs) == list(range(30))
        flat = lambda r: sorted(
            (i, s, str(c))
            for rnd_i, rnd in enumerate(r.per_round)
            for i, s, c in [(i + 10 * rnd_i, s, c) for i, s, c in rnd.results]
        )
        assert flat(run) == flat(baseline)


class TestErrorTaxonomy:
    def test_fault_subtree(self):
        for cls in (DpuFailure, TransferError, CorruptResultError, TaskletStallError):
            assert issubclass(cls, FaultError)

    def test_dpu_id_in_message(self):
        err = DpuFailure("refused to boot", dpu_id=17)
        assert "DPU 17" in str(err)
        assert err.dpu_id == 17


class TestMergedTotalsNoDoubleCount:
    """Regression pins for merged multi-round recovery accounting.

    ``RecoveryReport.faults_seen`` / ``backoff_seconds`` are recomputed
    properties over the per-job records, so a merge across a one-shard
    fleet's rounds must contribute each round's overhead exactly once — and the
    terminal failure of a job (abandonment, or the last failure before a
    requeue succeeds) must not charge a backoff wait nobody performed.
    """

    def test_two_round_transient_death_pins_merged_totals(self):
        pairs = workload(20)
        policy = RetryPolicy(
            max_attempts=3, backoff_base_s=0.25, backoff_factor=2.0
        )
        plan = FaultPlan(seed=2, deaths=(DpuDeath(dpu_id=1, attempts=(0,)),))
        run = small_fleet().run(
            pairs,
            pairs_per_round=10,
            collect_results=True,
            fault_plan=plan,
            retry_policy=policy,
        )
        rec = run.recovery
        # one first-attempt death per round, two rounds: exactly two
        # faults, each followed by one retry that waited one base backoff
        assert rec.faults_seen == 2
        assert rec.backoff_seconds == pytest.approx(2 * 0.25)
        failed = [r for r in rec.records if r.errors]
        assert [r.dpu_id for r in failed] == [1, 1]
        assert all(r.attempts == 2 for r in failed)
        assert all(r.attempts_log == ((1, "DpuFailure"),) for r in failed)
        assert sorted(rec.completed_pairs) == list(range(20))

    def test_terminal_failure_charges_no_backoff(self):
        # Whole fleet dead, no requeues: each job fails max_attempts=2
        # times and abandons.  Only the first failure is followed by a
        # retry, so exactly one backoff wait per job is charged — the
        # terminal failure waits for nothing.
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.5, max_requeues=0)
        plan = FaultPlan(deaths=tuple(DpuDeath(dpu_id=d) for d in range(4)))
        run = small_system().align(workload(8), fault_plan=plan, retry_policy=policy)
        rec = run.recovery
        assert not rec.all_ok
        assert rec.faults_seen == 4 * 2
        assert rec.backoff_seconds == pytest.approx(4 * 0.5)

    def test_two_round_stall_pins_watchdog_totals(self):
        pairs = workload(20)
        policy = RetryPolicy(
            max_attempts=2, backoff_base_s=0.1, launch_watchdog_s=0.02
        )
        plan = FaultPlan(
            seed=9, stalls=(TaskletStall(dpu_id=3, dma_budget=2, attempts=(0,)),)
        )
        run = small_fleet().run(
            pairs,
            pairs_per_round=10,
            collect_results=True,
            fault_plan=plan,
            retry_policy=policy,
        )
        rec = run.recovery
        # one watchdog-detected stall per round; detection latency is
        # charged per stall on top of the backoff before its retry
        assert rec.faults_seen == 2
        assert rec.watchdog_seconds == pytest.approx(2 * 0.02)
        assert rec.backoff_seconds == pytest.approx(2 * 0.1)
        assert rec.overhead_seconds == pytest.approx(2 * 0.12)
        assert sorted(rec.completed_pairs) == list(range(20))

    def test_merge_then_shift_does_not_double_shift(self):
        # the scheduler shifts each round's report by its start offset
        # BEFORE merging; re-merging shifted reports must leave indices
        # stable (the dispatcher does one more rebase on the aggregate)
        a = RecoveryReport(
            records=[JobRecoveryRecord(dpu_id=0, num_pairs=2)],
            completed_pairs=[0, 1],
        )
        b = RecoveryReport(
            records=[JobRecoveryRecord(dpu_id=1, num_pairs=2)],
            completed_pairs=[0, 1],
        )
        b.shift_pairs(2)
        a.merge(b)
        a.shift_pairs(10)  # dispatcher-level rebase of the aggregate
        assert a.completed_pairs == [10, 11, 12, 13]
        assert a.faults_seen == 0
