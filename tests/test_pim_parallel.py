"""Tests for the host-parallel DPU execution engine.

The load-bearing guarantee: a parallel run (any worker count) is
result-identical to a sequential run — scores, CIGARs, regions, per-DPU
stats, modeled timings, and transfer accounting all match exactly.
"""

import os
import pickle
import subprocess
import sys
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, replace

import pytest

from repro.baselines.gotoh import gotoh_score
from repro.core.penalties import AffinePenalties
from repro.core.wfa_batch import BatchWfaEngine
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError
from repro.pim import kernel as kernel_mod
from repro.pim import parallel as parallel_mod
from repro.pim.ablation import AblationConfig
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, MramCorruption
from repro.pim.fleet import FleetCoordinator
from repro.pim.kernel import KernelConfig, WfaDpuKernel
from repro.pim.parallel import (
    DpuJob,
    GeneratorSpec,
    execute_jobs,
    resolve_workers,
    run_dpu_job,
)
from repro.pim.system import PimSystem
from repro.qa.campaign import CampaignConfig, FaultGridPoint, run_campaign

PEN = AffinePenalties(4, 6, 2)
KERNEL = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
VECTOR = replace(KERNEL, engine="vector")


def make_config(
    workers: int = 1,
    tasklets: int = 2,
    policy: str = "mram",
    num_dpus: int = 4,
) -> PimSystemConfig:
    return PimSystemConfig(
        num_dpus=num_dpus,
        num_ranks=1,
        tasklets=tasklets,
        num_simulated_dpus=num_dpus,
        metadata_policy=policy,
        workers=workers,
    )


def make_system(**kwargs) -> PimSystem:
    return PimSystem(make_config(**kwargs), KERNEL)


def run_signature(res):
    """Everything a PimRunResult carries, in comparable form."""
    return (
        res.num_pairs,
        res.pairs_simulated,
        res.tasklets,
        res.metadata_policy,
        res.kernel_seconds,
        res.transfer_in_seconds,
        res.transfer_out_seconds,
        res.launch_seconds,
        res.bytes_in,
        res.bytes_out,
        res.scale_factor,
        [astuple(s) for s in res.per_dpu],
        [(i, s, None if c is None else str(c)) for i, s, c in res.results],
        sorted(res.regions.items()),
    )


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "seed,tasklets,policy",
        [(1, 2, "mram"), (2, 4, "mram"), (3, 2, "wram")],
    )
    def test_align_matches_sequential(self, workers, seed, tasklets, policy):
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=seed).pairs(14)
        seq_sys = make_system(workers=1, tasklets=tasklets, policy=policy)
        par_sys = make_system(workers=workers, tasklets=tasklets, policy=policy)
        seq = seq_sys.align(pairs)
        par = par_sys.align(pairs)
        assert run_signature(par) == run_signature(seq)
        assert par_sys.transfer.stats == seq_sys.transfer.stats
        # and the results are actually correct, not just consistent
        for idx, score, cigar in par.results:
            assert score == gotoh_score(pairs[idx].pattern, pairs[idx].text, PEN)
            cigar.validate(pairs[idx].pattern, pairs[idx].text)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_model_run_matches_sequential(self, workers):
        spec = DatasetSpec(num_pairs=64, length=50, error_rate=0.04, seed=5)
        seq = make_system(workers=1, num_dpus=8).model_run(
            spec, sample_pairs_per_dpu=4, collect_results=True
        )
        par = make_system(workers=workers, num_dpus=8).model_run(
            spec, sample_pairs_per_dpu=4, collect_results=True
        )
        assert run_signature(par) == run_signature(seq)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("kind", ["align", "model_run"])
    def test_vector_engine_matches_sequential(self, kind, workers):
        """Pool workers batch other pairs together than the in-process
        group does; every number still equals the sequential vector run,
        and the scalar engine's."""

        def run(kernel, w):
            system = PimSystem(make_config(workers=w, num_dpus=8), kernel)
            if kind == "align":
                pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=4).pairs(30)
                return system.align(pairs)
            spec = DatasetSpec(num_pairs=64, length=50, error_rate=0.04, seed=5)
            return system.model_run(spec, sample_pairs_per_dpu=4, collect_results=True)

        seq = run_signature(run(VECTOR, 1))
        assert run_signature(run(VECTOR, workers)) == seq
        assert run_signature(run(KERNEL, 1)) == seq

    def test_scheduler_matches_sequential(self):
        """Multi-round runs (a one-shard fleet's rounds) too."""
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=8).pairs(18)
        seq = FleetCoordinator(make_config(), KERNEL).run(
            pairs, pairs_per_round=8, collect_results=True
        )
        par = FleetCoordinator(make_config(workers=2), KERNEL).run(
            pairs, pairs_per_round=8, collect_results=True
        )
        assert seq.schedule == par.schedule
        assert [run_signature(r) for r in par.per_round] == [
            run_signature(r) for r in seq.per_round
        ]
        assert par.total_seconds == seq.total_seconds


class TestTelemetryEquivalence:
    """Traces shipped home by workers, and the metrics counted from their
    records, must match the sequential path event for event and sample
    for sample."""

    def _run(self, workers):
        from repro.obs import RunTelemetry

        tel = RunTelemetry()
        cfg = PimSystemConfig(
            num_dpus=4,
            num_ranks=1,
            tasklets=2,
            num_simulated_dpus=4,
            workers=workers,
        )
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
        system = PimSystem(cfg, kc, telemetry=tel)
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=6).pairs(12)
        system.align(pairs)
        return tel

    @pytest.mark.parametrize("workers", [2, 4])
    def test_trace_events_identical(self, workers):
        seq, par = self._run(1), self._run(workers)
        assert seq.segments[0].trace.events == par.segments[0].trace.events

    @pytest.mark.parametrize("workers", [2, 4])
    def test_metric_snapshots_identical(self, workers):
        seq, par = self._run(1), self._run(workers)
        assert seq.registry.snapshot() == par.registry.snapshot()

    def test_collect_flags_off_ship_nothing(self):
        system = make_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(4)
        layout = system.plan_layout(len(pairs))
        job = system._make_job(0, layout, pairs=tuple(pairs))
        rec = run_dpu_job(job)
        assert rec.trace is None

    def test_collecting_job_round_trips_through_pickle(self):
        system = make_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(4)
        layout = system.plan_layout(len(pairs))
        job = replace(system._make_job(0, layout, pairs=tuple(pairs)), collect_trace=True)
        rec = pickle.loads(pickle.dumps(run_dpu_job(pickle.loads(pickle.dumps(job)))))
        assert rec.trace is not None and len(rec.trace.events) == 16  # 4 pairs x 4
        assert all(e.dpu_id == 0 for e in rec.trace.events)
        # per-DPU metrics are counted on the host from the records that
        # came home, the same way in-process and over the pool
        for workers in (1, 2):
            tel = self._run(workers)
            registry = tel.registry
            per_dpu = tel.segments[0].result.per_dpu
            assert [s.dpu_id for s in per_dpu] == [0, 1, 2, 3]
            names = (
                "pim_dpu_pairs_total",
                "pim_dpu_instructions_total",
                "pim_dpu_dma_bytes_total",
                "pim_dpu_kernel_cycles",
            )
            for s in per_dpu:
                counted = [registry.get(n).value(dpu=str(s.dpu_id)) for n in names]
                assert counted == [s.pairs_done, s.instructions, s.dma_bytes, s.cycles]
                assert s.pairs_done == 3
            ops = registry.get("pim_transfer_ops_total")
            assert ops.value(op="push") == ops.value(op="pull") == 4

    def test_collection_does_not_change_results(self):
        """Turning telemetry on must not perturb the simulation."""
        from repro.obs import RunTelemetry

        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=10).pairs(10)
        plain = make_system().align(pairs)
        cfg = PimSystemConfig(
            num_dpus=4, num_ranks=1, tasklets=2, num_simulated_dpus=4, workers=1
        )
        kc = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)
        observed = PimSystem(cfg, kc, telemetry=RunTelemetry()).align(pairs)
        assert run_signature(observed) == run_signature(plain)


class TestEngine:
    def _job(self, dpu_id=0, **kw):
        system = make_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(4)
        layout = system.plan_layout(len(pairs))
        return system._make_job(dpu_id, layout, pairs=tuple(pairs), **kw)

    def test_job_and_result_picklable(self):
        job = self._job()
        clone = pickle.loads(pickle.dumps(job))
        rec = run_dpu_job(clone)
        rec2 = pickle.loads(pickle.dumps(rec))
        assert rec2.dpu_id == rec.dpu_id
        assert rec2.num_pairs == 4
        assert astuple(rec2.stats) == astuple(rec.stats)
        assert [(i, s, str(c), ps, ts) for i, s, c, ps, ts in rec2.results] == [
            (i, s, str(c), ps, ts) for i, s, c, ps, ts in rec.results
        ]

    def test_generator_spec_job(self):
        system = make_system()
        layout = system.plan_layout(4)
        gen = GeneratorSpec(
            length=50, error_rate=0.02, seed=11, error_model="exact", count=4
        )
        job = system._make_job(1, layout, generator=gen)
        rec = run_dpu_job(job)
        assert rec.num_pairs == 4
        expected = ReadPairGenerator(length=50, error_rate=0.02, seed=11).pairs(4)
        for (local, score, _c, _ps, _ts), pair in zip(rec.results, expected):
            assert score == gotoh_score(pair.pattern, pair.text, PEN)

    def test_job_without_payload_rejected(self):
        system = make_system()
        layout = system.plan_layout(1)
        job = system._make_job(0, layout)
        with pytest.raises(ConfigError):
            job.batch()

    def test_records_sorted_by_dpu_id(self):
        jobs = [self._job(dpu_id=d) for d in (2, 0, 1)]
        records, _ = execute_jobs(jobs, workers=1)
        assert [r.dpu_id for r in records] == [0, 1, 2]

    def test_fault_free_jobs_run_once_as_built(self, monkeypatch):
        """Without a fault plan each job makes one attempt, on the very
        object the system built (no copy), and the run reports no
        recovery."""
        built, ran = [], []
        make_job, run_dpu = PimSystem._make_job, parallel_mod.run_dpu_job

        def building(system, *args, **kwargs):
            built.append(make_job(system, *args, **kwargs))
            return built[-1]

        def running(job, *args):
            ran.append(job)
            return run_dpu(job, *args)

        monkeypatch.setattr(PimSystem, "_make_job", building)
        monkeypatch.setattr(parallel_mod, "run_dpu_job", running)
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=8).pairs(10)
        run = make_system().align(pairs)
        assert run.recovery is None
        assert len(ran) == len(built) == 4
        assert all(job is own for job, own in zip(ran, built))

    def test_pull_false_returns_no_results(self):
        rec = run_dpu_job(self._job(pull=False))
        assert rec.results == []
        assert rec.transfer_stats.pulls == 0
        assert rec.transfer_stats.pushes == 1

    def test_resolve_workers(self):
        assert resolve_workers(1, 8) == 1
        assert resolve_workers(4, 2) == 2  # capped at the job count
        assert resolve_workers(4) == 4  # uncapped: the pool's width
        assert resolve_workers(0, 8) >= 1  # 0 = auto (cpu count)
        with pytest.raises(ConfigError):
            resolve_workers(-1, 8)

    def test_negative_workers_rejected_in_config(self):
        with pytest.raises(ConfigError):
            PimSystemConfig(
                num_dpus=2, num_ranks=1, tasklets=2, num_simulated_dpus=2, workers=-1
            ).validate()

    def test_pool_failure_falls_back_to_sequential(self, monkeypatch):
        """If the process pool cannot start, results still come back."""

        class ExplodingPool:
            def __init__(self, *a, **kw):
                raise OSError("fork forbidden")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", ExplodingPool)
        jobs = [self._job(dpu_id=d) for d in range(3)]
        records, _ = execute_jobs(jobs, workers=3)
        assert [r.dpu_id for r in records] == [0, 1, 2]
        assert all(r.num_pairs == 4 for r in records)


class InlinePool:
    """Stands in for the process pool and runs each group in-process, so
    a test can count the groups' engine runs."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))

    def shutdown(self):
        pass


class TestJobGroups:
    """The unit of host work is a group of DPU jobs: one vector-engine
    run per group, split only by the kernel's byte budget."""

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
    def paper_system(workers):
        kc = KernelConfig(
            penalties=AffinePenalties(), max_read_len=100, max_edits=4, engine="vector"
        )
        return PimSystem(
            make_config(workers=workers, tasklets=16, num_dpus=16), kc
        )

    def test_one_engine_run_per_group(self, engine_runs, monkeypatch):
        pairs = ReadPairGenerator(length=100, error_rate=0.02, seed=21).pairs(256)
        sequential = run_signature(self.paper_system(1).align(pairs))
        assert engine_runs == [256]  # one run for all 16 DPUs' jobs
        engine_runs.clear()
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", InlinePool)
        pooled = run_signature(self.paper_system(2).align(pairs))
        assert engine_runs == [128, 128]  # one run per worker's group
        assert pooled == sequential

    def test_budget_caps_the_pairs_per_run(self, engine_runs, monkeypatch):
        """A group above the cap runs in budget-sized chunks, each only
        when the kernels reach it, with byte-identical results: with
        5-pair jobs and 7-pair runs, no more than two runs are alive."""
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=9).pairs(40)
        config = make_config(num_dpus=8)
        whole = run_signature(PimSystem(config, VECTOR).align(pairs))
        assert engine_runs == [40]
        engine_runs.clear()
        budget = 7 * VECTOR.metadata_peak_bytes() + 5
        monkeypatch.setattr(kernel_mod, "BATCH_BUDGET_BYTES", budget)
        engines, alive = [], []
        engine_init, align_one = BatchWfaEngine.__init__, WfaDpuKernel._align_one

        def tracking_init(engine, *args, **kwargs):
            engine_init(engine, *args, **kwargs)
            engines.append(weakref.ref(engine))

        def counting_align_one(kernel, *args):
            alive.append(sum(ref() is not None for ref in engines))
            return align_one(kernel, *args)

        monkeypatch.setattr(BatchWfaEngine, "__init__", tracking_init)
        monkeypatch.setattr(WfaDpuKernel, "_align_one", counting_align_one)
        split = run_signature(PimSystem(config, VECTOR).align(pairs))
        assert engine_runs == [7, 7, 7, 7, 7, 5]
        assert split == whole
        assert len(alive) == 40 and max(alive) <= 2

    def test_scalar_engine_makes_no_engine_run(self, engine_runs):
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=9).pairs(8)
        make_system().align(pairs)
        assert engine_runs == []

    def test_retry_realigns_on_the_vector_engine(self, monkeypatch):
        """Output bit rot fails DPU 0's first attempt after its kernel took
        every view; the retry gets fresh views, not the scalar engine."""
        scalar_runs = []
        engine = kernel_mod.WfaEngine

        class Counting(engine):
            def run(self):
                scalar_runs.append(1)
                return super().run()

        monkeypatch.setattr(kernel_mod, "WfaEngine", Counting)
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=3).pairs(32)
        plan = FaultPlan(
            corruptions=(MramCorruption(dpu_id=0, region="output", record=3),),
        )
        clean = run_signature(PimSystem(make_config(), VECTOR).align(pairs))
        faulted = PimSystem(make_config(), VECTOR).align(pairs, fault_plan=plan)
        assert faulted.recovery.rerun_pairs
        assert run_signature(faulted) == clean
        assert scalar_runs == []

    def test_faulted_model_run_generates_each_batch_once(self, monkeypatch):
        """Retries, requeues and the recovery report count a generator
        job's pairs without synthesizing them again."""
        seeds = []
        generate = GeneratorSpec.pairs

        def counting(spec):
            seeds.append(spec.seed)
            return generate(spec)

        monkeypatch.setattr(GeneratorSpec, "pairs", counting)
        plan = FaultPlan(
            deaths=(DpuDeath(dpu_id=1),),
            corruptions=(MramCorruption(dpu_id=2, region="output"),),
        )
        spec = DatasetSpec(num_pairs=64, length=50, error_rate=0.04, seed=5)
        run = make_system(num_dpus=4).model_run(
            spec, sample_pairs_per_dpu=4, fault_plan=plan
        )
        assert run.recovery.faults_seen >= 2
        assert run.recovery.rerun_pairs and not run.recovery.abandoned_pairs
        assert len(seeds) == len(set(seeds)) == 4


#: a pool worker that starts its own DPU pool, run as a script
NESTED_POOL_SCRIPT = """
from concurrent.futures import ProcessPoolExecutor

from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPairGenerator
from repro.pim.config import PimSystemConfig
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem


def align(seed):
    config = PimSystemConfig(
        num_dpus=4, num_ranks=1, tasklets=2, num_simulated_dpus=4, workers=2
    )
    kernel = KernelConfig(
        penalties=AffinePenalties(4, 6, 2), max_read_len=50, max_edits=2
    )
    pairs = ReadPairGenerator(length=40, error_rate=0.02, seed=seed).pairs(8)
    return len(PimSystem(config, kernel).align(pairs).results)


if __name__ == "__main__":
    with ProcessPoolExecutor(max_workers=1) as outer:
        print(*outer.map(align, [1, 2]))
"""


class TestOnePool:
    """The process has one DPU pool: started on the first pooled call at
    the configured width, reused by every later call at that width, and
    replaced only when the width changes or the pool breaks."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Every stand-in pool built, in order; each records how many
        groups every ``map`` call handed it and whether it was shut."""
        built = []

        class CountingPool(InlinePool):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.maps, self.shut = [], False
                built.append(self)

            def map(self, fn, *iterables):
                groups = list(iterables[0])
                self.maps.append(len(groups))
                return super().map(fn, groups, *iterables[1:])

            def shutdown(self):
                self.shut = True

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", CountingPool)
        return built

    @staticmethod
    def fleet_call(workers):
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=4).pairs(18)
        fleet = FleetCoordinator(make_config(workers=workers), KERNEL, shards=2)
        return fleet.run(pairs, pairs_per_round=8, collect_results=True).results()

    def test_fleet_calls_share_one_pool_per_width(self, pools):
        sequential = self.fleet_call(1)
        assert pools == []
        assert self.fleet_call(3) == sequential
        assert self.fleet_call(3) == sequential
        # two calls, three rounds each, on one pool at the configured
        # width; a 2-pair round maps min(width, jobs) = 2 groups onto it
        (pool,) = pools
        assert pool.max_workers == 3
        assert pool.maps == [3, 3, 2] * 2
        assert self.fleet_call(2) == sequential
        assert [p.max_workers for p in pools] == [3, 2]
        assert pools[0].shut and not pools[1].shut
        assert parallel_mod._pools == {2: pools[1]}

    #: two cells, so that a pool takes them
    CAMPAIGN = CampaignConfig(
        pairs=8,
        pairs_per_round=4,
        serve_requests=0,
        ablations=(AblationConfig(name="baseline"),),
        grid=(
            FaultGridPoint(name="calm"),
            FaultGridPoint(name="dead_dpu", dead_dpus=1),
        ),
    )

    def test_campaign_cells_and_dpu_jobs_share_the_pool(self, pools, tmp_path):
        run_campaign(self.CAMPAIGN, workers=2, report_path=tmp_path / "c.jsonl")
        (pool,) = pools
        assert pool.max_workers == 2 and pool.maps == [2]
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=4).pairs(8)
        make_system(workers=2).align(pairs)
        assert pools == [pool] and pool.maps == [2, 2]

    def test_campaign_workers_0_is_one_per_core(self, pools, tmp_path, monkeypatch):
        """``workers`` means for campaign cells what it means for DPU
        jobs: 1 runs inline, 0 one worker per core."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        inline, pooled = tmp_path / "inline.jsonl", tmp_path / "pooled.jsonl"
        run_campaign(self.CAMPAIGN, workers=1, report_path=inline)
        assert pools == []
        run_campaign(self.CAMPAIGN, workers=0, report_path=pooled)
        (pool,) = pools
        assert pool.max_workers == 2 and pool.maps == [2]
        assert pooled.read_bytes() == inline.read_bytes()

    def test_broken_pool_falls_back_and_the_next_call_starts_afresh(
        self, pools, monkeypatch
    ):
        class BreakingPool(parallel_mod.ProcessPoolExecutor):
            """The first pool built breaks on its first map."""

            def map(self, fn, *iterables):
                if self is pools[0]:
                    raise BrokenProcessPool("a worker died")
                return super().map(fn, *iterables)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", BreakingPool)
        system = PimSystem(make_config(workers=2), VECTOR)
        pairs = ReadPairGenerator(length=50, error_rate=0.04, seed=6).pairs(16)
        sequential = run_signature(PimSystem(make_config(), VECTOR).align(pairs))
        assert run_signature(system.align(pairs)) == sequential
        assert len(pools) == 1 and pools[0].shut
        assert parallel_mod._pools == {}
        assert run_signature(system.align(pairs)) == sequential
        assert len(pools) == 2 and pools[1].maps == [2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self, pools):
        self.fleet_call(2)
        (parent_pool,) = pools
        pid = os.fork()
        if pid == 0:  # the child: never return into the test runner
            ok = False
            try:
                ok = parallel_mod._pools == {}
                self.fleet_call(2)
                ok = ok and len(pools) == 2 and parallel_mod._pools == {2: pools[1]}
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert parallel_mod._pools == {2: parent_pool} and len(pools) == 1

    def test_a_pool_worker_with_its_own_pool_still_exits(self, tmp_path):
        """A DPU pool started inside another pool's worker stops when that
        worker exits; left running, its idle workers would hold up the
        worker's exit, and so the outer pool's shutdown, forever."""
        script = tmp_path / "nested_pool.py"
        script.write_text(NESTED_POOL_SCRIPT)
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["8", "8"]
