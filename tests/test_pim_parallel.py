"""Tests for the host-parallel DPU execution engine.

The load-bearing guarantee: a parallel run (any worker count) is
result-identical to a sequential run — scores, CIGARs, regions, per-DPU
stats, modeled timings, and transfer accounting all match exactly.
"""

import pickle
from dataclasses import astuple, replace

import pytest

from repro.baselines.gotoh import gotoh_score
from repro.core.penalties import AffinePenalties
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError
from repro.pim import parallel as parallel_mod
from repro.pim.config import PimSystemConfig
from repro.pim.fleet import FleetCoordinator
from repro.pim.kernel import KernelConfig
from repro.pim.parallel import (
    DpuJob,
    GeneratorSpec,
    execute_jobs,
    resolve_workers,
    run_dpu_job,
)
from repro.pim.system import PimSystem

PEN = AffinePenalties(4, 6, 2)
KERNEL = KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)


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
    """Traces and metric snapshots shipped home by workers must match the
    sequential path event for event and sample for sample."""

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
        assert rec.metrics is None

    def test_collecting_job_round_trips_through_pickle(self):
        system = make_system()
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=3).pairs(4)
        layout = system.plan_layout(len(pairs))
        job = replace(
            system._make_job(0, layout, pairs=tuple(pairs)),
            collect_trace=True,
            collect_metrics=True,
        )
        rec = pickle.loads(pickle.dumps(run_dpu_job(pickle.loads(pickle.dumps(job)))))
        assert rec.trace is not None and len(rec.trace.events) == 16  # 4 pairs x 4
        assert all(e.dpu_id == 0 for e in rec.trace.events)
        assert rec.metrics is not None
        assert rec.metrics["schema"] == "repro.obs.metrics/v1"

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
        records = execute_jobs(jobs, workers=1)
        assert [r.dpu_id for r in records] == [0, 1, 2]

    def test_pull_false_returns_no_results(self):
        rec = run_dpu_job(self._job(pull=False))
        assert rec.results == []
        assert rec.transfer_stats.pulls == 0
        assert rec.transfer_stats.pushes == 1

    def test_resolve_workers(self):
        assert resolve_workers(1, 8) == 1
        assert resolve_workers(4, 2) == 2  # capped at the job count
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
        records = execute_jobs(jobs, workers=3)
        assert [r.dpu_id for r in records] == [0, 1, 2]
        assert all(r.num_pairs == 4 for r in records)
