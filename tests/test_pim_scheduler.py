"""Tests for the batch scheduler: round planning, MRAM capacity, and
the round step a one-shard fleet loops over."""

import pytest

from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError
from repro.pim.config import PimSystemConfig
from repro.pim.fleet import FleetCoordinator, FleetRun
from repro.pim.kernel import KernelConfig
from repro.pim.scheduler import BatchSchedule, BatchScheduler
from repro.pim.system import PimRunResult, PimSystem
from repro.pim.transport import LinkDrop, NetworkFaultPlan, Partition, TransportPolicy

PEN = AffinePenalties(4, 6, 2)


def small_config() -> PimSystemConfig:
    return PimSystemConfig(num_dpus=4, num_ranks=1, tasklets=2, num_simulated_dpus=4)


def small_kernel() -> KernelConfig:
    return KernelConfig(penalties=PEN, max_read_len=50, max_edits=2)


def small_system() -> PimSystem:
    return PimSystem(small_config(), small_kernel())


def small_fleet(shards: int = 1, **kwargs) -> FleetCoordinator:
    """A one-shard fleet by default: the plain multi-round run."""
    return FleetCoordinator(small_config(), small_kernel(), shards=shards, **kwargs)


class TestSchedule:
    def test_round_sizes_cover_everything(self):
        s = BatchSchedule(total_pairs=100, pairs_per_round=30)
        assert s.rounds == 4
        assert s.round_sizes() == [30, 30, 30, 10]
        assert sum(s.round_sizes()) == 100

    def test_single_round(self):
        s = BatchSchedule(total_pairs=10, pairs_per_round=100)
        assert s.rounds == 1
        assert s.round_sizes() == [10]

    def test_empty_workload_has_no_rounds(self):
        """Regression: ``round_sizes()`` used to fabricate a phantom
        round of ``pairs_per_round`` pairs for ``total_pairs == 0``."""
        s = BatchSchedule(total_pairs=0, pairs_per_round=30)
        assert s.rounds == 0
        assert s.round_sizes() == []
        assert sum(s.round_sizes()) == 0


class TestCapacity:
    def test_capacity_scales_with_dpus(self):
        sched = BatchScheduler(small_system())
        cap = sched.max_pairs_per_round()
        assert cap > 100_000  # 64 MB banks hold a lot of 50bp records
        assert cap % 4 == 0  # whole per-DPU batches

    def test_plan_validation(self):
        sched = BatchScheduler(small_system())
        with pytest.raises(ConfigError):
            sched.plan(-1)
        with pytest.raises(ConfigError):
            sched.plan(10, pairs_per_round=0)
        with pytest.raises(ConfigError):
            sched.plan(10, pairs_per_round=10**12)

    def test_plan_accepts_empty_workload(self):
        sched = BatchScheduler(small_system())
        schedule = sched.plan(0)
        assert schedule.rounds == 0
        assert schedule.round_sizes() == []


class TestHeaderConstant:
    def test_capacity_uses_layout_header_constant(self, monkeypatch):
        """Regression: the fixed-overhead term must track
        ``layout.HEADER_BYTES``, not a hardcoded 64."""
        import repro.pim.scheduler as scheduler_mod

        sched = BatchScheduler(small_system())
        default_cap = sched.max_pairs_per_round()
        monkeypatch.setattr(scheduler_mod, "HEADER_BYTES", 8 * 1024 * 1024)
        assert sched.max_pairs_per_round() < default_cap


def _round(kernel, t_in, t_out, launch) -> PimRunResult:
    return PimRunResult(
        num_pairs=1,
        pairs_simulated=1,
        tasklets=1,
        metadata_policy="mram",
        kernel_seconds=kernel,
        transfer_in_seconds=t_in,
        transfer_out_seconds=t_out,
        launch_seconds=launch,
        bytes_in=0,
        bytes_out=0,
    )


class TestLaunchAccounting:
    """A one-shard run's serialized total charges every round's launch."""

    ROUNDS = [
        _round(1.0, 0.2, 0.1, 0.01),
        _round(2.0, 0.3, 0.2, 0.01),
        _round(0.5, 0.1, 0.4, 0.01),
    ]

    def _run(self, rounds) -> FleetRun:
        return FleetRun(
            schedule=BatchSchedule(total_pairs=3, pairs_per_round=1),
            shards=1,
            placements=[0] * len(rounds),
            per_round=list(rounds),
        )

    def test_serialized_total_pinned(self):
        # kernels 3.5 + transfers 1.3 + all three launches 0.03
        assert self._run(self.ROUNDS).total_seconds == pytest.approx(
            3.5 + 1.3 + 0.03
        )

    def test_every_launch_charged(self):
        # zeroing the launch overhead shrinks the total by all 3 launches
        free = [_round(r.kernel_seconds, r.transfer_in_seconds,
                       r.transfer_out_seconds, 0.0) for r in self.ROUNDS]
        saved = self._run(self.ROUNDS).total_seconds - self._run(free).total_seconds
        assert saved == pytest.approx(0.03)


class TestExecution:
    @pytest.fixture
    def pairs(self):
        return ReadPairGenerator(length=50, error_rate=0.02, seed=8).pairs(60)

    def test_multi_round_aligns_everything(self, pairs):
        run = small_fleet().run(pairs, pairs_per_round=25, collect_results=True)
        assert run.schedule.rounds == 3
        assert sum(len(r.results) for r in run.per_round) == 60
        assert sum(r.pairs_simulated for r in run.per_round) == 60

    def test_serialized_time_is_sum_of_rounds(self, pairs):
        run = small_fleet().run(pairs, pairs_per_round=20)
        expect = sum(r.total_seconds for r in run.per_round)
        assert run.total_seconds == pytest.approx(expect)

    def test_single_round_equivalent_to_direct_align(self, pairs):
        direct = small_system().align(pairs)
        run = small_fleet().run(pairs)
        assert run.schedule.rounds == 1
        assert run.total_seconds == pytest.approx(direct.total_seconds)

    def test_run_empty_workload_end_to_end(self):
        """Regression companion to the ``round_sizes()`` fix: an empty
        run performs zero device work and aggregates cleanly."""
        run = small_fleet().run([], collect_results=True)
        assert run.schedule.total_pairs == 0
        assert run.per_round == []
        assert run.total_seconds == 0.0
        assert run.throughput() == 0.0
        assert run.recovery is None

    def test_results_partition_by_round(self, pairs):
        run = small_fleet().run(pairs, pairs_per_round=25, collect_results=True)
        # scores across rounds match a flat alignment
        flat = small_system().align(pairs).results
        flat_scores = [s for _i, s, _c in sorted(flat)]
        chunked_scores = []
        start = 0
        for r, size in zip(run.per_round, run.schedule.round_sizes()):
            chunked_scores.extend(s for _i, s, _c in sorted(r.results))
            start += size
        assert chunked_scores == flat_scores


class TestRoundStep:
    """The fleet's round loop calls :meth:`BatchScheduler.run` once per
    round execution — the step perfbench times as ``pim.scheduler``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        step = BatchScheduler.run

        def counted(self, *args, **kwargs):
            seen.append(args[0])
            return step(self, *args, **kwargs)

        monkeypatch.setattr(BatchScheduler, "run", counted)
        return seen

    @pytest.mark.parametrize("shards", [1, 4])
    def test_one_step_per_round(self, calls, shards):
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=8).pairs(60)
        run = small_fleet(shards).run(pairs, pairs_per_round=8)
        assert run.schedule.rounds == 8
        assert len(calls) == run.schedule.rounds
        # shard-local indices: each shard counts its own rounds from 0
        assert sorted(calls) == sorted(
            run.placements[:r].count(shard) for r, shard in enumerate(run.placements)
        )

    def test_one_step_per_execution_under_hedging(self, calls):
        """A steal executes the round a second time on another shard."""
        plan = NetworkFaultPlan(
            seed=1,
            drops=tuple(LinkDrop(shard_id=s, p=0.2) for s in range(4)),
            partitions=(Partition(start_s=1e-4, end_s=0.3, shard_ids=(1,)),),
        )
        fleet = small_fleet(
            4, net_plan=plan, transport_policy=TransportPolicy(hedge=True)
        )
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=8).pairs(64)
        run = fleet.run(pairs, pairs_per_round=8)
        assert run.transport.steals >= 1
        assert len(calls) == run.schedule.rounds + run.transport.steals
