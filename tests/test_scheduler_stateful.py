"""Stateful Hypothesis test: the scheduler never drops or duplicates a pair.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` accumulates a
workload and a fault plan through arbitrary interleavings of rules, then
flushes through a one-shard :class:`~repro.pim.fleet.FleetCoordinator`
(the plain multi-round run of :class:`~repro.pim.scheduler.BatchScheduler`
round steps).  The
invariant under ANY fault plan (transient deaths, persistent deaths,
corruption, even every-DPU-dead):

* returned pair indices are unique, and
* ``completed_pairs`` and ``abandoned_pairs`` of the recovery report
  partition exactly ``0..n-1`` — every pair is accounted for once, as
  either a delivered result or an explicit abandonment.  Nothing is
  silently lost, nothing is double-delivered.

When the plan contains only DPU deaths (no data corruption), the machine
additionally pins byte-identical results against a fault-free baseline —
recovery must be invisible in the output.

The ``flush_resume`` rule extends the same invariant across a crash:
journal the run, truncate at an arbitrary record boundary, resume —
with or without a fleet-health ledger quarantining DPUs — and the
delivered + abandoned pairs still partition the workload exactly, with
results byte-identical to the uninterrupted run.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core.penalties import EditPenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import DegradedCapacity
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, MramCorruption, RetryPolicy
from repro.pim.fleet import FleetCoordinator
from repro.pim.health import HealthPolicy
from repro.pim.kernel import KernelConfig

NUM_DPUS = 4


def make_fleet(shards: int = 1, health: bool = False) -> FleetCoordinator:
    return FleetCoordinator(
        PimSystemConfig(
            num_dpus=NUM_DPUS, num_ranks=1, tasklets=4, num_simulated_dpus=NUM_DPUS
        ),
        KernelConfig(penalties=EditPenalties(), max_read_len=32, max_edits=4),
        shards=shards,
        health_policy=(
            HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9)
            if health
            else None
        ),
    )


def global_indices(run) -> list[int]:
    """Round-local result indices rebased to the whole workload."""
    out = []
    start = 0
    for rnd, size in zip(run.per_round, run.schedule.round_sizes()):
        out.extend(i + start for i, _, _ in rnd.results)
        start += size
    return out


def flat_results(run) -> list[tuple[int, int, str]]:
    out = []
    start = 0
    for rnd, size in zip(run.per_round, run.schedule.round_sizes()):
        out.extend((i + start, s, str(c)) for i, s, c in rnd.results)
        start += size
    return sorted(out)


class SchedulerFaultMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pending: list = []
        self.deaths: dict = {}  # dpu_id -> attempts tuple or None (persistent)
        self.corruptions: list = []
        self.plan_seed = 1

    # -- build up state -----------------------------------------------------

    @rule(n=st.integers(min_value=1, max_value=10), seed=st.integers(0, 2**16))
    def add_pairs(self, n: int, seed: int) -> None:
        gen = ReadPairGenerator(length=24, error_rate=0.05, seed=seed)
        self.pending.extend(gen.pairs(n))

    @rule(dpu=st.integers(0, NUM_DPUS - 1), transient=st.booleans())
    def kill_dpu(self, dpu: int, transient: bool) -> None:
        self.deaths[dpu] = (0,) if transient else None

    @rule(
        dpu=st.integers(0, NUM_DPUS - 1),
        region=st.sampled_from(["header", "input", "output"]),
    )
    def corrupt_dpu(self, dpu: int, region: str) -> None:
        self.corruptions.append(
            MramCorruption(dpu_id=dpu, region=region, attempts=(0,))
        )

    @rule(seed=st.integers(1, 2**16))
    def reseed(self, seed: int) -> None:
        self.plan_seed = seed

    @rule()
    def clear_faults(self) -> None:
        self.deaths = {}
        self.corruptions = []

    # -- flush + check ------------------------------------------------------

    def _plan(self):
        if not self.deaths and not self.corruptions:
            return None
        return FaultPlan(
            seed=self.plan_seed,
            deaths=tuple(
                DpuDeath(dpu_id=d, attempts=a) for d, a in sorted(self.deaths.items())
            ),
            corruptions=tuple(self.corruptions),
        )

    @precondition(lambda self: self.pending)
    @rule(pairs_per_round=st.integers(min_value=3, max_value=17))
    def flush(self, pairs_per_round: int) -> None:
        pairs, plan = self.pending, self._plan()
        self.pending = []
        n = len(pairs)
        run = make_fleet().run(
            pairs,
            pairs_per_round=pairs_per_round,
            collect_results=True,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, max_requeues=NUM_DPUS - 1),
        )
        got = global_indices(run)
        assert len(got) == len(set(got)), "duplicate pair index delivered"
        if plan is None:
            assert run.recovery is None
            assert sorted(got) == list(range(n))
            return
        rec = run.recovery
        assert rec is not None
        completed = sorted(rec.completed_pairs)
        abandoned = sorted(rec.abandoned_pairs)
        assert sorted(got) == completed, "results disagree with recovery report"
        assert not set(completed) & set(abandoned)
        assert sorted(completed + abandoned) == list(range(n)), (
            "pairs dropped or duplicated across completion + abandonment"
        )
        if not self.corruptions:
            # deaths only: recovery must be invisible in the delivered data
            baseline = make_fleet().run(
                pairs, pairs_per_round=pairs_per_round, collect_results=True
            )
            expected = dict(
                (i, (s, c)) for i, s, c in flat_results(baseline)
            )
            for i, s, c in flat_results(run):
                assert (s, c) == expected[i], f"pair {i} changed under recovery"

    @precondition(lambda self: self.pending)
    @rule(
        pairs_per_round=st.integers(min_value=3, max_value=17),
        crash_after=st.integers(min_value=1, max_value=4),
        with_health=st.booleans(),
    )
    def flush_resume(
        self, pairs_per_round: int, crash_after: int, with_health: bool
    ) -> None:
        """Crash after an arbitrary journaled round, resume, lose nothing."""
        pairs, plan = self.pending, self._plan()
        self.pending = []
        n = len(pairs)
        policy = RetryPolicy(max_attempts=2, max_requeues=NUM_DPUS - 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.jsonl"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedCapacity)
                full = make_fleet(health=with_health).run(
                    pairs,
                    pairs_per_round=pairs_per_round,
                    collect_results=True,
                    fault_plan=plan,
                    retry_policy=policy,
                    journal=path,
                )
                lines = path.read_text().splitlines()
                keep = 1 + min(crash_after, len(lines) - 1)  # header + k rounds
                path.write_text("\n".join(lines[:keep]) + "\n")
                resumed = make_fleet(health=with_health).resume_run(
                    path,
                    pairs,
                    pairs_per_round=pairs_per_round,
                    collect_results=True,
                    fault_plan=plan,
                    retry_policy=policy,
                )
        assert resumed.rounds_replayed == keep - 1
        got = global_indices(resumed)
        assert len(got) == len(set(got)), "resume double-delivered a pair"
        assert flat_results(resumed) == flat_results(full), (
            "resume changed delivered results"
        )
        if plan is None:
            assert sorted(got) == list(range(n))
            return
        rec = resumed.recovery
        assert rec is not None
        completed = sorted(rec.completed_pairs)
        abandoned = sorted(rec.abandoned_pairs)
        assert sorted(got) == completed
        assert sorted(completed + abandoned) == list(range(n)), (
            "resume dropped or duplicated pairs across the crash boundary"
        )


SchedulerFaultMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
TestSchedulerNeverLosesPairs = SchedulerFaultMachine.TestCase


# -- the same invariant, one level up: a sharded fleet ------------------------

SHARDS = 2
FLEET_DPUS = SHARDS * NUM_DPUS


class FleetFaultMachine(RuleBasedStateMachine):
    """The scheduler machine's invariant, federated across shards.

    Deaths here are *global-domain* — a drawn DPU id indexes the whole
    ``SHARDS * NUM_DPUS`` fleet, so a fault plan may gut one shard while
    leaving another untouched.  Whatever the interleaving:

    * delivered pair indices stay unique,
    * ``completed_pairs`` + ``abandoned_pairs`` partition ``0..n-1``,
    * deaths-only plans deliver byte-identical alignments to a
      one-shard fault-free baseline, and
    * crashing mid-run (one shard journal torn at a record boundary,
      another deleted outright) and resuming from the federated journal
      replays to identical results and identical per-shard health
      ledgers.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pending: list = []
        self.deaths: dict = {}
        self.plan_seed = 1

    @rule(n=st.integers(min_value=1, max_value=10), seed=st.integers(0, 2**16))
    def add_pairs(self, n: int, seed: int) -> None:
        gen = ReadPairGenerator(length=24, error_rate=0.05, seed=seed)
        self.pending.extend(gen.pairs(n))

    @rule(dpu=st.integers(0, FLEET_DPUS - 1), transient=st.booleans())
    def kill_dpu(self, dpu: int, transient: bool) -> None:
        self.deaths[dpu] = (0,) if transient else None

    @rule(seed=st.integers(1, 2**16))
    def reseed(self, seed: int) -> None:
        self.plan_seed = seed

    @rule()
    def clear_faults(self) -> None:
        self.deaths = {}

    def _plan(self):
        if not self.deaths:
            return None
        return FaultPlan(
            seed=self.plan_seed,
            deaths=tuple(
                DpuDeath(dpu_id=d, attempts=a) for d, a in sorted(self.deaths.items())
            ),
        )

    def _check_partition(self, run, n: int, plan) -> None:
        got = sorted(i for i, _, _ in run.results())
        assert len(got) == len(set(got)), "duplicate pair index delivered"
        if plan is None:
            assert run.recovery is None
            assert got == list(range(n))
            return
        rec = run.recovery
        assert rec is not None
        completed = sorted(rec.completed_pairs)
        abandoned = sorted(rec.abandoned_pairs)
        assert got == completed, "results disagree with recovery report"
        assert not set(completed) & set(abandoned)
        assert sorted(completed + abandoned) == list(range(n)), (
            "pairs dropped or duplicated across the fleet"
        )

    @precondition(lambda self: self.pending)
    @rule(pairs_per_round=st.integers(min_value=3, max_value=17))
    def flush(self, pairs_per_round: int) -> None:
        pairs, plan = self.pending, self._plan()
        self.pending = []
        n = len(pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            run = make_fleet(SHARDS).run(
                pairs,
                pairs_per_round=pairs_per_round,
                collect_results=True,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=2, max_requeues=NUM_DPUS - 1),
            )
        self._check_partition(run, n, plan)
        # deaths never change delivered data, sharded or not
        baseline = make_fleet().run(
            pairs, pairs_per_round=pairs_per_round, collect_results=True
        )
        expected = dict((i, (s, c)) for i, s, c in flat_results(baseline))
        for i, s, c in sorted(run.results()):
            assert (s, str(c)) == expected[i], f"pair {i} changed under recovery"

    @precondition(lambda self: self.pending)
    @rule(
        pairs_per_round=st.integers(min_value=3, max_value=17),
        crash_after=st.integers(min_value=1, max_value=4),
        lose_whole_shard=st.booleans(),
        with_health=st.booleans(),
    )
    def flush_resume(
        self,
        pairs_per_round: int,
        crash_after: int,
        lose_whole_shard: bool,
        with_health: bool,
    ) -> None:
        """Tear the federated journal mid-run, resume, lose nothing."""
        pairs, plan = self.pending, self._plan()
        self.pending = []
        n = len(pairs)
        policy = RetryPolicy(max_attempts=2, max_requeues=NUM_DPUS - 1)
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "journal"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedCapacity)
                reference = make_fleet(SHARDS, with_health)
                full = reference.run(
                    pairs,
                    pairs_per_round=pairs_per_round,
                    collect_results=True,
                    fault_plan=plan,
                    retry_policy=policy,
                    journal=journal,
                )
                shard_files = sorted(journal.glob("shard-*.jsonl"))
                torn = shard_files[0]
                lines = torn.read_text().splitlines()
                keep = 1 + min(crash_after, len(lines) - 1)
                torn.write_text("\n".join(lines[:keep]) + "\n")
                if lose_whole_shard and len(shard_files) > 1:
                    shard_files[-1].unlink()
                resumer = make_fleet(SHARDS, with_health)
                resumed = resumer.resume_run(
                    journal,
                    pairs,
                    pairs_per_round=pairs_per_round,
                    collect_results=True,
                    fault_plan=plan,
                    retry_policy=policy,
                )
        self._check_partition(resumed, n, plan)
        assert sorted(resumed.results()) == sorted(full.results()), (
            "resume changed delivered results"
        )
        if plan is not None:
            assert resumed.recovery.to_dict() == full.recovery.to_dict()
        assert resumed.total_seconds == full.total_seconds
        if with_health:
            assert resumer.health_states() == reference.health_states(), (
                "health ledgers did not replay to identical state"
            )


FleetFaultMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=8, deadline=None
)
TestFleetNeverLosesPairs = FleetFaultMachine.TestCase
