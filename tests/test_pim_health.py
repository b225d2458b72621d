"""Fleet-health ledger, circuit breakers, quarantine (repro.pim.health)."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.penalties import EditPenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import ConfigError, DegradedCapacity
from repro.obs.metrics import MetricsRegistry
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, RetryPolicy
from repro.pim.fleet import FleetCoordinator
from repro.pim.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FleetHealth,
    HealthPolicy,
)
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem

NUM_DPUS = 4


def small_configs() -> tuple[PimSystemConfig, KernelConfig]:
    return (
        PimSystemConfig(
            num_dpus=NUM_DPUS, num_ranks=1, tasklets=4, num_simulated_dpus=NUM_DPUS
        ),
        KernelConfig(penalties=EditPenalties(), max_read_len=40, max_edits=4),
    )


def small_system() -> PimSystem:
    return PimSystem(*small_configs())


def workload(n: int = 40):
    return ReadPairGenerator(length=32, error_rate=0.05, seed=7).pairs(n)


class TestHealthPolicy:
    def test_defaults_validate(self):
        HealthPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"failure_threshold": 0},
            {"window": 4, "failure_threshold": 5},
            {"cooldown_s": -1.0},
            {"probe_successes": 0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            HealthPolicy(**kwargs)


class TestCircuitBreaker:
    def policy(self, **kw) -> HealthPolicy:
        base = dict(window=4, failure_threshold=2, cooldown_s=1.0, probe_successes=2)
        base.update(kw)
        return HealthPolicy(**base)

    def test_lifecycle_closed_open_half_open_closed(self):
        br = CircuitBreaker(self.policy())
        assert br.state(0.0) == CLOSED
        br.record_failure(0.0)
        assert br.state(0.0) == CLOSED
        br.record_failure(0.1)
        assert br.state(0.1) == OPEN
        assert not br.allows(0.5)  # still cooling down
        assert br.state(1.1) == HALF_OPEN  # lazy promotion after cooldown
        br.record_success(1.2)
        assert br.state(1.2) == HALF_OPEN  # one probe of the two required
        br.record_success(1.3)
        assert br.state(1.3) == CLOSED
        assert br.times_opened == 1

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        br = CircuitBreaker(self.policy())
        br.record_failure(0.0)
        br.record_failure(0.0)
        assert br.state(1.0) == HALF_OPEN
        br.record_failure(1.0)
        assert br.state(1.5) == OPEN  # cooldown restarted at t=1.0
        assert br.state(2.0) == HALF_OPEN
        assert br.times_opened == 2

    def test_sliding_window_forgets_old_failures(self):
        # threshold 2 in a window of 4: two failures separated by four
        # successes never coexist in the window, so the breaker holds
        br = CircuitBreaker(self.policy())
        for _ in range(3):
            br.record_failure(0.0)
            for _ in range(4):
                br.record_success(0.0)
        assert br.state(0.0) == CLOSED
        assert br.failure_rate <= 0.25

    def test_to_dict_snapshot(self):
        br = CircuitBreaker(self.policy())
        br.record_failure(0.0)
        doc = br.to_dict(0.0)
        assert doc["state"] == CLOSED
        assert doc["failures"] == 1 and doc["times_opened"] == 0
        assert doc["failure_rate"] == 1.0


class TestFleetHealth:
    def test_quarantine_and_metrics(self):
        registry = MetricsRegistry()
        fleet = FleetHealth(
            NUM_DPUS,
            policy=HealthPolicy(window=4, failure_threshold=1, cooldown_s=10.0),
            registry=registry,
        )
        fleet.record_failure(2, now=0.0)
        assert fleet.quarantined(0.0) == (2,)
        assert fleet.available(0.0) == (0, 1, 3)
        assert fleet.healthy_fraction(0.0) == pytest.approx(0.75)
        with pytest.warns(DegradedCapacity):
            active = fleet.plan_round(now=0.0)
        assert active == (0, 1, 3)
        assert registry.gauge("pim_dpus_quarantined").value() == 1
        assert registry.gauge("pim_healthy_capacity").value() == pytest.approx(0.75)
        assert (
            registry.counter("pim_breaker_transitions_total").value(to=OPEN) == 1
        )

    def test_total_quarantine_forces_probe_round(self):
        fleet = FleetHealth(
            2, policy=HealthPolicy(window=2, failure_threshold=1, cooldown_s=10.0)
        )
        fleet.record_failure(0, now=0.0)
        fleet.record_failure(1, now=0.0)
        with pytest.warns(DegradedCapacity, match="full-fleet probe"):
            assert fleet.plan_round(now=0.0) == (0, 1)

    def test_ledger_clock_is_monotone(self):
        fleet = FleetHealth(2)
        fleet.advance(5.0)
        fleet.advance(1.0)  # going backwards is a no-op
        assert fleet.now == 5.0

    def test_observe_report_attributes_physical_placements(self):
        # a requeued job: failures on the original placement, success on
        # the spare — the ledger must blame the right physical DPU
        plan = FaultPlan(deaths=(DpuDeath(dpu_id=1),))
        run = small_system().align(workload(16), fault_plan=plan)
        fleet = FleetHealth(
            NUM_DPUS, policy=HealthPolicy(window=4, failure_threshold=2)
        )
        fleet.observe_report(run.recovery, now=0.0)
        states = fleet.states(0.0)
        assert states[1] == OPEN
        assert all(states[d] == CLOSED for d in (0, 2, 3))
        assert fleet.breakers[run.recovery.records[1].final_placement].successes >= 1

    def test_to_dict_schema(self):
        fleet = FleetHealth(2)
        doc = fleet.to_dict(0.0)
        assert doc["schema"] == "repro.pim.health/v1"
        assert doc["available"] == [0, 1]
        assert set(doc["breakers"]) == {"0", "1"}


class TestSchedulerQuarantine:
    def run_with(self, health_policy, pairs, plan, policy):
        """A one-shard fleet run; returns (run, the shard's ledger)."""
        fleet = FleetCoordinator(*small_configs(), health_policy=health_policy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            run = fleet.run(
                pairs,
                pairs_per_round=10,
                collect_results=True,
                fault_plan=plan,
                retry_policy=policy,
            )
        return run, fleet.shard_healths[0]

    def test_breaker_reduces_total_seconds_vs_retry_only(self):
        """Acceptance pin: with one always-dead DPU, quarantining it is
        measurably cheaper than paying the retry tax every round."""
        pairs = workload(40)
        plan = FaultPlan(deaths=(DpuDeath(dpu_id=1),))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=2e-3)
        retry_only, _ = self.run_with(None, pairs, plan, policy)
        with_breaker, health = self.run_with(
            HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9),
            pairs,
            plan,
            policy,
        )
        assert health.states()[1] == OPEN
        # same answers either way...
        flat = lambda run: sorted(
            (i + start, s, str(c))
            for rnd, start in zip(
                run.per_round,
                [0, 10, 20, 30],
            )
            for i, s, c in rnd.results
        )
        assert flat(with_breaker) == flat(retry_only)
        # ...but the quarantined run stops paying recovery overhead
        assert with_breaker.recovery_seconds < retry_only.recovery_seconds
        assert with_breaker.total_seconds < retry_only.total_seconds

    def test_quarantined_rounds_report_active_dpus(self):
        pairs = workload(30)
        plan = FaultPlan(deaths=(DpuDeath(dpu_id=2),))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=1e-3)
        run, _ = self.run_with(
            HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9),
            pairs,
            plan,
            policy,
        )
        # once the breaker opens, later rounds exclude DPU 2
        assert run.per_round[-1].active_dpus is not None
        assert 2 not in run.per_round[-1].active_dpus
        # no pair lost despite the shrunken fleet
        got = sorted(
            i + start
            for rnd, start in zip(run.per_round, [0, 10, 20])
            for i, _, _ in rnd.results
        )
        assert got == list(range(30))


class BreakerMachine(RuleBasedStateMachine):
    """Arbitrary outcome/time sequences keep the breaker sane.

    Core liveness invariant: a breaker is never stranded — whatever
    happened before, cooldown expiry followed by enough successful
    probes always closes it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.policy = HealthPolicy(
            window=4, failure_threshold=2, cooldown_s=1.0, probe_successes=2
        )
        self.breaker = CircuitBreaker(self.policy)
        self.now = 0.0

    @rule(dt=st.floats(min_value=0.0, max_value=3.0))
    def advance(self, dt: float) -> None:
        self.now += dt

    @rule()
    def fail(self) -> None:
        self.breaker.record_failure(self.now)

    @rule()
    def succeed(self) -> None:
        self.breaker.record_success(self.now)

    @precondition(lambda self: self.breaker.state(self.now) == OPEN)
    @rule()
    def rehabilitate(self) -> None:
        """From OPEN, waiting out the cooldown and probing always
        closes the breaker — no DPU is stranded open forever."""
        self.now += self.policy.cooldown_s
        assert self.breaker.state(self.now) == HALF_OPEN
        for _ in range(self.policy.probe_successes):
            self.breaker.record_success(self.now)
        assert self.breaker.state(self.now) == CLOSED

    @invariant()
    def state_is_valid(self) -> None:
        state = self.breaker.state(self.now)
        assert state in (CLOSED, OPEN, HALF_OPEN)
        assert self.breaker.allows(self.now) == (state != OPEN)
        assert 0.0 <= self.breaker.failure_rate <= 1.0

    @invariant()
    def open_implies_recent_trip(self) -> None:
        # an OPEN breaker always becomes available again by cooldown_s
        if self.breaker.state(self.now) == OPEN:
            future = self.now + self.policy.cooldown_s
            probe = CircuitBreaker(self.policy)
            probe.__dict__.update(
                {
                    k: (v.copy() if hasattr(v, "copy") else v)
                    for k, v in self.breaker.__dict__.items()
                    if k != "policy"
                }
            )
            assert probe.state(future) == HALF_OPEN


BreakerMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestBreakerNeverStranded = BreakerMachine.TestCase
