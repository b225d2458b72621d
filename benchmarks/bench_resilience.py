"""Ext. R — resilience: circuit breaker vs retry-only under a dead DPU.

One DPU in the fleet is permanently dead.  A retry-only scheduler pays
the full retry tax (watchdog + backoff + requeue) every round, forever.
With the fleet-health ledger attached, the dead DPU's circuit breaker
opens after ``failure_threshold`` observed failures and later rounds
simply route around it — the modeled run gets *faster* despite running
on fewer DPUs, because recovery overhead dwarfs the lost capacity.

The acceptance number is the modeled ``total_seconds`` delta; results
are asserted byte-identical either way (quarantine never changes the
answers, only where and when they are computed).  Besides the rendered
table, the run writes a machine-readable artifact in the shared
``repro.bench.artifact/v1`` envelope (see ``conftest.write_artifact``).
"""

import importlib.util
import warnings
from pathlib import Path

from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import DegradedCapacity
from repro.perf.report import format_table
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, RetryPolicy
from repro.pim.fleet import FleetCoordinator
from repro.pim.health import HealthPolicy
from repro.pim.kernel import KernelConfig

NUM_DPUS = 8
DEAD_DPU = 3
NUM_PAIRS = 480
PAIRS_PER_ROUND = 96
LENGTH = 64
SEED = 11


def _conftest():
    """The benchmarks-local conftest, by path (pytest shadows the name)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", Path(__file__).resolve().parent / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_fleet(length: int = LENGTH, health_policy=None) -> FleetCoordinator:
    """A one-shard fleet: the plain multi-round run."""
    cfg = PimSystemConfig(
        num_dpus=NUM_DPUS, num_ranks=1, tasklets=8, num_simulated_dpus=NUM_DPUS
    )
    kc = KernelConfig(penalties=AffinePenalties(), max_read_len=length, max_edits=3)
    return FleetCoordinator(cfg, kc, health_policy=health_policy)


def flat(run):
    out, start = [], 0
    for rnd, size in zip(run.per_round, run.schedule.round_sizes()):
        out.extend((i + start, s, str(c)) for i, s, c in rnd.results)
        start += size
    return sorted(out)


def run_resilience(
    num_pairs: int = NUM_PAIRS,
    pairs_per_round: int = PAIRS_PER_ROUND,
    length: int = LENGTH,
    seed: int = SEED,
):
    """Both runs of the drill: (retry_only, with_breaker, health)."""
    pairs = ReadPairGenerator(length=length, error_rate=0.02, seed=seed).pairs(
        num_pairs
    )
    plan = FaultPlan(deaths=(DpuDeath(dpu_id=DEAD_DPU),))
    policy = RetryPolicy(max_attempts=2, backoff_base_s=2e-3)
    retry_only = build_fleet(length).run(
        pairs,
        pairs_per_round=pairs_per_round,
        collect_results=True,
        fault_plan=plan,
        retry_policy=policy,
    )
    fleet = build_fleet(
        length, HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedCapacity)
        with_breaker = fleet.run(
            pairs,
            pairs_per_round=pairs_per_round,
            collect_results=True,
            fault_plan=plan,
            retry_policy=policy,
        )
    return retry_only, with_breaker, fleet.shard_healths[0]


def write_resilience_artifact(
    retry_only,
    with_breaker,
    health,
    *,
    num_pairs: int = NUM_PAIRS,
    pairs_per_round: int = PAIRS_PER_ROUND,
    length: int = LENGTH,
    seed: int = SEED,
    path=None,
) -> Path:
    """The drill's machine-readable artifact, in the shared envelope."""
    config = {
        "num_dpus": NUM_DPUS,
        "dead_dpu": DEAD_DPU,
        "num_pairs": num_pairs,
        "pairs_per_round": pairs_per_round,
        "length": length,
        "seed": seed,
    }
    body = {
        "retry_only_seconds": retry_only.total_seconds,
        "breaker_seconds": with_breaker.total_seconds,
        "delta_seconds": retry_only.total_seconds - with_breaker.total_seconds,
        "retry_only_recovery_seconds": retry_only.recovery_seconds,
        "breaker_recovery_seconds": with_breaker.recovery_seconds,
        "faults_seen": retry_only.recovery.faults_seen,
        "dead_dpu_state": health.states()[DEAD_DPU],
        "identical": flat(with_breaker) == flat(retry_only),
    }
    return _conftest().write_artifact(
        "BENCH_resilience", config, body, seed=seed, path=path
    )


def test_breaker_vs_retry_only(benchmark):
    retry_only, with_breaker, health = benchmark.pedantic(
        run_resilience, rounds=1, iterations=1
    )

    rows = []
    for label, run_ in (("retry-only", retry_only), ("breaker", with_breaker)):
        rows.append(
            (
                label,
                f"{run_.total_seconds * 1e3:.3f}",
                f"{run_.recovery_seconds * 1e3:.3f}",
                str(run_.recovery.faults_seen),
            )
        )
    delta = retry_only.total_seconds - with_breaker.total_seconds
    rows.append(
        (
            "delta",
            f"{delta * 1e3:.3f}",
            f"{(retry_only.recovery_seconds - with_breaker.recovery_seconds) * 1e3:.3f}",
            "-",
        )
    )
    _conftest().emit(
        "resilience",
        format_table(
            ["scheduler", "total_ms", "recovery_ms", "faults_seen"], rows
        ),
    )
    write_resilience_artifact(retry_only, with_breaker, health)

    assert health.states()[DEAD_DPU] == "open"
    assert flat(with_breaker) == flat(retry_only)
    assert with_breaker.recovery_seconds < retry_only.recovery_seconds
    assert with_breaker.total_seconds < retry_only.total_seconds
