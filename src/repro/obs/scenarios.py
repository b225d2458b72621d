"""The perf ledger's registered bench scenarios.

Every scenario runs a pinned-seed workload on the **modeled clock** and
reports gated metrics (pairs/sec, modeled total/kernel seconds, latency
percentiles) that are pure functions of its configuration — identical on
any machine, at any worker count, under any CPU load.  Wall-clock
observations (vector-engine speedup, pool scaling) ride in the
non-gated ``info`` dict: they are the *reason* some knobs exist, but a
noisy CI box must never fail the gate over them.

Each scenario also identity-checks the property it is named for
(vector == scalar results, parallel == sequential results, breaker run
== retry-only run) — a ledger record is only appended if the claim the
scenario benchmarks still holds.

Percentile semantics per scenario family:

* device scenarios — percentiles over **per-DPU modeled kernel
  seconds** (the straggler distribution the paper's Kernel series
  hides);
* scheduler scenarios — percentiles over **per-round modeled total
  seconds**;
* serve scenarios — percentiles over **per-request modeled latency**
  (straight from the load report).

Quick profiles are CI-safe on one CPU (the whole catalog runs in a few
seconds); full profiles are the overnight shapes.
"""

from __future__ import annotations

import time
import warnings
from typing import List

from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPairGenerator
from repro.errors import DegradedCapacity, LedgerError
from repro.obs.bench import ScenarioResult, counters_from_diff, scenario
from repro.obs.telemetry import RunTelemetry
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan, RetryPolicy
from repro.pim.fleet import FleetCoordinator
from repro.pim.health import HealthPolicy
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem
from repro.serve.loadgen import LoadgenConfig, percentile, run_load

__all__ = ["SCENARIO_NAMES"]

#: the catalog, in registration order (kept in sync by the decorator).
SCENARIO_NAMES = (
    "engine_vector_vs_scalar",
    "host_parallel",
    "scheduler_rounds",
    "serve_replay",
    "resilience_breaker",
    "fleet_scaling",
    "campaign_grid",
    "fleet_lossy_net",
)


def _configs(
    num_dpus: int,
    tasklets: int,
    length: int,
    max_edits: int,
    engine: str = "vector",
    workers: int = 1,
) -> tuple[PimSystemConfig, KernelConfig]:
    """One system's (config, kernel config), for a ``PimSystem`` or a
    one-shard ``FleetCoordinator``."""
    return (
        PimSystemConfig(
            num_dpus=num_dpus,
            num_ranks=1,
            tasklets=tasklets,
            num_simulated_dpus=num_dpus,
            workers=workers,
        ),
        KernelConfig(
            penalties=AffinePenalties(),
            max_read_len=length,
            max_edits=max_edits,
            engine=engine,
        ),
    )


def _signature(results) -> list:
    """Order-independent functional signature of run results."""
    return sorted((i, s, str(c)) for i, s, c in results)


def _pctl(values: List[float]) -> tuple:
    """(p50, p90, p99) of a modeled-seconds sample (zeros when empty)."""
    if not values:
        return (0.0, 0.0, 0.0)
    s = sorted(values)
    return (percentile(s, 50), percentile(s, 90), percentile(s, 99))


# -- 1. vector vs scalar engine -------------------------------------------


@scenario("engine_vector_vs_scalar")
def engine_vector_vs_scalar(profile: str) -> ScenarioResult:
    """The engine knob: identical modeled run, different wall clock.

    Runs the same workload through the scalar per-pair engine and the
    vectorized batch engine, asserts bit-identical results and modeled
    times (the gated claim), and reports the wall-clock speedup as info.
    """
    config = {
        "scenario": "engine_vector_vs_scalar",
        "profile": profile,
        "num_dpus": 8,
        "tasklets": 4,
        "length": 64,
        "error_rate": 0.02,
        "max_edits": 3,
        "seed": 7,
        "pairs": 128 if profile == "quick" else 2048,
    }
    pairs = ReadPairGenerator(
        length=config["length"],
        error_rate=config["error_rate"],
        seed=config["seed"],
    ).pairs(config["pairs"])

    runs = {}
    walls = {}
    for engine in ("scalar", "vector"):
        system = PimSystem(
            *_configs(
                config["num_dpus"],
                config["tasklets"],
                config["length"],
                config["max_edits"],
                engine=engine,
            )
        )
        t0 = time.perf_counter()
        runs[engine] = system.align(pairs, collect_results=True)
        walls[engine] = time.perf_counter() - t0

    scalar, vector = runs["scalar"], runs["vector"]
    if _signature(scalar.results) != _signature(vector.results):
        raise LedgerError(
            "engine_vector_vs_scalar: vector engine results diverged from scalar"
        )
    if (scalar.total_seconds, scalar.kernel_seconds) != (
        vector.total_seconds,
        vector.kernel_seconds,
    ):
        raise LedgerError(
            "engine_vector_vs_scalar: modeled times differ between engines"
        )

    p50, p90, p99 = _pctl([s.seconds for s in vector.per_dpu])
    return ScenarioResult(
        scenario="engine_vector_vs_scalar",
        config=config,
        pairs_per_second=vector.throughput(),
        total_seconds=vector.total_seconds,
        kernel_seconds=vector.kernel_seconds,
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p99_s=p99,
        info={
            "results_identical": True,
            "wall_scalar_s": walls["scalar"],
            "wall_vector_s": walls["vector"],
            "wall_speedup": (
                walls["scalar"] / walls["vector"] if walls["vector"] else 0.0
            ),
        },
    )


# -- 2. host-parallel scaling ---------------------------------------------


@scenario("host_parallel")
def host_parallel(profile: str) -> ScenarioResult:
    """Worker-pool scaling: identical results and modeled times at any
    worker count; wall-clock scaling reported as info."""
    config = {
        "scenario": "host_parallel",
        "profile": profile,
        "num_dpus": 8,
        "tasklets": 4,
        "length": 64,
        "error_rate": 0.02,
        "max_edits": 3,
        "seed": 11,
        "pairs": 96 if profile == "quick" else 1024,
        # 1 runs in-process on every host, so the identity check below
        # compares the pool with the sequential path; 0 would resolve to
        # the core count and, on two cores, compare two pooled runs
        "worker_counts": [1, 2],
    }
    pairs = ReadPairGenerator(
        length=config["length"],
        error_rate=config["error_rate"],
        seed=config["seed"],
    ).pairs(config["pairs"])

    baseline = None
    walls = {}
    for workers in config["worker_counts"]:
        system = PimSystem(
            *_configs(
                config["num_dpus"],
                config["tasklets"],
                config["length"],
                config["max_edits"],
                workers=workers,
            )
        )
        t0 = time.perf_counter()
        run = system.align(pairs, collect_results=True)
        walls[str(workers)] = time.perf_counter() - t0
        if baseline is None:
            baseline = run
        else:
            if _signature(run.results) != _signature(baseline.results):
                raise LedgerError(
                    f"host_parallel: workers={workers} diverged from sequential"
                )
            if (run.total_seconds, run.kernel_seconds) != (
                baseline.total_seconds,
                baseline.kernel_seconds,
            ):
                raise LedgerError(
                    f"host_parallel: workers={workers} changed modeled times"
                )

    p50, p90, p99 = _pctl([s.seconds for s in baseline.per_dpu])
    return ScenarioResult(
        scenario="host_parallel",
        config=config,
        pairs_per_second=baseline.throughput(),
        total_seconds=baseline.total_seconds,
        kernel_seconds=baseline.kernel_seconds,
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p99_s=p99,
        info={
            "results_identical": True,
            "wall_seconds_by_workers": walls,
        },
    )


# -- 3. multi-round scheduler ---------------------------------------------


@scenario("scheduler_rounds")
def scheduler_rounds(profile: str) -> ScenarioResult:
    """MRAM-sized rounds through a one-shard fleet (the plain
    multi-round run), with per-scenario counter attribution via the
    registry diff."""
    config = {
        "scenario": "scheduler_rounds",
        "profile": profile,
        "num_dpus": 8,
        "tasklets": 4,
        "length": 64,
        "error_rate": 0.02,
        "max_edits": 3,
        "seed": 13,
        "pairs": 192 if profile == "quick" else 2048,
        "pairs_per_round": 64 if profile == "quick" else 512,
    }
    pairs = ReadPairGenerator(
        length=config["length"],
        error_rate=config["error_rate"],
        seed=config["seed"],
    ).pairs(config["pairs"])

    telemetry = RunTelemetry()
    fleet = FleetCoordinator(
        *_configs(
            config["num_dpus"],
            config["tasklets"],
            config["length"],
            config["max_edits"],
        ),
        telemetry=telemetry,
    )
    before = telemetry.registry.snapshot()
    run = fleet.run(
        pairs, pairs_per_round=config["pairs_per_round"], collect_results=True
    )
    counters = counters_from_diff(telemetry.registry.diff(before))

    p50, p90, p99 = _pctl([r.total_seconds for r in run.per_round])
    return ScenarioResult(
        scenario="scheduler_rounds",
        config=config,
        pairs_per_second=run.throughput(),
        total_seconds=run.total_seconds,
        kernel_seconds=run.kernel_seconds,
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p99_s=p99,
        info={"rounds": run.schedule.rounds},
        counters=counters,
    )


# -- 4. serve-layer load replay -------------------------------------------


@scenario("serve_replay")
def serve_replay(profile: str) -> ScenarioResult:
    """A seeded load replay through the full serving stack (admission,
    micro-batching, cache, modeled device timeline)."""
    from repro.serve.clock import VirtualClock
    from repro.serve.service import build_service

    config = {
        "scenario": "serve_replay",
        "profile": profile,
        "num_dpus": 4,
        "tasklets": 4,
        "length": 16,
        "error_rate": 0.05,
        "max_edits": 4,
        "seed": 5,
        "requests": 160 if profile == "quick" else 1200,
        "rate": 2000.0,
        "pairs_per_request": 2,
        "clients": 4,
    }
    service = build_service(
        num_dpus=config["num_dpus"],
        tasklets=config["tasklets"],
        max_read_len=config["length"],
        max_edits=config["max_edits"],
        clock=VirtualClock(),
    )
    before = service.telemetry.registry.snapshot()
    report = run_load(
        service,
        LoadgenConfig(
            requests=config["requests"],
            rate=config["rate"],
            pairs_per_request=config["pairs_per_request"],
            clients=config["clients"],
            length=config["length"],
            error_rate=config["error_rate"],
            seed=config["seed"],
        ),
    )
    counters = counters_from_diff(
        service.telemetry.registry.diff(before)
    )
    kernel_seconds = service.telemetry.registry.counter(
        "pim_model_seconds_total"
    ).value(section="kernel")
    summary = report.summary()
    return ScenarioResult(
        scenario="serve_replay",
        config=config,
        pairs_per_second=summary["throughput_pairs_per_s"],
        total_seconds=summary["makespan_s"],
        kernel_seconds=kernel_seconds,
        latency_p50_s=summary["latency_p50_s"],
        latency_p90_s=summary["latency_p90_s"],
        latency_p99_s=summary["latency_p99_s"],
        info={
            "completed": summary["completed"],
            "rejected": summary["rejected"],
            "batches": summary["batches"],
            "cached_pairs": summary["cached_pairs"],
        },
        counters=counters,
    )


# -- 5. breaker vs retry-only under a dead DPU ----------------------------


@scenario("resilience_breaker")
def resilience_breaker(profile: str) -> ScenarioResult:
    """Fleet-health delta: quarantining a dead DPU must beat burning
    retries on it every round, at identical results."""
    config = {
        "scenario": "resilience_breaker",
        "profile": profile,
        "num_dpus": 8,
        "tasklets": 4,
        "dead_dpu": 3,
        "length": 64,
        "error_rate": 0.02,
        "max_edits": 3,
        "seed": 11,
        "pairs": 192 if profile == "quick" else 960,
        "pairs_per_round": 96,
        "max_attempts": 2,
        "backoff_base_s": 2e-3,
    }
    pairs = ReadPairGenerator(
        length=config["length"],
        error_rate=config["error_rate"],
        seed=config["seed"],
    ).pairs(config["pairs"])
    policy = RetryPolicy(
        max_attempts=config["max_attempts"],
        backoff_base_s=config["backoff_base_s"],
    )

    def flat(run):
        out, start = [], 0
        for rnd, size in zip(run.per_round, run.schedule.round_sizes()):
            out.extend((i + start, s, str(c)) for i, s, c in rnd.results)
            start += size
        return sorted(out)

    def run_once(health_policy):
        fleet = FleetCoordinator(
            *_configs(
                config["num_dpus"],
                config["tasklets"],
                config["length"],
                config["max_edits"],
            ),
            health_policy=health_policy,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            return fleet.run(
                pairs,
                pairs_per_round=config["pairs_per_round"],
                collect_results=True,
                fault_plan=FaultPlan(
                    deaths=(DpuDeath(dpu_id=config["dead_dpu"]),)
                ),
                retry_policy=policy,
            )

    retry_only = run_once(health_policy=None)
    with_breaker = run_once(
        health_policy=HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9)
    )
    if flat(retry_only) != flat(with_breaker):
        raise LedgerError(
            "resilience_breaker: breaker run results diverged from retry-only"
        )
    if with_breaker.total_seconds >= retry_only.total_seconds:
        raise LedgerError(
            "resilience_breaker: quarantine did not beat retry-only "
            f"({with_breaker.total_seconds:.6g} >= "
            f"{retry_only.total_seconds:.6g} modeled seconds)"
        )

    p50, p90, p99 = _pctl([r.total_seconds for r in with_breaker.per_round])
    return ScenarioResult(
        scenario="resilience_breaker",
        config=config,
        pairs_per_second=with_breaker.throughput(),
        total_seconds=with_breaker.total_seconds,
        kernel_seconds=with_breaker.kernel_seconds,
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p99_s=p99,
        info={
            "results_identical": True,
            "retry_only_total_seconds": retry_only.total_seconds,
            "breaker_saved_seconds": (
                retry_only.total_seconds - with_breaker.total_seconds
            ),
        },
    )


# -- 6. sharded-fleet scaling curve ----------------------------------------


@scenario("fleet_scaling")
def fleet_scaling(profile: str) -> ScenarioResult:
    """The paper's DIMM-scaling claim on the modeled clock.

    Runs one pinned workload through :class:`~repro.pim.fleet.FleetCoordinator`
    at 1, 2, 4 and 20 shards (the paper's 20-DIMM shape), asserts the
    result stream is byte-identical at every shard count (the
    shard-equivalence claim ``tests/test_pim_fleet.py`` pins), and that
    the modeled fleet makespan strictly shrinks — i.e. throughput rises
    monotonically — from 1 through 20 shards.  Gated metrics come from
    the 4-shard point; the whole 1→2→4→20 curve rides in ``info``.
    """
    config = {
        "scenario": "fleet_scaling",
        "profile": profile,
        "shard_counts": [1, 2, 4, 20],
        "dpus_per_shard": 4,
        "tasklets": 4,
        "length": 32,
        "error_rate": 0.05,
        "max_edits": 3,
        "seed": 17,
        "pairs": 320 if profile == "quick" else 1280,
        "pairs_per_round": 16 if profile == "quick" else 64,
    }
    pairs = ReadPairGenerator(
        length=config["length"],
        error_rate=config["error_rate"],
        seed=config["seed"],
    ).pairs(config["pairs"])
    system_config = PimSystemConfig(
        num_dpus=config["dpus_per_shard"],
        num_ranks=1,
        tasklets=config["tasklets"],
        num_simulated_dpus=config["dpus_per_shard"],
    )
    kernel_config = KernelConfig(
        penalties=AffinePenalties(),
        max_read_len=config["length"],
        max_edits=config["max_edits"],
        engine="vector",
    )

    telemetry = RunTelemetry()
    curve = []
    baseline_signature = None
    gated = None
    counters = {}
    for shards in config["shard_counts"]:
        shard_tel = telemetry if shards == 4 else None
        fleet = FleetCoordinator(
            system_config, kernel_config, shards=shards, telemetry=shard_tel
        )
        run = fleet.run(
            pairs,
            pairs_per_round=config["pairs_per_round"],
            collect_results=True,
        )
        signature = _signature(run.results())
        if baseline_signature is None:
            baseline_signature = signature
        elif signature != baseline_signature:
            raise LedgerError(
                f"fleet_scaling: shards={shards} results diverged from "
                "shards=1 (shard equivalence broken)"
            )
        if curve and run.total_seconds >= curve[-1]["total_seconds"]:
            raise LedgerError(
                "fleet_scaling: modeled makespan did not shrink from "
                f"{curve[-1]['shards']} to {shards} shards "
                f"({run.total_seconds:.6g} >= "
                f"{curve[-1]['total_seconds']:.6g} modeled seconds)"
            )
        if shard_tel is not None:
            # the 4-shard point attributes device counters through the
            # fleet's federated view (the telemetry is fresh, so the
            # full federated snapshot IS the scenario's diff-from-zero)
            counters = counters_from_diff(fleet.metrics_snapshot())
            gated = run
        curve.append(
            {
                "shards": shards,
                "total_seconds": run.total_seconds,
                "throughput": run.throughput(),
                "speedup_vs_serial": run.speedup(),
            }
        )

    p50, p90, p99 = _pctl([r.total_seconds for r in gated.per_round])
    return ScenarioResult(
        scenario="fleet_scaling",
        config=config,
        pairs_per_second=gated.throughput(),
        total_seconds=gated.total_seconds,
        kernel_seconds=gated.kernel_seconds,
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p99_s=p99,
        info={
            "results_identical": True,
            "curve": curve,
            "throughput_1_shard": curve[0]["throughput"],
            "throughput_20_shards": curve[-1]["throughput"],
            "scaling_20_over_1": (
                curve[-1]["throughput"] / curve[0]["throughput"]
                if curve[0]["throughput"]
                else 0.0
            ),
        },
        counters=counters,
    )


# -- 7. ablation x chaos campaign grid --------------------------------------


@scenario("campaign_grid")
def campaign_grid(profile: str) -> ScenarioResult:
    """The campaign runner as a regression-tracked scenario.

    Runs a pinned ablation x fault-grid campaign (see
    :mod:`repro.qa.campaign`), identity-checks the evidence the grid
    exists to produce — the report fully revalidates, the breaker-off
    cell pays more modeled recovery than baseline under a dead DPU, and
    the journal-off cell pays a larger modeled restart bill after a
    crash — and gates on the baseline cell's modeled throughput at the
    dead-DPU point.  Percentiles are over per-cell modeled total
    seconds (the straggler spread of the grid itself).
    """
    from repro.pim.ablation import ablation_by_name
    from repro.qa.campaign import (
        CampaignConfig,
        cell_name,
        grid_point_by_name,
        run_campaign,
        validate_campaign_report,
    )

    config = {
        "scenario": "campaign_grid",
        "profile": profile,
        "pairs": 48 if profile == "quick" else 96,
        "length": 16,
        "max_edits": 4,
        "seed": 42,
        "num_dpus": 4,
        "tasklets": 2,
        "pairs_per_round": 8,
        "baseline_shards": 2,
        "serve_requests": 0 if profile == "quick" else 24,
        "ablations": ["baseline", "breaker_off", "requeue_off", "journal_off"],
        "grid": ["calm", "dead_dpu", "crash_dead"],
    }
    campaign_config = CampaignConfig(
        pairs=config["pairs"],
        length=config["length"],
        max_edits=config["max_edits"],
        seed=config["seed"],
        num_dpus=config["num_dpus"],
        tasklets=config["tasklets"],
        pairs_per_round=config["pairs_per_round"],
        baseline_shards=config["baseline_shards"],
        serve_requests=config["serve_requests"],
        ablations=tuple(ablation_by_name(n) for n in config["ablations"]),
        grid=tuple(grid_point_by_name(n) for n in config["grid"]),
    )
    report = run_campaign(campaign_config)
    validate_campaign_report(report.to_lines())
    if not report.ok:
        raise LedgerError("campaign_grid: campaign summary is not ok")

    baseline_dead = report.cell(cell_name("baseline", "dead_dpu"))["metrics"]
    breaker_off = report.cell(cell_name("breaker_off", "dead_dpu"))["metrics"]
    if breaker_off["recovery_seconds"] <= baseline_dead["recovery_seconds"]:
        raise LedgerError(
            "campaign_grid: breaker-off cell did not regress modeled "
            f"recovery ({breaker_off['recovery_seconds']:.6g} <= "
            f"{baseline_dead['recovery_seconds']:.6g} modeled seconds)"
        )
    baseline_crash = report.cell(cell_name("baseline", "crash_dead"))["metrics"]
    journal_off = report.cell(cell_name("journal_off", "crash_dead"))["metrics"]
    if (
        journal_off["restart_overhead_seconds"]
        <= baseline_crash["restart_overhead_seconds"]
    ):
        raise LedgerError(
            "campaign_grid: journal-off cell did not pay a larger modeled "
            "restart bill than baseline after a crash"
        )

    p50, p90, p99 = _pctl(
        [rec["metrics"]["total_seconds"] for rec in report.cells]
    )
    summary = report.summary()
    return ScenarioResult(
        scenario="campaign_grid",
        config=config,
        pairs_per_second=baseline_dead["throughput_pairs_per_s"],
        total_seconds=baseline_dead["total_seconds"],
        kernel_seconds=baseline_dead["kernel_seconds"],
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p99_s=p99,
        info={
            "cells": summary["cells"],
            "oracle_ok": summary["oracle_ok"],
            "oracle_checked": summary["oracle_checked"],
            "resumes_identical": summary["resumes_identical"],
            "breaker_off_recovery_delta_s": (
                breaker_off["recovery_seconds"]
                - baseline_dead["recovery_seconds"]
            ),
            "journal_off_restart_overhead_s": (
                journal_off["restart_overhead_seconds"]
            ),
        },
    )


# -- 8. fleet over a lossy network ------------------------------------------


@scenario("fleet_lossy_net")
def fleet_lossy_net(profile: str) -> ScenarioResult:
    """The shard transport under rising link loss, identity-checked.

    Runs one pinned workload through a 4-shard fleet at 0%, 1% and 5%
    per-envelope drop probability (plus matching duplicate injection)
    on every coordinator<->shard link.  The 0% point takes the direct
    in-process path (a calm plan never constructs a transport); every
    lossy point must return the byte-identical result stream — the
    at-least-once + dedup exactly-once-effect claim — and must not
    finish faster than the calm run (redelivery only adds modeled
    time).  Gated metrics come from the 5% point, whose transport
    counters ride in ``counters`` for the ledger diff.
    """
    from repro.pim.transport import LinkDrop, LinkDuplicate, NetworkFaultPlan

    config = {
        "scenario": "fleet_lossy_net",
        "profile": profile,
        "shards": 4,
        "dpus_per_shard": 4,
        "tasklets": 4,
        "length": 32,
        "error_rate": 0.05,
        "max_edits": 3,
        "seed": 23,
        "net_seed": 5,
        "pairs": 256 if profile == "quick" else 1024,
        "pairs_per_round": 16 if profile == "quick" else 32,
        "drop_rates": [0.0, 0.01, 0.05],
    }
    pairs = ReadPairGenerator(
        length=config["length"],
        error_rate=config["error_rate"],
        seed=config["seed"],
    ).pairs(config["pairs"])
    system_config = PimSystemConfig(
        num_dpus=config["dpus_per_shard"],
        num_ranks=1,
        tasklets=config["tasklets"],
        num_simulated_dpus=config["dpus_per_shard"],
    )
    kernel_config = KernelConfig(
        penalties=AffinePenalties(),
        max_read_len=config["length"],
        max_edits=config["max_edits"],
        engine="vector",
    )

    def net_plan(rate: float) -> NetworkFaultPlan:
        links = range(config["shards"])
        return NetworkFaultPlan(
            seed=config["net_seed"],
            drops=tuple(LinkDrop(shard_id=s, p=rate) for s in links),
            duplicates=tuple(LinkDuplicate(shard_id=s, p=rate) for s in links),
        )

    calm_signature = None
    calm_seconds = None
    gated = None
    gated_report = None
    counters = {}
    curve = []
    for rate in config["drop_rates"]:
        telemetry = RunTelemetry() if rate == config["drop_rates"][-1] else None
        fleet = FleetCoordinator(
            system_config,
            kernel_config,
            shards=config["shards"],
            net_plan=net_plan(rate),
            telemetry=telemetry,
        )
        run = fleet.run(
            pairs,
            pairs_per_round=config["pairs_per_round"],
            collect_results=True,
        )
        signature = _signature(run.results())
        if calm_signature is None:
            calm_signature = signature
            calm_seconds = run.total_seconds
            if fleet.transport is not None:
                raise LedgerError(
                    "fleet_lossy_net: a calm plan constructed a transport"
                )
        elif signature != calm_signature:
            raise LedgerError(
                f"fleet_lossy_net: drop rate {rate} results diverged from "
                "the calm run (exactly-once effect broken)"
            )
        elif run.total_seconds < calm_seconds:
            raise LedgerError(
                f"fleet_lossy_net: drop rate {rate} finished faster than "
                "the calm run on the modeled clock"
            )
        if telemetry is not None:
            counters = counters_from_diff(fleet.metrics_snapshot())
            gated = run
            gated_report = run.transport
        curve.append(
            {
                "drop_rate": rate,
                "total_seconds": run.total_seconds,
                "throughput": run.throughput(),
                "drops": 0 if run.transport is None else run.transport.drops,
                "redeliveries": (
                    0 if run.transport is None else run.transport.redeliveries
                ),
            }
        )

    if gated_report is None or gated_report.drops < 1:
        raise LedgerError(
            "fleet_lossy_net: the gated 5% point never dropped an envelope "
            "(the fault plan is not exercising the transport)"
        )
    p50, p90, p99 = _pctl([r.total_seconds for r in gated.per_round])
    return ScenarioResult(
        scenario="fleet_lossy_net",
        config=config,
        pairs_per_second=gated.throughput(),
        total_seconds=gated.total_seconds,
        kernel_seconds=gated.kernel_seconds,
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p99_s=p99,
        info={
            "results_identical": True,
            "curve": curve,
            "calm_total_seconds": calm_seconds,
            "lossy_overhead_ratio": (
                gated.total_seconds / calm_seconds if calm_seconds else 0.0
            ),
            "duplicates_absorbed": gated_report.duplicates_absorbed,
        },
        counters=counters,
    )
