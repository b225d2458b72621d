"""Deterministic load tests for the alignment service.

Everything here runs on a :class:`~repro.serve.clock.VirtualClock`: a
1000-request soak completes in wall-milliseconds, and because both the
trace and the service are deterministic, modeled p50/p99 latencies are
reproducible **bit for bit** across runs — and across host worker
counts (``workers=0`` vs ``workers=2``), which is the end-to-end
determinism pin this PR's acceptance hangs on: identical trace + seed
must give byte-identical responses, RecoveryReport, and metrics
snapshot, with the cache on or off, under an injected DPU-death fault
plan.
"""

from __future__ import annotations

import gc
import json
import warnings
import weakref

import pytest

from repro.data.generator import ReadPair
from repro.errors import DegradedCapacity, Overloaded
from repro.pim.faults import DpuDeath, FaultPlan
from repro.serve import (
    AlignRequest,
    LoadgenConfig,
    ServiceConfig,
    arrival_times,
    build_service,
    build_trace,
    percentile,
    run_load,
    validate_load_report,
)


def make_service(workers=1, cache_pairs=0, fault_plan=None, **cfg):
    config = ServiceConfig(
        max_batch_pairs=cfg.pop("max_batch_pairs", 16),
        max_wait_s=cfg.pop("max_wait_s", 1e-3),
        max_queue_pairs=cfg.pop("max_queue_pairs", 4096),
        cache_pairs=cache_pairs,
    )
    return build_service(
        num_dpus=2,
        tasklets=2,
        workers=workers,
        max_read_len=16,
        max_edits=3,
        config=config,
        fault_plan=fault_plan,
        **cfg,
    )


class TestArrivalProcesses:
    def test_uniform_spacing(self):
        times = arrival_times(LoadgenConfig(requests=5, rate=100.0))
        assert times == [0.0, 0.01, 0.02, 0.03, 0.04]

    def test_bursty_lands_in_bursts(self):
        times = arrival_times(
            LoadgenConfig(requests=6, rate=100.0, process="bursty", burst=3)
        )
        assert times == [0.0, 0.0, 0.0, 0.03, 0.03, 0.03]

    def test_ramp_gaps_shrink(self):
        times = arrival_times(
            LoadgenConfig(requests=50, rate=100.0, process="ramp", rate_end=1000.0)
        )
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0] / 5

    def test_trace_is_deterministic(self):
        cfg = LoadgenConfig(requests=30, seed=9, length=12)
        assert build_trace(cfg) == build_trace(cfg)


class TestSoak:
    def test_uniform_1000_requests_nothing_lost_or_reordered(self):
        service = make_service(cache_pairs=128)
        config = LoadgenConfig(
            requests=1000, rate=20000.0, length=10, seed=1, clients=5
        )
        trace = build_trace(config)

        delivery_order = []
        futures = []
        for when, request in trace:
            service.clock.advance_to(when)
            future = service.submit(request)
            future.add_done_callback(
                lambda f, r=request: delivery_order.append((r.client, r.request_id))
            )
            futures.append((request, future))
        service.drain()

        # nothing lost, nothing duplicated: exactly one terminal outcome
        # per request, ids preserved
        assert service.stats.submitted == 1000
        assert service.stats.completed == 1000
        assert service.stats.rejected == 0
        assert service.stats.in_flight == 0
        assert len(delivery_order) == 1000
        assert len(set(delivery_order)) == 1000
        for request, future in futures:
            response = future.result()
            assert response.request_id == request.request_id
            assert response.num_pairs == request.num_pairs
            assert response.latency_s >= 0

        # never reordered within a client (delivery follows submission)
        per_client = {}
        for client, rid in delivery_order:
            per_client.setdefault(client, []).append(rid)
        for client, rids in per_client.items():
            assert rids == sorted(rids), f"client {client} saw reordered responses"

    @pytest.mark.parametrize("process", ["uniform", "bursty", "ramp"])
    def test_report_reproducible_bit_for_bit(self, process):
        config = LoadgenConfig(
            requests=200, rate=10000.0, process=process, length=10, seed=7
        )
        first = run_load(make_service(cache_pairs=64), config)
        second = run_load(make_service(cache_pairs=64), config)
        assert first.to_jsonl() == second.to_jsonl()
        summary = validate_load_report(first.to_records())
        assert summary["completed"] + summary["rejected"] == 200
        # the summary's percentiles are nearest-rank over the records
        latencies = sorted(
            r.latency_s for r in first.records if r.status == "ok"
        )
        assert summary["latency_p50_s"] == percentile(latencies, 50)
        assert summary["latency_p99_s"] == percentile(latencies, 99)

    def test_workers_zero_and_two_give_identical_reports(self):
        config = LoadgenConfig(requests=60, rate=10000.0, length=10, seed=3)
        sequential = run_load(make_service(workers=1), config)
        pooled = run_load(make_service(workers=2), config)
        auto = run_load(make_service(workers=0), config)
        assert sequential.to_jsonl() == pooled.to_jsonl() == auto.to_jsonl()


class TestDeterminismPin:
    """The acceptance pin: byte-identical everything across workers,
    cache settings, under an injected mid-batch DPU death."""

    FAULT = FaultPlan(deaths=(DpuDeath(dpu_id=1, attempts=(0,)),))

    def run_one(self, workers, cache_pairs):
        service = make_service(
            workers=workers, cache_pairs=cache_pairs, fault_plan=self.FAULT
        )
        config = LoadgenConfig(requests=50, rate=10000.0, length=10, seed=11)
        report = run_load(service, config)
        responses = report.to_jsonl()
        recovery = json.dumps(report.recovery, sort_keys=True)
        metrics = json.dumps(service.metrics_snapshot(), sort_keys=True)
        return responses, recovery, metrics

    @pytest.mark.parametrize("cache_pairs", [0, 32])
    def test_workers_invisible_under_faults(self, cache_pairs):
        base_responses, base_recovery, base_metrics = self.run_one(0, cache_pairs)
        for workers in (1, 2):
            responses, recovery, metrics = self.run_one(workers, cache_pairs)
            assert responses == base_responses
            assert recovery == base_recovery
            assert metrics == base_metrics

    def test_fault_plan_actually_fired_and_recovered(self):
        service = make_service(workers=1, fault_plan=self.FAULT)
        report = run_load(
            service, LoadgenConfig(requests=50, rate=10000.0, length=10, seed=11)
        )
        assert report.recovery is not None
        assert report.recovery["faults_seen"] > 0
        assert report.recovery["abandoned_pairs"] == []
        # recovery is invisible in the data: fault-free run, same answers
        clean = run_load(
            make_service(workers=1),
            LoadgenConfig(requests=50, rate=10000.0, length=10, seed=11),
        )
        strip = lambda rep: [
            (r.client, r.request_id, r.status, r.pairs) for r in rep.records
        ]
        assert strip(report) == strip(clean)


class TestBackpressure:
    def test_overload_raises_typed_error_and_accounts(self):
        service = make_service(max_queue_pairs=4, max_batch_pairs=64, max_wait_s=1.0)
        pair = ReadPair(pattern="ACGTACGT", text="ACGTACGA")
        accepted, overloaded = 0, 0
        for i in range(10):
            try:
                service.submit(
                    AlignRequest(client="c", request_id=f"r{i}", pairs=(pair,))
                )
                accepted += 1
            except Overloaded as exc:
                overloaded += 1
                assert exc.limit == 4
                assert exc.queued_pairs + 1 > 4
        assert accepted == 4 and overloaded == 6
        stats = service.stats
        assert stats.submitted == 10 and stats.rejected == 6
        service.drain()
        assert service.stats.completed == 4

    def test_loadgen_records_rejections(self):
        service = make_service(
            max_queue_pairs=2, max_batch_pairs=64, max_wait_s=10.0
        )
        report = run_load(
            service, LoadgenConfig(requests=20, rate=1e9, length=8, seed=2)
        )
        summary = validate_load_report(report.to_records())
        assert summary["rejected"] > 0
        assert summary["completed"] + summary["rejected"] == 20

    def test_queue_drains_as_modeled_time_passes(self):
        service = make_service(max_queue_pairs=8, max_batch_pairs=2, max_wait_s=1e-4)
        pair = ReadPair(pattern="ACGTACGT", text="ACGTACGA")
        for i in range(4):
            service.submit(
                AlignRequest(client="c", request_id=f"r{i}", pairs=(pair,))
            )
        assert service.queue_pairs > 0
        service.clock.advance(10.0)  # all modeled completions pass
        assert service.queue_pairs == 0


class TestEdgeCases:
    def test_empty_request_completes_immediately(self):
        service = make_service()
        future = service.submit(AlignRequest(client="c", request_id="r0", pairs=()))
        assert future.done()
        response = future.result()
        assert response.scores == () and response.cigars == ()
        assert response.latency_s == 0.0
        assert service.stats.completed == 1

    def test_drained_service_is_freed_without_the_cycle_collector(self):
        """Cancelled timers drop their callbacks: no service-clock cycle."""
        pair = ReadPair(pattern="ACGTACGT", text="ACGTACGA")
        gc.collect()
        gc.disable()
        try:
            service = make_service(max_wait_s=1.0, max_batch_pairs=64)
            for i in range(3):
                service.submit(
                    AlignRequest(client="c", request_id=f"r{i}", pairs=(pair,))
                )
            service.drain()
            ref = weakref.ref(service)
            del service
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_metrics_cover_the_request_path(self):
        service = make_service(cache_pairs=8, max_batch_pairs=2)
        pair = ReadPair(pattern="ACGTACGT", text="ACGTACGA")
        for i in range(4):
            service.submit(
                AlignRequest(client="c", request_id=f"r{i}", pairs=(pair,))
            )
        service.drain()
        snap = service.metrics_snapshot()
        flat = json.dumps(snap)
        for name in (
            "serve_requests_total",
            "serve_pairs_total",
            "serve_queue_pairs",
            "serve_batches_total",
            "serve_batch_pairs",
            "serve_request_latency_seconds",
            "serve_cache_lookups_total",
        ):
            assert name in flat, f"missing metric family {name}"


class TestFleetSoak:
    """1000-request soak through a 4-shard fleet with a gutted shard.

    The injected fault plan kills 3 of shard 0's 4 DPUs (global fault
    domain), so the per-shard circuit breakers quarantine shard 0 and
    the coordinator rebalances batches onto shards 1-3.  The pin: the
    schema-valid load report is bit-identical across two runs, no
    request is lost or abandoned, the rebalance shows up in the
    federated event log — and sharding plus recovery stay invisible in
    the actual alignments.
    """

    FAULT = FaultPlan(
        seed=3,
        deaths=(DpuDeath(dpu_id=0), DpuDeath(dpu_id=1), DpuDeath(dpu_id=2)),
    )

    def make_fleet_service(self, shards=4, fault_plan=None):
        from repro.pim.health import HealthPolicy

        # small batches: the soak must span many dispatches so the
        # quarantine edge (and its rebalance event) happens mid-stream
        config = ServiceConfig(
            max_batch_pairs=8, max_wait_s=1e-3, max_queue_pairs=4096
        )
        return build_service(
            num_dpus=4,
            tasklets=2,
            max_read_len=16,
            max_edits=3,
            config=config,
            fault_plan=fault_plan,
            health_policy=HealthPolicy(),
            shards=shards,
        )

    def test_1000_request_soak_bit_identical_with_rebalance(self):
        from repro.obs.events import validate_event_log

        config = LoadgenConfig(
            requests=1000, rate=20000.0, length=10, seed=13, clients=5
        )
        reports, fleets = [], []
        for _ in range(2):
            service = self.make_fleet_service(fault_plan=self.FAULT)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedCapacity)
                reports.append(run_load(service, config))
            fleets.append(service.dispatcher.fleet)

        # bit-identical across runs, schema-valid, nothing lost
        assert reports[0].to_jsonl() == reports[1].to_jsonl()
        summary = validate_load_report(reports[0].to_records())
        assert summary["completed"] == 1000
        assert reports[0].recovery is not None
        assert reports[0].recovery["abandoned_pairs"] == []

        # the dying shard surfaced as a rebalance in the event log
        records = fleets[0].event_records()
        validate_event_log(records)
        kinds = {r["kind"] for r in records[1:]}
        assert "rebalance" in kinds, f"no rebalance event among {sorted(kinds)}"
        rebalance = [r for r in records[1:] if r["kind"] == "rebalance"]
        assert any(r["attrs"]["excluded"] == "0" for r in rebalance)
        assert fleets[0].available_shards(reports[0].records[-1].completion_s) == (
            1,
            2,
            3,
        )

    def test_sharding_and_recovery_invisible_in_alignments(self):
        """Same trace through shards=4-with-faults and an unsharded
        fault-free service: every response byte-identical."""
        config = LoadgenConfig(requests=64, rate=20000.0, length=10, seed=13)
        trace = build_trace(config)

        def answers(service):
            futures = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedCapacity)
                for when, request in trace:
                    service.clock.advance_to(when)
                    futures.append(service.submit(request))
                service.drain()
            return [
                (f.result().request_id, f.result().scores, f.result().cigars)
                for f in futures
            ]

        fleet_service = self.make_fleet_service(fault_plan=self.FAULT)
        plain = self.make_fleet_service(shards=1)
        assert answers(fleet_service) == answers(plain)


class TestEngineDefault:
    """The vector engine is the serve default; scalar stays as the
    escape hatch, and the two replay byte-identically."""

    def test_build_service_defaults_to_vector(self):
        service = make_service()
        kernel = service.dispatcher.scheduler.system.kernel_config
        assert kernel.engine == "vector"
        escape = make_service(engine="scalar")
        kernel = escape.dispatcher.scheduler.system.kernel_config
        assert kernel.engine == "scalar"

    def test_replay_byte_identical_across_engines(self):
        from repro.serve.clock import VirtualClock

        def replay(engine):
            service = build_service(
                num_dpus=4,
                tasklets=4,
                max_read_len=16,
                clock=VirtualClock(),
                engine=engine,
            )
            config = LoadgenConfig(requests=80, rate=2000, length=12, seed=9)
            return run_load(service, config).to_jsonl()

        assert replay("scalar") == replay("vector")

    def test_cli_defaults_to_vector_with_scalar_escape_hatch(self):
        from repro.cli import build_parser

        parser = build_parser()
        serve = parser.parse_args(["serve"])
        assert serve.engine == "vector"
        pim = parser.parse_args(["pim-align", "-i", "reads.jsonl"])
        assert pim.engine == "vector"
        escape = parser.parse_args(["serve", "--engine", "scalar"])
        assert escape.engine == "scalar"
