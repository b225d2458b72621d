"""CPU fallback under degraded fleet health (repro.serve.resilience)."""

from __future__ import annotations

import warnings

import pytest

from repro.baselines.gotoh import gotoh_align
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import ConfigError, DegradedCapacity
from repro.pim.faults import DpuDeath, FaultPlan, RetryPolicy
from repro.pim.health import HealthPolicy
from repro.serve import (
    BACKEND_CPU,
    BACKEND_PIM,
    AlignRequest,
    CpuFallbackBackend,
    FallbackPolicy,
    LoadgenConfig,
    ServiceConfig,
    build_service,
    run_load,
    validate_load_report,
)
from repro.serve.clock import VirtualClock


def pairs(n: int, seed: int = 3):
    return tuple(ReadPairGenerator(length=12, error_rate=0.1, seed=seed).pairs(n))


def request(rid: str, n: int = 1, seed: int = 3) -> AlignRequest:
    return AlignRequest(client="c", request_id=rid, pairs=pairs(n, seed))


def make_service(**kw):
    clock = VirtualClock()
    cfg = ServiceConfig(
        max_batch_pairs=kw.pop("max_batch_pairs", 8),
        cache_pairs=kw.pop("cache_pairs", 0),
    )
    service = build_service(
        num_dpus=2,
        tasklets=2,
        max_read_len=16,
        max_edits=3,
        config=cfg,
        clock=clock,
        **kw,
    )
    return service, clock


def series(service, name: str) -> list:
    for family in service.metrics_snapshot()["families"]:
        if family["name"] == name:
            return family["series"]
    return []


def total(service, name: str, **labels) -> float:
    out = 0.0
    for s in series(service, name):
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            out += s["value"]
    return out


class TestFallbackPolicy:
    def test_defaults_validate(self):
        FallbackPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_healthy_fraction": -0.1},
            {"min_healthy_fraction": 1.5},
            {"baseline": "smith-waterman"},
            {"cpu_pairs_per_s": 0.0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FallbackPolicy(**kwargs)


def degraded_service(**kw):
    """One of two DPUs permanently dead + aggressive breaker: healthy
    fraction drops to 0.5, below the 0.9 threshold -> CPU fallback."""
    return make_service(
        fault_plan=FaultPlan(deaths=(DpuDeath(dpu_id=1),)),
        retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=1e-4),
        health_policy=HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9),
        fallback=FallbackPolicy(min_healthy_fraction=0.9),
        **kw,
    )


class TestCpuFallback:
    def test_fallback_results_oracle_equal_to_pim(self):
        """Acceptance pin: degraded batches flagged cpu-fallback carry
        exactly the scores/CIGARs a healthy PIM fleet would produce."""
        healthy_service, _ = make_service(max_batch_pairs=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            degraded, _ = degraded_service(max_batch_pairs=4)
            reference = healthy_service.submit(request("ref", n=4)).result()
            # warm the ledger until the breaker opens, then the probe
            futures = [
                degraded.submit(request(f"r{i}", n=4, seed=3)) for i in range(4)
            ]
            degraded.drain()
        responses = [f.result() for f in futures]
        assert any(r.backend == BACKEND_CPU for r in responses)
        from repro.core.cigar import Cigar
        from repro.core.penalties import AffinePenalties

        penalties = AffinePenalties()
        batch = pairs(4, seed=3)
        for resp in responses:
            # same optimal score, and a CIGAR that validates and
            # rescores to it — the qa.oracle notion of equality (WFA
            # and Gotoh may pick different co-optimal tracebacks)
            assert resp.scores == reference.scores
            for pair, score, cigar in zip(batch, resp.scores, resp.cigars):
                parsed = Cigar.from_string(cigar)
                parsed.validate(pair.pattern, pair.text)
                assert parsed.score(penalties) == score
        fallback_pairs = total(degraded, "serve_fallback_pairs_total")
        assert fallback_pairs == sum(
            r.num_pairs for r in responses if r.backend == BACKEND_CPU
        )

    def test_healthy_fleet_never_falls_back(self):
        service, _ = make_service(
            max_batch_pairs=4,
            health_policy=HealthPolicy(),
            fallback=FallbackPolicy(min_healthy_fraction=0.9),
        )
        future = service.submit(request("r0", n=4))
        service.drain()
        assert future.result().backend == BACKEND_PIM
        assert total(service, "serve_fallback_pairs_total") == 0

    def test_backend_attribution_cache(self):
        service, _ = make_service(max_batch_pairs=1, cache_pairs=16)
        first = service.submit(request("r0")).result()
        assert first.backend == BACKEND_PIM
        again = service.submit(request("r1"))
        service.drain()
        assert again.result().backend == "cache"

    def test_cpu_backend_matches_gotoh_directly(self):
        from repro.core.penalties import AffinePenalties
        from repro.pim.kernel import KernelConfig

        kc = KernelConfig(
            penalties=AffinePenalties(), max_read_len=16, max_edits=3
        )
        backend = CpuFallbackBackend(kc, FallbackPolicy(cpu_pairs_per_s=100.0))
        batch = list(pairs(5))
        results, seconds = backend.align_batch(batch)
        assert seconds == pytest.approx(0.05)
        for pair, (score, cigar, start) in zip(batch, results):
            ref_score, ref_cigar = gotoh_align(pair.pattern, pair.text, kc.penalties)
            assert score == ref_score
            assert str(cigar) == str(ref_cigar)
            assert start == (0, 0)
        assert backend.pairs_served == 5 and backend.batches_served == 1

    def test_bitparallel_baseline_scores_only(self):
        from repro.core.penalties import EditPenalties
        from repro.pim.kernel import KernelConfig

        kc = KernelConfig(penalties=EditPenalties(), max_read_len=16, max_edits=3)
        backend = CpuFallbackBackend(
            kc, FallbackPolicy(baseline="bitparallel")
        )
        results, _ = backend.align_batch([ReadPair("ACGT", "AGGT")])
        (score, cigar, _), = results
        assert score == 1 and cigar is None


class TestDegradedLoadReport:
    def test_report_schema_valid_under_degradation(self, tmp_path):
        """Acceptance pin: repro.serve.load/v1 reports stay schema-valid
        while the fleet is degraded and batches ride the CPU path."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedCapacity)
            service, _ = degraded_service(max_batch_pairs=8)
            report = run_load(
                service,
                LoadgenConfig(requests=60, rate=5000.0, length=10, seed=4),
            )
        out = tmp_path / "load.jsonl"
        report.write(out)
        summary = validate_load_report(out)
        assert summary["requests"] == 60
        assert total(service, "serve_fallback_pairs_total") > 0
