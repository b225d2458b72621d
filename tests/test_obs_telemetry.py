"""Tests for RunTelemetry: model-timeline layout, reconciliation, and
the parallel ≡ sequential guarantee for the whole telemetry surface."""

import json

import pytest

from repro.core.penalties import AffinePenalties
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPairGenerator
from repro.errors import TelemetryError
from repro.obs import RunTelemetry, to_chrome_trace
from repro.obs.telemetry import SECTIONS
from repro.pim.config import PimSystemConfig
from repro.pim.fleet import FleetCoordinator
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem

PEN = AffinePenalties(4, 6, 2)


def make_system(workers=1, num_dpus=4, telemetry=None, engine="scalar"):
    cfg = PimSystemConfig(
        num_dpus=num_dpus,
        num_ranks=1,
        tasklets=2,
        num_simulated_dpus=num_dpus,
        workers=workers,
    )
    kc = KernelConfig(
        penalties=PEN, max_read_len=50, max_edits=2, engine=engine
    )
    return PimSystem(cfg, kc, telemetry=telemetry)


def aligned_telemetry(workers=1, pairs=10, seed=1, engine="scalar"):
    tel = RunTelemetry()
    system = make_system(workers=workers, telemetry=tel, engine=engine)
    batch = ReadPairGenerator(length=50, error_rate=0.04, seed=seed).pairs(pairs)
    run = system.align(batch)
    return tel, run


class TestTimelineLayout:
    def test_sections_tile_the_run(self):
        tel, run = aligned_telemetry()
        prof = tel.profiler
        starts = {}
        for name in SECTIONS:
            (rec,) = prof.spans(name, run=0)
            starts[name] = (rec.model_start, rec.model_seconds)
        t = 0.0
        for name in SECTIONS:
            assert starts[name][0] == pytest.approx(t)
            t += starts[name][1]
        assert t == pytest.approx(run.total_seconds)

    def test_dpu_kernel_children_under_kernel(self):
        tel, run = aligned_telemetry()
        prof = tel.profiler
        (kernel,) = prof.spans("kernel", run=0)
        kids = prof.children(kernel.span_id)
        assert [k.name for k in kids] == ["dpu_kernel"] * 4
        assert {k.labels["dpu"] for k in kids} == {"0", "1", "2", "3"}
        # the kernel section is the max of its children (bottleneck DPU)
        assert kernel.model_seconds == pytest.approx(
            max(k.model_seconds for k in kids)
        )

    def test_runs_stack_serially(self):
        tel = RunTelemetry()
        system = make_system(telemetry=tel)
        gen = ReadPairGenerator(length=50, error_rate=0.04, seed=2)
        first = system.align(gen.pairs(8))
        system.align(gen.pairs(8))
        (second,) = tel.profiler.spans("run", run=1)
        assert second.model_start == pytest.approx(first.total_seconds)
        assert tel.model_seconds_total == pytest.approx(
            sum(s.result.total_seconds for s in tel.segments)
        )

    def test_segment_keeps_merged_trace(self):
        tel, _run = aligned_telemetry()
        (seg,) = tel.segments
        assert seg.trace.dpus_traced() == [0, 1, 2, 3]
        assert seg.seconds_per_cycle > 0


class TestMetrics:
    def test_run_counters(self):
        tel, run = aligned_telemetry(pairs=10)
        reg = tel.registry
        assert reg.get("pim_runs_total").value(kind="align") == 1
        assert reg.get("pim_pairs_total").value(kind="align") == 10
        assert reg.get("pim_model_bytes_total").value(direction="to_dpu") == run.bytes_in

    def test_worker_metrics_absorbed(self):
        tel, run = aligned_telemetry(pairs=10)
        reg = tel.registry
        per_dpu = reg.get("pim_dpu_pairs_total")
        assert per_dpu is not None
        assert sum(
            per_dpu.value(dpu=str(d)) for d in range(4)
        ) == run.pairs_simulated
        transfer = reg.get("pim_transfer_bytes_total")
        assert transfer.value(direction="to_dpu") == run.bytes_in

    def test_section_seconds_match_model(self):
        tel, run = aligned_telemetry()
        fam = tel.registry.get("pim_model_seconds_total")
        assert fam.value(section="kernel") == pytest.approx(run.kernel_seconds)
        assert fam.value(section="launch") == pytest.approx(run.launch_seconds)


class TestReconcile:
    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_reconciles_for_any_worker_count(self, workers):
        tel, _run = aligned_telemetry(workers=workers)
        summary = tel.reconcile()
        assert summary["runs"] == 1
        assert summary["model_seconds"] == pytest.approx(tel.model_seconds_total)

    def test_model_run_reconciles(self):
        tel = RunTelemetry()
        system = make_system(num_dpus=8, telemetry=tel)
        system.model_run(
            DatasetSpec(num_pairs=64, length=50, error_rate=0.04, seed=5),
            sample_pairs_per_dpu=4,
        )
        assert tel.reconcile()["runs"] == 1

    def test_scheduler_rounds_reconcile(self):
        tel = RunTelemetry()
        system = make_system()
        fleet = FleetCoordinator(system.config, system.kernel_config, telemetry=tel)
        pairs = ReadPairGenerator(length=50, error_rate=0.02, seed=8).pairs(18)
        fleet.run(pairs, pairs_per_round=8)
        assert tel.reconcile()["runs"] == 3
        assert tel.registry.get("pim_scheduler_rounds_total").value() == 3
        assert len(tel.profiler.spans("scheduler_round")) == 3

    def test_drift_raises(self):
        tel, _run = aligned_telemetry()
        (rec,) = tel.profiler.spans("launch", run=0)
        rec.model_seconds += 1e-3  # tamper with one section span
        with pytest.raises(TelemetryError, match="reconciliation failed"):
            tel.reconcile()


class TestParallelEquivalence:
    """workers>1 must yield byte-identical telemetry to workers=1."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_registry_and_trace_identical(self, workers):
        seq, _ = aligned_telemetry(workers=1, pairs=14, seed=7)
        par, _ = aligned_telemetry(workers=workers, pairs=14, seed=7)
        assert seq.registry.render_prometheus() == par.registry.render_prometheus()
        assert seq.registry.snapshot() == par.registry.snapshot()
        assert seq.segments[0].trace.events == par.segments[0].trace.events

    def test_chrome_trace_identical(self):
        seq, _ = aligned_telemetry(workers=1, pairs=12, seed=9)
        par, _ = aligned_telemetry(workers=3, pairs=12, seed=9)
        assert json.dumps(to_chrome_trace(seq), sort_keys=True) == json.dumps(
            to_chrome_trace(par), sort_keys=True
        )

    def test_model_spans_identical(self):
        seq, _ = aligned_telemetry(workers=1, pairs=12, seed=9)
        par, _ = aligned_telemetry(workers=2, pairs=12, seed=9)

        def model_view(tel):
            return [
                (r.name, r.labels, r.model_start, r.model_seconds)
                for r in tel.profiler.records
                if r.model_seconds is not None
            ]

        assert model_view(seq) == model_view(par)


class TestDocuments:
    def test_run_rows_shape(self):
        tel, run = aligned_telemetry()
        (row,) = tel.run_rows()
        assert row["type"] == "run"
        assert row["kind"] == "align"
        assert row["total_seconds"] == run.total_seconds
        assert row["trace_events"] == len(tel.segments[0].trace.events)

    def test_metrics_document_json_serializable(self):
        tel, _run = aligned_telemetry()
        doc = tel.metrics_document()
        assert doc["schema"] == "repro.obs/v1"
        json.dumps(doc)  # must not raise


class TestVectorEngineEquivalence:
    """The vector engine default must not perturb the telemetry surface:
    scalar and vector runs produce byte-identical modeled telemetry, at
    every worker count."""

    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_vector_matches_scalar_telemetry(self, workers):
        scalar, _ = aligned_telemetry(
            workers=workers, pairs=14, seed=7, engine="scalar"
        )
        vector, _ = aligned_telemetry(
            workers=workers, pairs=14, seed=7, engine="vector"
        )
        assert (
            scalar.registry.render_prometheus()
            == vector.registry.render_prometheus()
        )
        assert scalar.registry.snapshot() == vector.registry.snapshot()
        assert (
            scalar.segments[0].trace.events == vector.segments[0].trace.events
        )
        assert json.dumps(
            to_chrome_trace(scalar), sort_keys=True
        ) == json.dumps(to_chrome_trace(vector), sort_keys=True)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_vector_engine_parallel_equivalence(self, workers):
        base, _ = aligned_telemetry(
            workers=0, pairs=14, seed=7, engine="vector"
        )
        par, _ = aligned_telemetry(
            workers=workers, pairs=14, seed=7, engine="vector"
        )
        assert (
            base.registry.render_prometheus()
            == par.registry.render_prometheus()
        )
        assert base.registry.snapshot() == par.registry.snapshot()
        assert json.dumps(to_chrome_trace(base), sort_keys=True) == json.dumps(
            to_chrome_trace(par), sort_keys=True
        )
