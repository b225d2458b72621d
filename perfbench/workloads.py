"""The benchmark's workloads: seeded inputs, timed runs, modeled passes, checks.

Every workload runs in one process with no process pool (``workers=1``)
and returns a :class:`Result`.  Host timings are taken around calls
into the program only; each sample is paired with the reference loop
run right after it (:class:`HostSamples`).  The modeled passes and the
correctness checks run outside the timed region.

* ``paper_batch`` — 100 bp pairs through ``PimSystem.align``; each
  sample aligns one E=2% and one E=4% batch.  Modeled metrics come from
  one ``run_fig1()`` pass at the paper's operating point.
* ``long_reads`` — 1000 bp pairs at E=2% in small batches on the same
  path; modeled metrics from a paper-scale ``model_run``.
* ``serve_fleet`` — an open-loop request trace through ``build_service``
  (4 shards, cache on, lossy links, one dead DPU under a health policy)
  on the virtual clock, at a fixed rate below saturation.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

import repro.core.wfa_batch as wfa_batch_module
import repro.experiments.fig1 as fig1_module
import repro.pim.kernel as kernel_module
import repro.pim.parallel as parallel_module
import repro.serve.service as service_module
from repro.core.backtrace import backtrace
from repro.core.penalties import AffinePenalties
from repro.core.wfa import WfaEngine
from repro.cpu.model import CpuModel
from repro.cpu.runner import CpuRunner
from repro.data.datasets import DatasetSpec
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import CigarError, DegradedCapacity, Overloaded, ServeError
from repro.perf.calibration import PAPER_TARGETS
from repro.pim.allocator import BumpAllocator, TaskletAllocator
from repro.pim.config import DpuConfig, PimSystemConfig, upmem_paper_system
from repro.pim.dma import DmaEngine
from repro.pim.faults import DpuDeath, FaultPlan
from repro.pim.fleet import FleetCoordinator
from repro.pim.health import HealthPolicy
from repro.pim.kernel import KernelConfig, WfaDpuKernel, max_supported_tasklets
from repro.pim.memory import Mram, SimMemory
from repro.pim.scheduler import BatchScheduler
from repro.pim.system import PimRunResult, PimSystem
from repro.pim.transfer import HostTransferEngine
from repro.pim.transport import LinkDrop, LinkDuplicate, NetworkFaultPlan, ShardTransport
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache
from repro.serve.clock import VirtualClock
from repro.serve.dispatcher import BatchDispatcher
from repro.serve.resilience import FallbackPolicy
from repro.serve.service import AlignmentService, AlignRequest, ServiceConfig, build_service

from refloop import reference_seconds
from tracer import Tracer

T = TypeVar("T")
PENALTIES = AffinePenalties()
BASES = "ACGT"
#: set-up is repeated this many times per run; ``setup_s`` takes the median
SETUP_REPEATS = 3
#: timed samples at least, so every batch workload passes its input pool twice
MIN_SAMPLES = 8
#: the benchmark's small PIM system for host-timed batches
HOST_DPUS = 16
#: layers whose self time is the simulator's per-pair bookkeeping replay
REPLAY_LAYERS = ("pim.dma", "pim.memory", "pim.allocator", "pim.kernel")


@dataclass
class Result:
    """What one workload run reports."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: one line per failed check, printed to stderr
    problems: list[str] = field(default_factory=list)
    #: tracer of the traced phase (trace mode only)
    tracer: Optional[Tracer] = None

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


# -- inputs -------------------------------------------------------------------


def make_pair(rng: random.Random, length: int, edits: int) -> ReadPair:
    """A random read and a copy carrying exactly ``edits`` random edits."""
    pattern = "".join(rng.choices(BASES, k=length))
    text = list(pattern)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0:
            pos = rng.randrange(len(text))
            text[pos] = rng.choice(BASES.replace(text[pos], ""))
        elif op == 1:
            text.insert(rng.randrange(len(text) + 1), rng.choice(BASES))
        else:
            del text[rng.randrange(len(text))]
    return ReadPair(pattern=pattern, text="".join(text), requested_errors=edits)


# -- host timing ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class HostSamples:
    """Host timing samples, each paired with the reference loop beside it.

    A sample's calibrated time is its wall time divided by the mean of
    the reference runs just before and just after it, times the nominal
    reference time: the time the sample would take on a host whose
    reference loop takes exactly the nominal time.
    """

    def __init__(self, nominal_ref_s: float) -> None:
        self.nominal_ref_s = nominal_ref_s
        self.refs = [reference_seconds()]
        self.seconds: list[float] = []
        self.pairs: list[int] = []

    def add(self, seconds: float, pairs: int) -> None:
        self.seconds.append(seconds)
        self.pairs.append(pairs)
        self.refs.append(reference_seconds())

    def calibrated(self) -> list[float]:
        return [
            s / ((self.refs[i] + self.refs[i + 1]) / 2) * self.nominal_ref_s
            for i, s in enumerate(self.seconds)
        ]

    def pairs_per_s(self) -> float:
        return statistics.median(p / c for p, c in zip(self.pairs, self.calibrated()))

    def raw_pairs_per_s(self) -> float:
        return statistics.median(p / s for p, s in zip(self.pairs, self.seconds))

    def scale(self) -> float:
        """Factor from this host's seconds to nominal-host seconds."""
        return self.nominal_ref_s / statistics.median(self.refs)

    def total_pairs(self) -> int:
        return sum(self.pairs)


def timed_loop(
    samples: HostSamples, seconds: float, min_samples: int, step: Callable[[int], tuple]
) -> None:
    """Call ``step(i)`` until ``seconds`` passed and ``min_samples`` ran.

    ``step`` returns ``(host seconds of its program calls, pairs)``.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_samples or time.perf_counter() < deadline:
        samples.add(*step(i))
        i += 1


def timed_setup(setup: Callable[[], T], nominal_ref_s: float) -> tuple[T, float]:
    """Run ``setup`` SETUP_REPEATS times beside the reference loop.

    Returns the last set-up's value and the median set-up time in
    calibrated seconds (scaled by the median reference run around them).
    """
    refs = [reference_seconds()]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        value = setup()
        times.append(time.perf_counter() - start)
        refs.append(reference_seconds())
    return value, statistics.median(times) * nominal_ref_s / statistics.median(refs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing ------------------------------------------------------------------------


@dataclass
class Observed:
    """Values the traced run reads off call arguments and results."""

    engine_pairs: int = 0
    kernel_pairs: int = 0
    sends: int = 0
    first_try: int = 0
    wire_s: float = 0.0
    batch_waits: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    queue_s: list[float] = field(default_factory=list)
    service_s: list[float] = field(default_factory=list)


def install_layers(tracer: Tracer, seen: Observed) -> None:
    """Patch every layer's public entry points the host-timed work calls."""

    def engine_run(args, kwargs, views):
        seen.engine_pairs += len(views)

    def kernel_run(args, kwargs, result):
        seen.kernel_pairs += sum(s.pairs_done for s in result[0])

    def deliver(args, kwargs, delivery):
        seen.sends += 1
        if delivery.ok:
            seen.first_try += delivery.attempts == 1
            seen.wire_s += delivery.arrive_s - args[4]

    def batches(args, kwargs, formed):
        for batch in formed:
            seen.batch_waits.append(batch.wait_s)
            seen.batch_sizes.append(batch.num_pairs)

    def dispatched(args, kwargs, outcome):
        seen.queue_s.append(outcome.queue_delay_s)
        seen.service_s.append(outcome.service_seconds)

    patch = tracer.patch
    patch(wfa_batch_module.BatchWfaEngine, "run", "core.wfa_batch", observe=engine_run)
    patch(kernel_module, "backtrace", "core.backtrace")
    # scalar re-runs inside the kernel: count them on a subclass the
    # kernel looks up, so oracle checks outside the kernel stay uncounted
    scalar = type("WfaEngine", (WfaEngine,), {})
    tracer.replace(kernel_module, "WfaEngine", scalar)
    patch(scalar, "run", "core.wfa")
    patch(WfaDpuKernel, "run", "pim.kernel", observe=kernel_run)
    for name in ("read", "write", "read_large", "write_large"):
        patch(DmaEngine, name, "pim.dma", span=False)
    for name in ("read", "write"):
        patch(SimMemory, name, "pim.memory", span=False)
    for name in ("host_read", "host_write"):
        patch(Mram, name, "pim.memory", span=False)
    for name in ("alloc_buffer", "alloc_metadata", "reset_metadata", "wram_mark", "wram_release"):
        patch(TaskletAllocator, name, "pim.allocator", span=False)
    for name in ("alloc", "reset"):
        patch(BumpAllocator, name, "pim.allocator", span=False)
    patch(HostTransferEngine, "push_batch", "pim.transfer")
    patch(HostTransferEngine, "pull_results_full", "pim.transfer")
    patch(parallel_module, "run_dpu_job", "pim.parallel")
    patch(PimSystem, "align", "pim.system")
    patch(BatchScheduler, "run", "pim.scheduler")
    patch(FleetCoordinator, "run", "pim.fleet")
    patch(ShardTransport, "deliver", "pim.transport", observe=deliver)
    patch(BatchDispatcher, "dispatch", "serve.dispatcher", observe=dispatched)
    for name in ("submit", "drain", "_on_deadline"):
        patch(AlignmentService, name, "serve.service")
    for name in ("add", "take_due", "drain"):
        patch(MicroBatcher, name, "serve.batcher", span=False, observe=batches)
    for name in ("get", "put"):
        patch(ResultCache, name, "serve.cache", span=False)
    patch(service_module, "result_key", "serve.cache", span=False)


def install_modeled_layers(tracer: Tracer) -> None:
    """Patch the layers the modeled passes run through."""
    patch = tracer.patch
    patch(DatasetSpec, "sample", "data")
    patch(ReadPairGenerator, "pairs", "data")
    patch(CpuRunner, "measure", "cpu")
    patch(CpuModel, "scaling_curve", "cpu")
    patch(fig1_module, "run_fig1", "experiments.fig1")
    patch(PimSystem, "model_run", "pim.system")


def layer_metrics(
    tracer: Tracer, samples: HostSamples, seen: Observed, traced_s: float
) -> dict[str, float]:
    """Per-layer host metrics of a traced phase, per 1000 pairs."""
    kpairs = samples.total_pairs() / 1000.0
    scale = samples.scale()
    out: dict[str, float] = {}
    for layer in (
        "core.wfa_batch", "core.backtrace", "pim.kernel", "pim.dma", "pim.memory",
        "pim.allocator", "pim.transfer", "pim.parallel", "pim.system", "pim.scheduler",
        "pim.fleet", "pim.transport", "serve.service", "serve.batcher", "serve.cache",
        "serve.dispatcher",
    ):
        out[f"{layer}.self_s"] = tracer.self_seconds(layer) * scale / kpairs
    for layer in ("pim.dma", "pim.memory", "pim.allocator"):
        out[f"{layer}.calls"] = tracer.calls(layer) / kpairs
    out["core.backtrace.calls"] = tracer.calls("core.backtrace") / kpairs
    out["core.wfa.calls"] = tracer.calls("core.wfa") / kpairs
    out["core.wfa_batch.pairs"] = seen.engine_pairs / kpairs
    out["pim.parallel.jobs"] = tracer.calls("pim.parallel") / kpairs
    if seen.kernel_pairs:
        out["pim.kernel.vector_hit_ratio"] = 1.0 - tracer.calls("core.wfa") / seen.kernel_pairs
    replay = sum(tracer.self_seconds(layer) for layer in REPLAY_LAYERS)
    out["bench.replay_share"] = replay / traced_s
    out["bench.engine_share"] = tracer.self_seconds("core.wfa_batch") / traced_s
    return out


def kernel_model_metrics(run: PimRunResult) -> dict[str, float]:
    """Modeled kernel and transfer figures of one (paper-scale) run."""
    stats = run.per_dpu
    pairs = sum(s.pairs_done for s in stats)
    seconds = sorted(s.seconds for s in stats)
    return {
        "pim.kernel.instructions_per_pair": sum(s.instructions for s in stats) / pairs,
        "pim.kernel.dma_bytes_per_pair": sum(s.dma_bytes for s in stats) / pairs,
        "pim.kernel.straggler_ratio": seconds[-1] / statistics.median(seconds),
        "pim.transfer.in_s": run.transfer_in_seconds,
        "pim.transfer.out_s": run.transfer_out_seconds,
        "pim.transfer.bytes_in": float(run.bytes_in),
        "pim.transfer.bytes_out": float(run.bytes_out),
        "pim.system.launch_s": run.launch_seconds,
    }


# -- correctness ------------------------------------------------------------------


def oracle(pair: ReadPair, max_score: int) -> tuple[int, str]:
    """Score and CIGAR from the scalar WFA engine, the repository's oracle."""
    engine = WfaEngine(pair.pattern, pair.text, PENALTIES, max_score=max_score)
    score = engine.run()
    return score, str(backtrace(engine))


def check_gathered(batch: list[ReadPair], run: PimRunResult, result: Result) -> None:
    """Every pair gathered once, its CIGAR valid and rescoring to its score."""
    indices = sorted(index for index, _, _ in run.results)
    if indices != list(range(len(batch))):
        result.fail(len(batch) - len(set(indices)), "gathered results do not cover the batch")
    for index, score, cigar in run.results:
        pair = batch[index]
        try:
            cigar.validate(pair.pattern, pair.text)
            ok = cigar.score(PENALTIES) == score
        except CigarError:
            ok = False
        if not ok:
            result.fail(1, f"pair {index}: CIGAR does not reproduce score {score}")


# -- batch workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class BatchShape:
    """Inputs and system of a host-timed batch workload."""

    length: int
    #: one batch per error rate in every sample
    error_rates: tuple[float, ...]
    batch_pairs: int
    max_edits: int
    #: distinct samples drawn from the seed; the timed loop cycles them
    pool_samples: int
    #: pairs per run checked against the scalar oracle
    oracle_pairs: int


PAPER_BATCH = BatchShape(
    length=100, error_rates=(0.02, 0.04), batch_pairs=256, max_edits=4,
    pool_samples=4, oracle_pairs=24,
)
LONG_READS = BatchShape(
    length=1000, error_rates=(0.02,), batch_pairs=32, max_edits=20,
    pool_samples=8, oracle_pairs=3,
)


def kernel_config(shape: BatchShape) -> KernelConfig:
    return KernelConfig(
        penalties=PENALTIES,
        max_read_len=shape.length,
        max_edits=shape.max_edits,
        engine="vector",
    )


def admitted_tasklets(config: KernelConfig) -> int:
    """Tasklets per DPU the WRAM plan admits, capped at the paper's 16."""
    return min(16, max_supported_tasklets(WfaDpuKernel(config), DpuConfig(), "mram"))


def batch_setup(shape: BatchShape, seed: int) -> tuple[PimSystem, list[list[list[ReadPair]]]]:
    """Inputs from the seed, the system, and one warm-up alignment."""
    rng = random.Random(seed)
    pool = [
        [
            [make_pair(rng, shape.length, round(e * shape.length)) for _ in range(shape.batch_pairs)]
            for e in shape.error_rates
        ]
        for _ in range(shape.pool_samples)
    ]
    config = kernel_config(shape)
    system = PimSystem(
        PimSystemConfig(
            num_dpus=HOST_DPUS,
            num_ranks=1,
            tasklets=admitted_tasklets(config),
            num_simulated_dpus=HOST_DPUS,
            workers=1,
        ),
        config,
    )
    system.align(pool[0][0][:HOST_DPUS])
    return system, pool


def run_batch(shape: BatchShape, seed: int, seconds: float, trace: bool, nominal_ref_s: float) -> Result:
    result = Result()
    (system, pool), result.metrics["setup_s"] = timed_setup(
        lambda: batch_setup(shape, seed), nominal_ref_s
    )
    first_pass: list[list[PimRunResult]] = []

    def step(i: int) -> tuple[float, int]:
        sample = pool[i % len(pool)]
        start = time.perf_counter()
        runs = [system.align(batch) for batch in sample]
        elapsed = time.perf_counter() - start
        for batch, run in zip(sample, runs):
            result.attempted += len(batch)
            check_gathered(batch, run, result)
        if len(first_pass) < len(pool):
            first_pass.append(runs)
        return elapsed, sum(len(batch) for batch in sample)

    untraced = HostSamples(nominal_ref_s)
    timed_loop(untraced, seconds / 2 if trace else seconds, MIN_SAMPLES, step)
    result.metrics["host_pairs_per_s"] = untraced.pairs_per_s()
    result.metrics["bench.host_pairs_per_s_raw"] = untraced.raw_pairs_per_s()
    result.metrics["bench.ref_spread"] = spread(untraced.refs)

    # modeled latency of one batch on the benchmark's PIM system
    batch_s = [run.total_seconds for runs in first_pass for run in runs]
    result.metrics["modeled_latency_p50_s"] = percentile(batch_s, 50)
    result.metrics["modeled_latency_p99_s"] = percentile(batch_s, 99)
    result.metrics["modeled_capacity_rps"] = len(batch_s) / sum(batch_s)

    # seeded sample against the scalar oracle
    rng = random.Random(seed + 1)
    max_score = system.kernel_config.max_score
    for _ in range(shape.oracle_pairs):
        s = rng.randrange(len(first_pass))
        b = rng.randrange(len(shape.error_rates))
        batch, run = pool[s][b], first_pass[s][b]
        index, score, cigar = run.results[rng.randrange(len(run.results))]
        if oracle(batch[index], max_score) != (score, str(cigar)):
            result.fail(1, f"sample {s} batch {b} pair {index}: differs from the scalar oracle")

    if trace:
        seen = Observed()
        traced = HostSamples(nominal_ref_s)
        with Tracer() as tracer:
            install_layers(tracer, seen)

            def traced_step(i: int) -> tuple[float, int]:
                tracer.context = f"sample-{i}"
                return step(i)

            timed_loop(traced, seconds / 2, MIN_SAMPLES, traced_step)
        result.tracer = tracer
        result.metrics.update(layer_metrics(tracer, traced, seen, sum(traced.seconds)))
        result.metrics["bench.trace_overhead"] = untraced.pairs_per_s() / traced.pairs_per_s()
    return result


def modeled_pass(trace: bool, result: Result, nominal_ref_s: float, run: Callable[[], T]) -> T:
    """Run a modeled-only pass, traced by layer in trace mode."""
    if not trace:
        return run()
    with Tracer() as tracer:
        install_modeled_layers(tracer)
        value = run()
    scale = nominal_ref_s / reference_seconds()
    for layer in ("data", "cpu", "experiments.fig1"):
        result.metrics[f"{layer}.self_s"] = tracer.self_seconds(layer) * scale
    return value


def paper_batch(seed: int, seconds: float, trace: bool, nominal_ref_s: float) -> Result:
    result = run_batch(PAPER_BATCH, seed, seconds, trace, nominal_ref_s)
    figure = modeled_pass(trace, result, nominal_ref_s, fig1_module.run_fig1)
    e2, e4 = figure.panel(0.02), figure.panel(0.04)
    m = result.metrics
    m["modeled_pairs_per_s"] = e2.pim.throughput()
    m["modeled_kernel_pairs_per_s"] = e2.pim.kernel_throughput()
    m["experiments.fig1.total_speedup_e2"] = e2.total_speedup
    m["experiments.fig1.total_speedup_e4"] = e4.total_speedup
    m["experiments.fig1.kernel_speedup_e2"] = e2.kernel_speedup
    m["experiments.fig1.kernel_speedup_e4"] = e4.kernel_speedup
    m["experiments.fig1.heldout_error"] = max(
        abs(e4.total_speedup / PAPER_TARGETS.total_speedup_e4 - 1),
        abs(e4.kernel_speedup / PAPER_TARGETS.kernel_speedup_e4 - 1),
    )
    m.update(kernel_model_metrics(e2.pim))
    return result


#: pairs of the paper-scale long-read model run
LONG_READ_MODEL_PAIRS = 5_000_000


def long_reads(seed: int, seconds: float, trace: bool, nominal_ref_s: float) -> Result:
    result = run_batch(LONG_READS, seed, seconds, trace, nominal_ref_s)
    config = kernel_config(LONG_READS)
    system = PimSystem(
        upmem_paper_system(tasklets=admitted_tasklets(config), num_simulated_dpus=2), config
    )
    spec = DatasetSpec(
        num_pairs=LONG_READ_MODEL_PAIRS, length=LONG_READS.length,
        error_rate=LONG_READS.error_rates[0], seed=0,
    )
    run = modeled_pass(
        trace, result, nominal_ref_s, lambda: system.model_run(spec, sample_pairs_per_dpu=1)
    )
    result.metrics["modeled_pairs_per_s"] = run.throughput()
    result.metrics["modeled_kernel_pairs_per_s"] = run.kernel_throughput()
    result.metrics.update(kernel_model_metrics(run))
    return result


# -- serve workload -------------------------------------------------------------------


@dataclass(frozen=True)
class ServeShape:
    """Service stack and request trace of ``serve_fleet``."""

    requests: int = 1600
    pairs_per_request: int = 4
    length: int = 100
    edits: int = 2
    #: chance that a pair repeats an earlier one (a cache hit once served)
    repeat_p: float = 0.5
    #: requests per host timing sample
    block_requests: int = 50
    shards: int = 4
    dpus_per_shard: int = 4
    tasklets: int = 16
    max_batch_pairs: int = 96
    max_wait_s: float = 0.02
    pairs_per_round: int = 24
    drop_p: float = 0.03
    duplicate_p: float = 0.05
    #: bisection steps of the capacity search over [lo, hi] x the fixed rate
    probe_steps: int = 6
    probe_lo: float = 1.0
    probe_hi: float = 2.0


SERVE = ServeShape()


def serve_trace(seed: int, rate: float) -> list[tuple[float, AlignRequest]]:
    """Open-loop trace: a request every ``1/rate`` s, pairs drawn from the seed.

    Each pair repeats an earlier pair of the trace with probability
    ``repeat_p`` and is fresh otherwise, so the share of cache hits — and
    with it the load on the device — stays the same along the trace.
    """
    shape = SERVE
    rng = random.Random(seed)
    drawn: list[ReadPair] = []
    trace = []
    for i in range(shape.requests):
        pairs = []
        for _ in range(shape.pairs_per_request):
            if drawn and rng.random() < shape.repeat_p:
                pairs.append(rng.choice(drawn))
            else:
                drawn.append(make_pair(rng, shape.length, shape.edits))
                pairs.append(drawn[-1])
        trace.append((i / rate, AlignRequest(client=f"c{i % 4}", request_id=f"r{i:05d}", pairs=tuple(pairs))))
    return trace


def dead_dpu(seed: int) -> int:
    return random.Random(seed + 7).randrange(SERVE.shards * SERVE.dpus_per_shard)


def make_service(seed: int) -> AlignmentService:
    shape = SERVE
    return build_service(
        num_dpus=shape.dpus_per_shard,
        tasklets=shape.tasklets,
        workers=1,
        max_read_len=shape.length,
        max_edits=2 * shape.edits,
        penalties=PENALTIES,
        config=ServiceConfig(
            max_batch_pairs=shape.max_batch_pairs,
            max_wait_s=shape.max_wait_s,
            max_queue_pairs=10**9,
            cache_pairs=10**9,
            pairs_per_round=shape.pairs_per_round,
        ),
        clock=VirtualClock(),
        fault_plan=FaultPlan(seed=seed, deaths=(DpuDeath(dpu_id=dead_dpu(seed)),)),
        health_policy=HealthPolicy(window=4, failure_threshold=2, cooldown_s=1e9),
        fallback=FallbackPolicy(min_healthy_fraction=0.5),
        engine="vector",
        shards=shape.shards,
        net_plan=NetworkFaultPlan(
            seed=seed,
            drops=tuple(LinkDrop(shard_id=s, p=shape.drop_p) for s in range(shape.shards)),
            duplicates=tuple(
                LinkDuplicate(shard_id=s, p=shape.duplicate_p) for s in range(shape.shards)
            ),
        ),
    )


@dataclass
class Replay:
    """Outcome of replaying one trace through a fresh service."""

    service: AlignmentService
    #: per request: the response, or None when it was rejected or failed
    responses: list
    degraded_warnings: int


def replay(
    seed: int,
    trace: list,
    samples: Optional[HostSamples] = None,
    tracer: Optional[Tracer] = None,
) -> Replay:
    """Submit every request at its scheduled time, then drain.

    With ``samples``, each block of requests is one host timing sample.
    """
    service = make_service(seed)
    clock = service.clock
    futures = []
    block = SERVE.block_requests if samples is not None else len(trace)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegradedCapacity)
        for first in range(0, len(trace), block):
            chunk = trace[first : first + block]
            last = first + block >= len(trace)
            start = time.perf_counter()
            for when, request in chunk:
                if tracer is not None:
                    tracer.context = request.request_id
                clock.advance_to(when)
                try:
                    futures.append(service.submit(request))
                except Overloaded:
                    futures.append(None)
            if last:
                service.drain()
            elapsed = time.perf_counter() - start
            if samples is not None:
                samples.add(elapsed, sum(r.num_pairs for _, r in chunk))
    responses = []
    for future in futures:
        try:
            responses.append(future.result() if future is not None else None)
        except ServeError:
            responses.append(None)
    degraded = sum(1 for w in caught if issubclass(w.category, DegradedCapacity))
    return Replay(service, responses, degraded)


def latency_summary(trace: list, outcome: Replay) -> dict[str, float]:
    """Modeled latency figures of one replay (from scheduled arrival)."""
    ok = [r for r in outcome.responses if r is not None]
    latencies = [r.completion_s - r.arrival_s for r in ok]
    quarter = len(latencies) // 4
    growth = 0.0
    if quarter:
        growth = statistics.median(latencies[-quarter:]) - statistics.median(latencies[quarter : 2 * quarter])
    makespan = max(r.completion_s for r in ok) - trace[0][0]
    return {
        "rejected": float(len(outcome.responses) - len(ok)),
        "p50": percentile(latencies, 50) if ok else float("inf"),
        "p99": percentile(latencies, 99) if ok else float("inf"),
        "growth": growth,
        "pairs_per_s": sum(r.num_pairs for r in ok) / makespan,
    }


def feasible(summary: dict[str, float], limit_s: float) -> bool:
    """Below the latency limit, with nothing rejected and no growing backlog."""
    return (
        summary["rejected"] == 0
        and summary["p99"] <= limit_s
        and summary["growth"] <= 0.1 * limit_s
    )


def capacity(seed: int, rate: float, limit_s: float) -> float:
    """Highest rate that stays feasible: geometric bisection on the modeled clock."""
    lo, hi = SERVE.probe_lo * rate, SERVE.probe_hi * rate
    for _ in range(SERVE.probe_steps):
        mid = (lo * hi) ** 0.5
        probe = serve_trace(seed, mid)
        if feasible(latency_summary(probe, replay(seed, probe)), limit_s):
            lo = mid
        else:
            hi = mid
    return (lo * hi) ** 0.5


def response_key(response) -> tuple:
    return (response.scores, response.cigars, response.completion_s)


def check_serve(seed: int, trace: list, outcome: Replay, result: Result) -> None:
    """Every response against a direct alignment of its pairs; faults really hit."""
    distinct = {}
    for _, request in trace:
        for pair in request.pairs:
            distinct.setdefault((pair.pattern, pair.text), pair)
    keys = list(distinct)
    expected = {}
    for first in range(0, len(keys), 256):
        chunk = keys[first : first + 256]
        for key, aligned in zip(chunk, wfa_batch_module.align_batch(chunk, PENALTIES)):
            expected[key] = (aligned.score, str(aligned.cigar))
    rng = random.Random(seed + 1)
    max_score = outcome.service.dispatcher.scheduler.system.kernel_config.max_score
    for key in rng.sample(keys, min(16, len(keys))):
        if oracle(distinct[key], max_score) != expected[key]:
            result.fail(1, f"direct alignment of {key[0][:12]}... differs from the scalar oracle")
    for (_, request), response in zip(trace, outcome.responses):
        result.attempted += 1
        if response is None:
            result.fail(1, f"request {request.request_id} rejected or failed")
            continue
        got = list(zip(response.scores, response.cigars))
        want = [expected[(p.pattern, p.text)] for p in request.pairs]
        if got != want:
            result.fail(1, f"request {request.request_id}: response differs from direct alignment")
    service = outcome.service
    if service.registry.counter("pim_net_drops_total").value() < 1:
        result.fail(1, "no link drop happened; the fault plan did not bite")
    dead = dead_dpu(seed)
    health = service.dispatcher.fleet.shard_healths[dead // SERVE.dpus_per_shard]
    if dead % SERVE.dpus_per_shard not in health.quarantined(service.dispatcher.device_free_at):
        result.fail(1, f"dead DPU {dead} was not quarantined")


def serve_counts(outcome: Replay) -> dict[str, float]:
    """Modeled per-layer counts of one untraced replay."""
    service = outcome.service
    fleet = service.dispatcher.fleet
    registry = service.registry
    now = service.dispatcher.device_free_at
    rounds = [
        tel.registry.counter("pim_scheduler_rounds_total").value() for tel in fleet.shard_telemetries
    ]
    shard_regs = [tel.registry for tel in fleet.shard_telemetries]

    def shard_sum(name: str, **labels) -> float:
        return sum(reg.counter(name).value(**labels) for reg in shard_regs)

    recovery = service.dispatcher.recovery
    cache = service.cache.stats
    kernel_s = shard_sum("pim_model_seconds_total", section="kernel")
    pim_pairs = shard_sum("pim_pairs_total", kind="align")
    return {
        "pim.scheduler.rounds": sum(rounds),
        "pim.fleet.shard_runs": float(sum(1 for r in rounds if r)),
        "pim.fleet.shard_imbalance": max(rounds) / statistics.mean(rounds),
        "pim.transport.deliveries": registry.counter("pim_net_envelopes_total").value(direction="work")
        + registry.counter("pim_net_envelopes_total").value(direction="result"),
        "pim.transport.drops": registry.counter("pim_net_drops_total").value(),
        "pim.transport.redeliveries": registry.counter("pim_net_redeliveries_total").value(),
        "pim.transport.duplicates_absorbed": registry.counter("pim_net_duplicates_absorbed_total").value(),
        "pim.transport.steals": registry.counter("pim_net_steals_total").value(),
        "pim.faults.reruns": float(len(recovery.rerun_pairs)) if recovery else 0.0,
        "pim.faults.abandoned_pairs": float(len(recovery.abandoned_pairs)) if recovery else 0.0,
        "pim.faults.recovery_s": recovery.overhead_seconds if recovery else 0.0,
        "pim.health.quarantined_dpus": float(
            sum(len(h.quarantined(now)) for h in fleet.shard_healths if h is not None)
        ),
        "pim.health.degraded_warnings": float(outcome.degraded_warnings),
        "serve.service.rejected": float(service.stats.rejected),
        "serve.batcher.batches": float(service.dispatcher.batches_dispatched),
        "serve.cache.lookups": float(cache.lookups),
        "serve.cache.hit_ratio": cache.hit_rate(),
        "serve.resilience.fallback_pairs": registry.counter("serve_fallback_pairs_total").value(),
        "pim.kernel.instructions_per_pair": sum(
            fam_total(reg, "pim_dpu_instructions_total") for reg in shard_regs
        ) / pim_pairs,
        "pim.kernel.dma_bytes_per_pair": sum(
            fam_total(reg, "pim_dpu_dma_bytes_total") for reg in shard_regs
        ) / pim_pairs,
        "pim.transfer.in_s": shard_sum("pim_model_seconds_total", section="transfer_in"),
        "pim.transfer.out_s": shard_sum("pim_model_seconds_total", section="transfer_out"),
        "pim.transfer.bytes_in": shard_sum("pim_model_bytes_total", direction="to_dpu"),
        "pim.transfer.bytes_out": shard_sum("pim_model_bytes_total", direction="from_dpu"),
        "pim.system.launch_s": shard_sum("pim_model_seconds_total", section="launch"),
        # shards run their rounds side by side: kernel time per shard
        "modeled_kernel_pairs_per_s": pim_pairs / (kernel_s / SERVE.shards),
    }


def fam_total(registry, name: str) -> float:
    """Sum of every series of one counter family."""
    return sum(series.value for series in registry.counter(name).series.values())


def serve_fleet(seed: int, seconds: float, trace: bool, nominal_ref_s: float,
                rate: float, limit_s: float) -> Result:
    result = Result()

    def setup() -> list:
        requests = serve_trace(seed, rate)
        replay(seed, requests[: SERVE.block_requests])
        return requests

    requests, result.metrics["setup_s"] = timed_setup(setup, nominal_ref_s)

    untraced = HostSamples(nominal_ref_s)
    budget = seconds / 2 if trace else seconds
    deadline = time.perf_counter() + budget
    first = replay(seed, requests, untraced)
    while time.perf_counter() < deadline:
        again = replay(seed, requests, untraced)
        if [response_key(r) for r in again.responses if r] != [
            response_key(r) for r in first.responses if r
        ]:
            result.fail(1, "a repeated replay produced different responses")
    m = result.metrics
    m["host_pairs_per_s"] = untraced.pairs_per_s()
    m["bench.host_pairs_per_s_raw"] = untraced.raw_pairs_per_s()
    m["bench.ref_spread"] = spread(untraced.refs)
    summary = latency_summary(requests, first)
    m["modeled_pairs_per_s"] = summary["pairs_per_s"]
    m["modeled_latency_p50_s"] = summary["p50"]
    m["modeled_latency_p99_s"] = summary["p99"]
    if summary["p99"] > limit_s or summary["growth"] > 0.1 * limit_s:
        result.problems.append(
            f"fixed rate {rate} rps is not below saturation: p99 {summary['p99']:.4f} s, "
            f"backlog growth {summary['growth']:.4f} s"
        )
    m.update(serve_counts(first))
    check_serve(seed, requests, first, result)

    if trace:
        seen = Observed()
        traced = HostSamples(nominal_ref_s)
        deadline = time.perf_counter() + seconds / 2
        replays = 0
        with Tracer() as tracer:
            install_layers(tracer, seen)
            while replays == 0 or time.perf_counter() < deadline:
                replay(seed, requests, traced, tracer)
                replays += 1
        result.tracer = tracer
        m.update(layer_metrics(tracer, traced, seen, sum(traced.seconds)))
        m["bench.trace_overhead"] = untraced.pairs_per_s() / traced.pairs_per_s()
        m["pim.transport.delivery_ratio"] = seen.first_try / seen.sends if seen.sends else 0.0
        m["pim.transport.wire_s"] = seen.wire_s / replays
        m["serve.batcher.fill_ratio"] = statistics.mean(seen.batch_sizes) / SERVE.max_batch_pairs
        m["serve.batcher.wait_p50_s"] = percentile(seen.batch_waits, 50)
        m["serve.batcher.wait_p99_s"] = percentile(seen.batch_waits, 99)
        m["serve.dispatcher.queue_p50_s"] = percentile(seen.queue_s, 50)
        m["serve.dispatcher.queue_p99_s"] = percentile(seen.queue_s, 99)
        m["serve.dispatcher.service_p50_s"] = percentile(seen.service_s, 50)
    else:
        m["modeled_capacity_rps"] = capacity(seed, rate, limit_s)
    return result
