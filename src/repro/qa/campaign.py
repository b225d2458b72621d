"""Declarative ablation x chaos campaigns with recomputable evidence.

A *campaign* crosses an ablation axis (:data:`~repro.pim.ablation.STANDARD_ABLATIONS`
— breaker off, requeue off, journal off, scalar engine, shards pinned to
1, ...) with a seeded fault grid (:data:`STANDARD_GRID` — a persistent
DPU death, a tasklet stall, MRAM bit rot, a mid-run crash/resume, a
lossy coordinator<->shard link, a finite network partition) and runs
every resulting *cell* on the modeled clock:

1. the cell's workload (a seeded :mod:`repro.qa.corpus`) runs through a
   :class:`~repro.pim.fleet.FleetCoordinator` built from the cell's
   :class:`~repro.pim.ablation.AblationConfig`, under the grid point's
   :class:`~repro.pim.faults.FaultPlan` (``fault_domain="uniform"``, so
   the same local DPU misbehaves at every shard count and cells stay
   comparable across the ``shards`` ablation);
2. every gathered answer is checked against the differential oracle
   (CIGAR replay + re-score + the host WFA score precomputed once per
   campaign) — abandoned pairs count as disagreements, so a degraded
   cell cannot masquerade as a verified one;
3. journaled cells at a ``crash`` grid point are crash-tested: one
   shard's journal is truncated at a record boundary, the run resumed
   with a fresh coordinator, and every rebuilt journal byte-compared to
   the uninterrupted run's;
4. a small seeded load replay exercises the serve-side knobs (cache,
   CPU fallback) through :func:`~repro.serve.service.build_service`
   under the same ablation and fault plan.

Cells are pure functions of ``(campaign config, ablation, grid point)``,
so they fan out over the process's one pool
(:func:`repro.pim.parallel.pool_map`; ``workers`` 1 runs them inline,
0 one per core) and the report is byte-identical at any worker count.
The JSONL report (schema ``repro.qa.campaign/v1``) carries per-cell
metrics plus deltas versus the all-on baseline cell *at the same grid
point*; :func:`validate_campaign_report` recomputes every derived figure —
throughput, oracle agreement, restart bookkeeping, all deltas, the
summary — and rejects reports whose cells are missing, duplicated,
reordered, or internally inconsistent (the AE-Scientist-style contract
check the ROADMAP calls for).

A crashed campaign resumes: ``resume=True`` reuses the completed cell
prefix of a torn report file and recomputes only the missing cells; the
rewritten report is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.core.penalties import AffinePenalties, Penalties
from repro.data.generator import ReadPair
from repro.errors import CigarError, ConfigError, DegradedCapacity, QaError
from repro.pim.ablation import STANDARD_ABLATIONS, AblationConfig
from repro.pim.faults import (
    DpuDeath,
    FaultPlan,
    MramCorruption,
    RetryPolicy,
    TaskletStall,
)
from repro.pim.parallel import pool_map
from repro.qa.corpus import CorpusConfig, generate_corpus
from repro.qa.oracle import reference_answers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pim.transport import NetworkFaultPlan

__all__ = [
    "CAMPAIGN_SCHEMA",
    "FaultGridPoint",
    "STANDARD_GRID",
    "STANDARD_GRID_NAMES",
    "grid_point_by_name",
    "CampaignConfig",
    "CellTask",
    "run_cell",
    "CampaignReport",
    "run_campaign",
    "validate_campaign_report",
]

CAMPAIGN_SCHEMA = "repro.qa.campaign/v1"

#: breaker shape used inside campaign cells: aggressive enough that a
#: persistent fault is quarantined after one round of failures, so the
#: breaker-vs-no-breaker recovery delta shows up even on small grids.
_HEALTH_KWARGS = dict(window=4, failure_threshold=2, cooldown_s=1e9)

#: retry shape used inside campaign cells (mirrors the
#: ``resilience_breaker`` ledger scenario).
_RETRY_BASE = RetryPolicy(max_attempts=2, backoff_base_s=2e-3)

#: serve-side CPU fallback threshold: one dead DPU in a small fleet
#: drops the healthy fraction below this, so fallback engages at the
#: fault grid points (and its absence is visible in ``fallback_off``).
_FALLBACK_THRESHOLD = 0.9


# -- the fault-grid axis -------------------------------------------------------


@dataclass(frozen=True)
class FaultGridPoint:
    """One seeded chaos intensity: which faults a cell runs under.

    Fault *placement* (which DPU dies, stalls, or rots) is derived
    arithmetically from the campaign seed and the point's position in
    the grid — never from wall clock or name hashing — so the same
    campaign config always builds the same :class:`FaultPlan`.
    """

    name: str
    #: persistently dead DPUs (every attempt fails; only requeue survives).
    dead_dpus: int = 0
    #: DPUs whose first attempt stalls (watchdog-detected, retry succeeds).
    stalled_dpus: int = 0
    #: DPUs whose first-attempt output record 0 is bit-rotted
    #: (caught by result verification, retry succeeds).
    corrupt_dpus: int = 0
    #: simulate a mid-run host crash (journal truncated + resumed).
    crash: bool = False
    #: coordinator<->shard links that drop and duplicate envelopes
    #: (survived by at-least-once redelivery + receiver-side dedup).
    lossy_links: int = 0
    #: seconds the top shard's link is partitioned from the run start
    #: (finite, so redelivery always rides it out — even at one shard).
    partition_s: float = 0.0

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("fault grid point needs a non-empty name")
        for field_name in ("dead_dpus", "stalled_dpus", "corrupt_dpus", "lossy_links"):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be >= 0")
        if self.partition_s < 0:
            raise ConfigError("partition_s must be >= 0")
        if self.crash and self.net_active:
            raise ConfigError(
                "networked cells run inline-only (no journal), so a grid "
                "point cannot combine crash with network faults"
            )

    @property
    def faulty_dpus(self) -> int:
        return self.dead_dpus + self.stalled_dpus + self.corrupt_dpus

    @property
    def net_active(self) -> bool:
        """Whether this point injects coordinator<->shard network faults."""
        return self.lossy_links > 0 or self.partition_s > 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dead_dpus": self.dead_dpus,
            "stalled_dpus": self.stalled_dpus,
            "corrupt_dpus": self.corrupt_dpus,
            "crash": self.crash,
            "lossy_links": self.lossy_links,
            "partition_s": self.partition_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultGridPoint":
        try:
            out = cls(
                name=str(data["name"]),
                dead_dpus=int(data["dead_dpus"]),
                stalled_dpus=int(data["stalled_dpus"]),
                corrupt_dpus=int(data["corrupt_dpus"]),
                crash=bool(data["crash"]),
                # absent in pre-transport reports; default to calm links
                lossy_links=int(data.get("lossy_links", 0)),
                partition_s=float(data.get("partition_s", 0.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"fault grid point dict missing key {exc}") from exc
        out.validate()
        return out


#: the default chaos axis: calm control, each fault family alone
#: (device-side and network-side), and a combined death + mid-run
#: crash/resume drill.
STANDARD_GRID: tuple[FaultGridPoint, ...] = (
    FaultGridPoint(name="calm"),
    FaultGridPoint(name="dead_dpu", dead_dpus=1),
    FaultGridPoint(name="stall", stalled_dpus=1),
    FaultGridPoint(name="bitrot", corrupt_dpus=1),
    FaultGridPoint(name="crash_dead", dead_dpus=1, crash=True),
    FaultGridPoint(name="lossy_net", lossy_links=1),
    FaultGridPoint(name="partition", partition_s=0.05),
)

STANDARD_GRID_NAMES: tuple[str, ...] = tuple(g.name for g in STANDARD_GRID)


def grid_point_by_name(name: str) -> FaultGridPoint:
    """Look up a standard grid point by name."""
    for point in STANDARD_GRID:
        if point.name == name:
            return point
    raise ConfigError(
        f"unknown fault grid point {name!r}; known: "
        f"{', '.join(STANDARD_GRID_NAMES)}"
    )


def build_fault_plan(
    point: FaultGridPoint, num_dpus: int, seed: int, point_index: int
) -> Optional[FaultPlan]:
    """The seeded :class:`FaultPlan` one grid point injects per shard.

    Faulty DPU ids are assigned deterministically from the top of the
    per-shard id range downward (dead first, then stalled, then
    corrupt), leaving DPU 0 and the low ids as healthy requeue spares.
    The derived seed keeps bit-rot placement stable per grid point.
    """
    point.validate()
    if point.faulty_dpus == 0:
        return None
    if point.faulty_dpus >= num_dpus:
        raise ConfigError(
            f"grid point {point.name!r} faults {point.faulty_dpus} DPUs but "
            f"shards have only {num_dpus}; need at least one healthy spare"
        )
    ids = list(range(num_dpus - 1, num_dpus - 1 - point.faulty_dpus, -1))
    deaths = tuple(DpuDeath(dpu_id=ids.pop(0)) for _ in range(point.dead_dpus))
    stalls = tuple(
        TaskletStall(dpu_id=ids.pop(0), dma_budget=0)
        for _ in range(point.stalled_dpus)
    )
    corruptions = tuple(
        MramCorruption(dpu_id=ids.pop(0), region="output", num_bits=2, record=0)
        for _ in range(point.corrupt_dpus)
    )
    return FaultPlan(
        seed=seed * 1_000_003 + point_index * 8_191,
        deaths=deaths,
        stalls=stalls,
        corruptions=corruptions,
    )


def build_net_plan(
    point: FaultGridPoint, shards: int, seed: int, point_index: int
) -> Optional["NetworkFaultPlan"]:
    """The seeded :class:`NetworkFaultPlan` one grid point injects.

    Lossy links are assigned from the top of the shard-id range
    downward (mirroring :func:`build_fault_plan`'s placement), so
    shard 0's link stays clean whenever ``lossy_links < shards``; a
    partition covers the top shard's link for a finite window starting
    at the run origin, which at-least-once redelivery always rides out
    — even in the ``shards_1`` ablation where that is the only link.
    The derived seed follows the fault-plan discipline so the same
    campaign config always builds the same network plan.
    """
    point.validate()
    if not point.net_active:
        return None
    from repro.pim.transport import (
        LinkDrop,
        LinkDuplicate,
        NetworkFaultPlan,
        Partition,
    )

    if point.lossy_links > shards:
        raise ConfigError(
            f"grid point {point.name!r} marks {point.lossy_links} links "
            f"lossy but the cell runs only {shards} shard(s)"
        )
    lossy = range(shards - 1, shards - 1 - point.lossy_links, -1)
    partitions = ()
    if point.partition_s > 0.0:
        partitions = (
            Partition(start_s=0.0, end_s=point.partition_s, shard_ids=(shards - 1,)),
        )
    return NetworkFaultPlan(
        seed=seed * 1_000_003 + point_index * 8_191,
        drops=tuple(LinkDrop(shard_id=s, p=0.2) for s in lossy),
        duplicates=tuple(LinkDuplicate(shard_id=s, p=0.2) for s in lossy),
        partitions=partitions,
    )


# -- campaign configuration ----------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign, fully determined by its fields.

    ``ablations[0]`` is the baseline every other cell's deltas are
    measured against; it must be an all-on configuration.
    """

    pairs: int = 48
    length: int = 16
    max_edits: int = 4
    seed: int = 42
    num_dpus: int = 4
    tasklets: int = 2
    pairs_per_round: int = 8
    #: shard count ablations inherit unless they pin their own.
    baseline_shards: int = 2
    #: serve-phase load replay size (0 skips the serve phase).
    serve_requests: int = 24
    serve_rate: float = 4000.0
    ablations: tuple[AblationConfig, ...] = STANDARD_ABLATIONS
    grid: tuple[FaultGridPoint, ...] = STANDARD_GRID

    def validate(self) -> None:
        if self.pairs < 1:
            raise QaError(f"pairs must be >= 1, got {self.pairs}")
        if self.pairs_per_round < 1:
            raise QaError(
                f"pairs_per_round must be >= 1, got {self.pairs_per_round}"
            )
        if self.num_dpus < 1:
            raise QaError(f"num_dpus must be >= 1, got {self.num_dpus}")
        if self.baseline_shards < 1:
            raise QaError(
                f"baseline_shards must be >= 1, got {self.baseline_shards}"
            )
        if self.serve_requests < 0:
            raise QaError(
                f"serve_requests must be >= 0, got {self.serve_requests}"
            )
        if self.serve_rate <= 0:
            raise QaError(f"serve_rate must be > 0, got {self.serve_rate}")
        if not self.ablations:
            raise QaError("campaign needs at least one ablation")
        if not self.grid:
            raise QaError("campaign needs at least one fault grid point")
        if not self.ablations[0].all_on or self.ablations[0].shards is not None:
            raise QaError(
                f"ablations[0] ({self.ablations[0].name!r}) must be the "
                "all-on baseline (every feature enabled, shards inherited)"
            )
        for axis, items in (("ablation", self.ablations), ("grid", self.grid)):
            names = [item.name for item in items]
            if len(names) != len(set(names)):
                raise QaError(f"duplicate {axis} names: {sorted(names)}")
        for ablation in self.ablations:
            ablation.validate()
        for index, point in enumerate(self.grid):
            point.validate()
            # fail early, not inside a worker process
            build_fault_plan(point, self.num_dpus, self.seed, index)
        CorpusConfig(max_len=self.length, max_edits=self.max_edits).validate()

    @property
    def baseline(self) -> str:
        return self.ablations[0].name

    def cell_names(self) -> list[str]:
        """Every cell id, in the canonical (ablation-major) order."""
        return [
            cell_name(a.name, g.name) for a in self.ablations for g in self.grid
        ]

    def penalties(self) -> Penalties:
        return AffinePenalties()

    def to_dict(self) -> dict:
        return {
            "pairs": self.pairs,
            "length": self.length,
            "max_edits": self.max_edits,
            "seed": self.seed,
            "num_dpus": self.num_dpus,
            "tasklets": self.tasklets,
            "pairs_per_round": self.pairs_per_round,
            "baseline_shards": self.baseline_shards,
            "serve_requests": self.serve_requests,
            "serve_rate": self.serve_rate,
            "baseline": self.baseline,
            "ablations": [a.to_dict() for a in self.ablations],
            "grid": [g.to_dict() for g in self.grid],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        try:
            out = cls(
                pairs=int(data["pairs"]),
                length=int(data["length"]),
                max_edits=int(data["max_edits"]),
                seed=int(data["seed"]),
                num_dpus=int(data["num_dpus"]),
                tasklets=int(data["tasklets"]),
                pairs_per_round=int(data["pairs_per_round"]),
                baseline_shards=int(data["baseline_shards"]),
                serve_requests=int(data["serve_requests"]),
                serve_rate=float(data["serve_rate"]),
                ablations=tuple(
                    AblationConfig.from_dict(a) for a in data["ablations"]
                ),
                grid=tuple(FaultGridPoint.from_dict(g) for g in data["grid"]),
            )
        except (KeyError, TypeError) as exc:
            raise QaError(f"malformed campaign config: {exc}") from exc
        out.validate()
        if data.get("baseline") != out.baseline:
            raise QaError(
                f"campaign config names baseline {data.get('baseline')!r} but "
                f"ablations[0] is {out.baseline!r}"
            )
        return out


def cell_name(ablation: str, point: str) -> str:
    return f"{ablation}@{point}"


# -- one cell ------------------------------------------------------------------


@dataclass(frozen=True)
class CellTask:
    """A self-contained description of one cell; picklable.

    Mirrors :class:`~repro.pim.parallel.DpuJob` at the campaign layer:
    a worker process computes the cell's metrics from the task alone, so
    the outcome never depends on which worker ran it or in what order.
    """

    config: CampaignConfig
    ablation: AblationConfig
    point: FaultGridPoint
    point_index: int
    #: host WFA oracle score per corpus pair (precomputed once per
    #: campaign — identical for every cell).
    expected_scores: tuple[int, ...]

    @property
    def name(self) -> str:
        return cell_name(self.ablation.name, self.point.name)


#: every key a cell's ``metrics`` dict must carry (the report contract).
METRIC_KEYS = frozenset(
    {
        "pairs",
        "shards",
        "rounds",
        "total_seconds",
        "kernel_seconds",
        "recovery_seconds",
        "throughput_pairs_per_s",
        "faults_seen",
        "rerun_pairs",
        "abandoned_pairs",
        "oracle_checked",
        "oracle_ok",
        "oracle_agreement",
        "rounds_replayed",
        "resume_checked",
        "resume_identical",
        "restart_reexecuted_rounds",
        "restart_overhead_seconds",
        "serve_completed",
        "serve_rejected",
        "serve_cached_pairs",
        "serve_fallback_pairs",
        "serve_p99_s",
        "net_drops",
        "net_redeliveries",
        "net_duplicates_absorbed",
        "net_partition_blocked",
        "net_steals",
    }
)

#: transport counters every cell reports (zero off the network points).
_NET_METRIC_KEYS = (
    "net_drops",
    "net_redeliveries",
    "net_duplicates_absorbed",
    "net_partition_blocked",
    "net_steals",
)


def _make_fleet(
    cfg: CampaignConfig,
    ablation: AblationConfig,
    net_plan: Optional["NetworkFaultPlan"] = None,
):
    from repro.pim.config import PimSystemConfig
    from repro.pim.fleet import FleetCoordinator
    from repro.pim.health import HealthPolicy
    from repro.pim.kernel import KernelConfig

    return FleetCoordinator(
        PimSystemConfig(
            num_dpus=cfg.num_dpus,
            num_ranks=1,
            tasklets=cfg.tasklets,
            num_simulated_dpus=cfg.num_dpus,
        ),
        KernelConfig(
            penalties=cfg.penalties(),
            max_read_len=cfg.length,
            max_edits=cfg.max_edits,
            engine=ablation.engine,
        ),
        shards=ablation.resolve_shards(cfg.baseline_shards),
        health_policy=ablation.health_policy(HealthPolicy(**_HEALTH_KWARGS)),
        fault_domain="uniform",
        net_plan=net_plan,
    )


def _oracle_agreement(
    corpus, results, expected: tuple[int, ...], penalties: Penalties
) -> int:
    """How many corpus cases the gathered answers fully agree on.

    The per-cell half of the :mod:`repro.qa.oracle` hierarchy: the
    CIGAR must replay against the pair, re-score to the reported score,
    and the score must equal the precomputed host WFA answer.  A pair
    with no result (abandoned under fault injection) disagrees.
    """
    by_index = {index: (score, cigar) for index, score, cigar in results}
    ok = 0
    for case, expected_score in zip(corpus, expected):
        score, cigar = by_index.get(case.index, (None, None))
        if score is None or cigar is None:
            continue
        try:
            cigar.validate(case.pattern, case.text)
        except CigarError:
            continue
        if cigar.score(penalties) != score:
            continue
        if score != expected_score:
            continue
        ok += 1
    return ok


def _crash_and_resume(
    cfg: CampaignConfig,
    ablation: AblationConfig,
    journal: Path,
    pairs: list[ReadPair],
    fault_plan: Optional[FaultPlan],
    retry_policy: RetryPolicy,
) -> tuple[int, bool]:
    """Truncate one shard journal, resume, byte-compare every file.

    Returns ``(rounds_replayed, identical)``.  Mirrors the ``make
    fleet-demo`` drill: the crash is a record-boundary truncation of
    shard 0's journal; the resumed run must rebuild it byte-identically
    to the uninterrupted run's.  ``journal`` is a directory, or shard
    0's own file on a one-shard fleet.
    """

    def files() -> dict:
        paths = sorted(journal.iterdir()) if journal.is_dir() else [journal]
        return {p.name: p.read_bytes() for p in paths}

    pristine = files()
    shard0 = journal / "shard-000.jsonl" if journal.is_dir() else journal
    lines = shard0.read_bytes().splitlines(keepends=True)
    shard0.write_bytes(b"".join(lines[: min(2, len(lines))]))
    resumed = _make_fleet(cfg, ablation).resume_run(
        journal,
        pairs,
        pairs_per_round=cfg.pairs_per_round,
        collect_results=True,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    return resumed.rounds_replayed, files() == pristine


def _serve_phase(
    cfg: CampaignConfig,
    ablation: AblationConfig,
    fault_plan: Optional[FaultPlan],
    retry_policy: RetryPolicy,
) -> dict:
    """A small seeded load replay through the serve stack.

    Exercises the serve-side knobs the batch phase cannot see (result
    cache, CPU fallback under degraded capacity) under the same
    ablation and fault plan.
    """
    from repro.pim.health import HealthPolicy
    from repro.serve.clock import VirtualClock
    from repro.serve.loadgen import LoadgenConfig, run_load
    from repro.serve.resilience import FallbackPolicy
    from repro.serve.service import ServiceConfig, build_service

    service = build_service(
        num_dpus=cfg.num_dpus,
        tasklets=cfg.tasklets,
        max_read_len=cfg.length,
        max_edits=cfg.max_edits,
        penalties=cfg.penalties(),
        config=ServiceConfig(
            max_batch_pairs=8,
            max_wait_s=1e-3,
            cache_pairs=64 if ablation.cache else 0,
            pairs_per_round=cfg.pairs_per_round,
        ),
        clock=VirtualClock(),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        health_policy=ablation.health_policy(HealthPolicy(**_HEALTH_KWARGS)),
        fallback=(
            FallbackPolicy(min_healthy_fraction=_FALLBACK_THRESHOLD)
            if ablation.fallback
            else None
        ),
        engine=ablation.engine,
        shards=ablation.resolve_shards(cfg.baseline_shards),
    )
    report = run_load(
        service,
        LoadgenConfig(
            requests=cfg.serve_requests,
            rate=cfg.serve_rate,
            pairs_per_request=2,
            clients=2,
            length=min(10, cfg.length),
            error_rate=0.05,
            seed=cfg.seed,
        ),
    )
    summary = report.summary()
    fallback_pairs = 0
    if service.telemetry is not None:
        fallback_pairs = int(
            service.telemetry.registry.counter(
                "serve_fallback_pairs_total"
            ).value()
        )
    return {
        "serve_completed": summary["completed"],
        "serve_rejected": summary["rejected"],
        "serve_cached_pairs": summary["cached_pairs"],
        "serve_fallback_pairs": fallback_pairs,
        "serve_p99_s": summary["latency_p99_s"],
    }


def run_cell(task: CellTask) -> dict:
    """Compute one cell's metrics; picklable in and out.

    Everything runs on the modeled clock — backoff, watchdog latency and
    serve latency are charged, never slept — so a cell's metrics are a
    pure, machine-independent function of the task.
    """
    cfg = task.config
    ablation = task.ablation
    point = task.point
    penalties = cfg.penalties()
    corpus = generate_corpus(
        cfg.pairs,
        cfg.seed,
        CorpusConfig(max_len=cfg.length, max_edits=cfg.max_edits),
    )
    pairs = [ReadPair(c.pattern, c.text) for c in corpus]
    fault_plan = build_fault_plan(point, cfg.num_dpus, cfg.seed, task.point_index)
    net_plan = build_net_plan(
        point,
        ablation.resolve_shards(cfg.baseline_shards),
        cfg.seed,
        task.point_index,
    )
    retry_policy = ablation.retry_policy(_RETRY_BASE)

    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore", DegradedCapacity)
        # networked runs are inline-only (the coordinator refuses to mix
        # an active net plan with a write-ahead journal), so network
        # points run journal-free under every ablation
        journal = (
            Path(tmp) / "journal"
            if ablation.journal and net_plan is None
            else None
        )
        run = _make_fleet(cfg, ablation, net_plan=net_plan).run(
            pairs,
            pairs_per_round=cfg.pairs_per_round,
            collect_results=True,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            journal=journal,
        )

        rounds_replayed = 0
        resume_checked = bool(point.crash and ablation.journal)
        resume_identical: Optional[bool] = None
        if resume_checked:
            rounds_replayed, resume_identical = _crash_and_resume(
                cfg, ablation, journal, pairs, fault_plan, retry_policy
            )

        serve = {
            "serve_completed": 0,
            "serve_rejected": 0,
            "serve_cached_pairs": 0,
            "serve_fallback_pairs": 0,
            "serve_p99_s": 0.0,
        }
        if cfg.serve_requests > 0:
            serve = _serve_phase(cfg, ablation, fault_plan, retry_policy)

    rounds = run.schedule.rounds
    total_seconds = run.total_seconds
    recovery = run.recovery
    oracle_ok = _oracle_agreement(corpus, run.results(), task.expected_scores, penalties)

    if point.crash and not ablation.journal:
        # no write-ahead journal: a crash restarts the whole run, so the
        # modeled restart bill is every round, paid again
        restart_rounds = rounds
        restart_overhead = total_seconds
    elif point.crash:
        restart_rounds = rounds - rounds_replayed
        restart_overhead = restart_rounds * (total_seconds / rounds)
    else:
        restart_rounds = 0
        restart_overhead = 0.0

    return {
        "pairs": cfg.pairs,
        "shards": ablation.resolve_shards(cfg.baseline_shards),
        "rounds": rounds,
        "total_seconds": total_seconds,
        "kernel_seconds": run.kernel_seconds,
        "recovery_seconds": run.recovery_seconds,
        "throughput_pairs_per_s": (
            cfg.pairs / total_seconds if total_seconds > 0 else 0.0
        ),
        "faults_seen": 0 if recovery is None else recovery.faults_seen,
        "rerun_pairs": 0 if recovery is None else len(recovery.rerun_pairs),
        "abandoned_pairs": (
            0 if recovery is None else len(recovery.abandoned_pairs)
        ),
        "oracle_checked": len(corpus),
        "oracle_ok": oracle_ok,
        "oracle_agreement": oracle_ok / len(corpus),
        "rounds_replayed": rounds_replayed,
        "resume_checked": resume_checked,
        "resume_identical": resume_identical,
        "restart_reexecuted_rounds": restart_rounds,
        "restart_overhead_seconds": restart_overhead,
        "net_drops": 0 if run.transport is None else run.transport.drops,
        "net_redeliveries": (
            0 if run.transport is None else run.transport.redeliveries
        ),
        "net_duplicates_absorbed": (
            0 if run.transport is None else run.transport.duplicates_absorbed
        ),
        "net_partition_blocked": (
            0 if run.transport is None else run.transport.partition_blocked
        ),
        "net_steals": 0 if run.transport is None else run.transport.steals,
        **serve,
    }


# -- delta + summary recomputation (shared with the validator) -----------------


def compute_delta(
    metrics: dict, base: dict, baseline_cell: str
) -> dict:
    """A cell's evidence deltas versus the baseline cell at its grid point."""

    def ratio(key: str) -> float:
        return metrics[key] / base[key] if base[key] else 0.0

    return {
        "baseline_cell": baseline_cell,
        "throughput_ratio": ratio("throughput_pairs_per_s"),
        "total_seconds_ratio": ratio("total_seconds"),
        "recovery_seconds_delta": (
            metrics["recovery_seconds"] - base["recovery_seconds"]
        ),
        "oracle_agreement_delta": (
            metrics["oracle_agreement"] - base["oracle_agreement"]
        ),
        "restart_overhead_delta": (
            metrics["restart_overhead_seconds"] - base["restart_overhead_seconds"]
        ),
        "serve_p99_ratio": ratio("serve_p99_s"),
        "serve_cached_pairs_delta": (
            metrics["serve_cached_pairs"] - base["serve_cached_pairs"]
        ),
        "serve_fallback_pairs_delta": (
            metrics["serve_fallback_pairs"] - base["serve_fallback_pairs"]
        ),
    }


def compute_summary(config: CampaignConfig, cells: list[dict]) -> dict:
    """The summary record, recomputed from the cell records."""
    baseline_clean = all(
        rec["metrics"]["oracle_agreement"] == 1.0
        for rec in cells
        if rec["ablation"] == config.baseline
    )
    resumes_checked = sum(
        1 for rec in cells if rec["metrics"]["resume_checked"]
    )
    resumes_identical = sum(
        1 for rec in cells if rec["metrics"]["resume_identical"] is True
    )
    return {
        "record": "summary",
        "cells": len(cells),
        "oracle_checked": sum(rec["metrics"]["oracle_checked"] for rec in cells),
        "oracle_ok": sum(rec["metrics"]["oracle_ok"] for rec in cells),
        "resumes_checked": resumes_checked,
        "resumes_identical": resumes_identical,
        "baseline_clean": baseline_clean,
        "ok": baseline_clean and resumes_identical == resumes_checked,
    }


# -- the report ----------------------------------------------------------------


@dataclass
class CampaignReport:
    """Everything a campaign learned, ready for JSONL serialization."""

    config: CampaignConfig
    #: full cell records (``{"record": "cell", ...}``), canonical order
    cells: list[dict]

    def summary(self) -> dict:
        return compute_summary(self.config, self.cells)

    @property
    def ok(self) -> bool:
        return bool(self.summary()["ok"])

    def cell(self, name: str) -> dict:
        for rec in self.cells:
            if rec["cell"] == name:
                return rec
        raise QaError(f"no such cell {name!r} in this campaign")

    def to_lines(self) -> list[dict]:
        return (
            [
                {
                    "record": "header",
                    "schema": CAMPAIGN_SCHEMA,
                    "config": self.config.to_dict(),
                }
            ]
            + self.cells
            + [self.summary()]
        )

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        return path

    def summary_text(self) -> str:
        s = self.summary()
        status = "OK" if s["ok"] else "INCONSISTENT"
        return (
            f"campaign: {s['cells']} cells "
            f"({len(self.config.ablations)} ablations x "
            f"{len(self.config.grid)} fault points), "
            f"oracle {s['oracle_ok']}/{s['oracle_checked']}, "
            f"resumes {s['resumes_identical']}/{s['resumes_checked']} "
            f"byte-identical [{status}]"
        )


# -- execution -----------------------------------------------------------------


def plan_cells(config: CampaignConfig) -> list[CellTask]:
    """Every cell task, in the canonical (ablation-major) order.

    The baseline ablation comes first, so by the time any non-baseline
    cell completes, its reference cell's metrics are already known —
    what lets the runner stream final report lines incrementally.
    """
    penalties = config.penalties()
    corpus = generate_corpus(
        config.pairs,
        config.seed,
        CorpusConfig(max_len=config.length, max_edits=config.max_edits),
    )
    expected = tuple(
        reference_answers(case.pattern, case.text, penalties)["wfa_score"]
        for case in corpus
    )
    return [
        CellTask(
            config=config,
            ablation=ablation,
            point=point,
            point_index=index,
            expected_scores=expected,
        )
        for ablation in config.ablations
        for index, point in enumerate(config.grid)
    ]


def _reusable_prefix(
    config: CampaignConfig, report_path: Path
) -> dict[str, dict]:
    """Completed cell metrics salvageable from a torn report file.

    Parses the file leniently — a torn trailing line, a missing summary,
    or trailing garbage just shortens the salvaged prefix — but a
    *well-formed header for a different campaign* is a hard error: the
    caller asked to resume the wrong file.
    """
    try:
        raw_lines = report_path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return {}
    records = []
    for line in raw_lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break  # torn write: everything past it is untrusted
    if not records:
        return {}
    header = records[0]
    if not isinstance(header, dict) or header.get("record") != "header":
        return {}
    if header.get("schema") != CAMPAIGN_SCHEMA:
        raise QaError(
            f"cannot resume {report_path}: schema "
            f"{header.get('schema')!r} is not {CAMPAIGN_SCHEMA!r}"
        )
    if header.get("config") != config.to_dict():
        raise QaError(
            f"cannot resume {report_path}: the report was produced by a "
            "different campaign configuration"
        )
    reused: dict[str, dict] = {}
    for expected_name, record in zip(config.cell_names(), records[1:]):
        if not isinstance(record, dict) or record.get("record") != "cell":
            break
        if record.get("cell") != expected_name:
            break  # reordered/foreign cell: stop trusting the prefix
        metrics = record.get("metrics")
        if not isinstance(metrics, dict) or METRIC_KEYS - metrics.keys():
            break
        reused[expected_name] = metrics
    return reused


def _cell_metrics(
    tasks: list[CellTask], reused: dict[str, dict], workers: int
) -> Iterator[tuple[CellTask, dict]]:
    """Yield ``(task, metrics)`` in canonical order, computing the
    missing cells with :func:`~repro.pim.parallel.pool_map`: inline, one
    cell at a time as the caller asks, or all at once on the pool."""
    computed = pool_map(
        run_cell, [task for task in tasks if task.name not in reused], workers
    )
    for task in tasks:
        if task.name in reused:
            yield task, reused[task.name]
        else:
            yield task, next(computed)


def run_campaign(
    config: Optional[CampaignConfig] = None,
    workers: int = 1,
    report_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    telemetry=None,
) -> CampaignReport:
    """Run every cell of a campaign; see the module docstring.

    ``workers`` is the width of the process's pool for the cells (1
    runs them inline, 0 one per core; cells are pure functions of their
    task, so the report is byte-identical at any worker count).  With
    ``resume=True`` and an existing ``report_path``, completed cells are
    salvaged from the (possibly torn) file and only the missing ones
    run; the rewritten report is byte-identical to an uninterrupted
    run's.  Inline, each cell's report line is written and flushed
    before the next cell runs, so a crash loses at most the cell that
    was running.

    When ``telemetry`` (a :class:`~repro.obs.telemetry.RunTelemetry`) is
    given, one ``campaign_cell`` event per cell and a closing
    ``campaign_done`` event are published at cumulative modeled time.
    """
    cfg = config if config is not None else CampaignConfig()
    cfg.validate()
    tasks = plan_cells(cfg)
    reused: dict[str, dict] = {}
    path = Path(report_path) if report_path is not None else None
    if resume and path is not None and path.exists():
        reused = _reusable_prefix(cfg, path)

    header = {
        "record": "header",
        "schema": CAMPAIGN_SCHEMA,
        "config": cfg.to_dict(),
    }
    cells: list[dict] = []
    baseline_metrics: dict[str, dict] = {}
    fh = None
    try:
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = path.open("w", encoding="utf-8")
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.flush()
        for task, metrics in _cell_metrics(tasks, reused, workers):
            if task.ablation.name == cfg.baseline:
                baseline_metrics[task.point.name] = metrics
                delta = None
            else:
                base_cell = cell_name(cfg.baseline, task.point.name)
                delta = compute_delta(
                    metrics, baseline_metrics[task.point.name], base_cell
                )
            record = {
                "record": "cell",
                "cell": task.name,
                "ablation": task.ablation.name,
                "fault_point": task.point.name,
                "metrics": metrics,
                "delta": delta,
            }
            cells.append(record)
            if fh is not None:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
        report = CampaignReport(config=cfg, cells=cells)
        if fh is not None:
            fh.write(json.dumps(report.summary(), sort_keys=True) + "\n")
    finally:
        if fh is not None:
            fh.close()

    if telemetry is not None:
        from repro.obs.events import CAMPAIGN_CELL, CAMPAIGN_DONE

        now = 0.0
        for record in cells:
            metrics = record["metrics"]
            now += metrics["total_seconds"]
            telemetry.events.publish(
                CAMPAIGN_CELL,
                now,
                ablation=record["ablation"],
                fault_point=record["fault_point"],
                oracle_agreement=metrics["oracle_agreement"],
                total_seconds=metrics["total_seconds"],
            )
        summary = report.summary()
        telemetry.events.publish(
            CAMPAIGN_DONE, now, cells=summary["cells"], ok=summary["ok"]
        )
    return report


# -- the validator -------------------------------------------------------------


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise QaError(f"{where}: {message}")


def _check_metrics(
    config: CampaignConfig,
    ablation: AblationConfig,
    point: FaultGridPoint,
    metrics: dict,
    where: str,
) -> None:
    """Recompute every derived figure inside one cell's metrics."""
    missing = METRIC_KEYS - metrics.keys()
    _require(not missing, where, f"metrics missing keys {sorted(missing)}")
    _require(
        metrics["pairs"] == config.pairs,
        where,
        f"cell claims {metrics['pairs']} pairs, campaign ran {config.pairs}",
    )
    _require(
        metrics["shards"] == ablation.resolve_shards(config.baseline_shards),
        where,
        f"cell claims {metrics['shards']} shards, ablation resolves to "
        f"{ablation.resolve_shards(config.baseline_shards)}",
    )
    _require(
        metrics["rounds"]
        == math.ceil(config.pairs / config.pairs_per_round),
        where,
        f"cell claims {metrics['rounds']} rounds for {config.pairs} pairs "
        f"at {config.pairs_per_round} per round",
    )
    expected_throughput = (
        metrics["pairs"] / metrics["total_seconds"]
        if metrics["total_seconds"] > 0
        else 0.0
    )
    _require(
        metrics["throughput_pairs_per_s"] == expected_throughput,
        where,
        "throughput does not recompute from pairs / total_seconds",
    )
    _require(
        metrics["oracle_checked"] == config.pairs,
        where,
        "oracle_checked disagrees with the campaign corpus size",
    )
    _require(
        0 <= metrics["oracle_ok"] <= metrics["oracle_checked"],
        where,
        "oracle_ok out of range",
    )
    _require(
        metrics["oracle_agreement"]
        == metrics["oracle_ok"] / metrics["oracle_checked"],
        where,
        "oracle_agreement does not recompute from oracle_ok / oracle_checked",
    )
    resume_expected = bool(point.crash and ablation.journal)
    _require(
        metrics["resume_checked"] == resume_expected,
        where,
        "resume_checked disagrees with the cell's journal/crash shape",
    )
    if not resume_expected:
        _require(
            metrics["resume_identical"] is None,
            where,
            "resume_identical set on a cell that never crash-resumed",
        )
        _require(
            metrics["rounds_replayed"] == 0,
            where,
            "rounds_replayed nonzero on a cell that never crash-resumed",
        )
    if point.crash and not ablation.journal:
        _require(
            metrics["restart_reexecuted_rounds"] == metrics["rounds"]
            and metrics["restart_overhead_seconds"] == metrics["total_seconds"],
            where,
            "journal-off crash cell must bill a full restart",
        )
    elif point.crash:
        reexec = metrics["rounds"] - metrics["rounds_replayed"]
        _require(
            metrics["restart_reexecuted_rounds"] == reexec,
            where,
            "restart_reexecuted_rounds does not recompute from "
            "rounds - rounds_replayed",
        )
        _require(
            metrics["restart_overhead_seconds"]
            == reexec * (metrics["total_seconds"] / metrics["rounds"]),
            where,
            "restart_overhead_seconds does not recompute",
        )
    else:
        _require(
            metrics["restart_reexecuted_rounds"] == 0
            and metrics["restart_overhead_seconds"] == 0.0,
            where,
            "restart bookkeeping nonzero without a crash grid point",
        )
    for key in _NET_METRIC_KEYS:
        _require(metrics[key] >= 0, where, f"{key} negative")
    if not point.net_active:
        _require(
            all(metrics[key] == 0 for key in _NET_METRIC_KEYS),
            where,
            "net counters nonzero at a grid point without network faults",
        )
    if point.partition_s > 0.0:
        # the partition window opens at the run origin, so the top
        # shard's first envelope is always blocked at least once
        _require(
            metrics["net_partition_blocked"] >= 1,
            where,
            "partition grid point never blocked an envelope",
        )
    _require(
        metrics["net_steals"] == 0,
        where,
        "campaign cells run without hedging; net_steals must be 0",
    )
    if config.serve_requests == 0:
        _require(
            metrics["serve_completed"] == 0 and metrics["serve_rejected"] == 0,
            where,
            "serve figures nonzero in a campaign without a serve phase",
        )
    else:
        _require(
            metrics["serve_completed"] + metrics["serve_rejected"]
            == config.serve_requests,
            where,
            "serve completed+rejected does not add up to the replayed trace",
        )


def validate_campaign_report(source: Union[str, Path, list[dict]]) -> dict:
    """Fully recompute a campaign report; return its summary.

    Raises :class:`~repro.errors.QaError` when the report's schema is
    foreign, its cell set is missing/duplicated/reordered versus the
    declared ablation x grid cross, any per-cell derived figure
    (throughput, oracle agreement, restart bookkeeping) fails to
    recompute, any delta disagrees with the baseline cell at the same
    grid point, or the summary disagrees with the cells — the contract
    checks CI needs before citing a cell as evidence.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        try:
            records = [json.loads(line) for line in text.splitlines() if line]
        except json.JSONDecodeError as exc:
            raise QaError(f"campaign report is not valid JSONL: {exc}") from exc
    else:
        records = list(source)

    if len(records) < 2:
        raise QaError("campaign report needs at least a header and a summary")
    header, *body, summary = records
    if header.get("record") != "header" or header.get("schema") != CAMPAIGN_SCHEMA:
        raise QaError(
            f"bad header: expected schema {CAMPAIGN_SCHEMA!r}, got {header!r}"
        )
    config = CampaignConfig.from_dict(header.get("config") or {})
    if summary.get("record") != "summary":
        raise QaError("last record must be the summary")

    expected_names = config.cell_names()
    seen_names = [rec.get("cell") for rec in body]
    if seen_names != expected_names:
        missing = sorted(set(expected_names) - set(seen_names))
        extra = sorted(set(seen_names) - set(expected_names))
        duplicated = sorted(
            {name for name in seen_names if seen_names.count(name) > 1}
        )
        detail = []
        if missing:
            detail.append(f"missing cells {missing}")
        if extra:
            detail.append(f"unknown cells {extra}")
        if duplicated:
            detail.append(f"duplicated cells {duplicated}")
        if not detail:
            detail.append("cells out of canonical order")
        raise QaError(
            "campaign cells disagree with the declared ablation x grid "
            f"cross: {'; '.join(detail)}"
        )

    ablations = {a.name: a for a in config.ablations}
    points = {g.name: g for g in config.grid}
    baseline_metrics: dict[str, dict] = {}
    for rec in body:
        where = f"cell {rec.get('cell')!r}"
        if rec.get("record") != "cell":
            raise QaError(f"{where}: not a cell record")
        ablation = ablations.get(rec.get("ablation"))
        point = points.get(rec.get("fault_point"))
        _require(ablation is not None, where, "unknown ablation")
        _require(point is not None, where, "unknown fault point")
        _require(
            rec.get("cell") == cell_name(ablation.name, point.name),
            where,
            "cell id disagrees with its ablation/fault_point fields",
        )
        metrics = rec.get("metrics")
        _require(isinstance(metrics, dict), where, "metrics must be an object")
        _check_metrics(config, ablation, point, metrics, where)
        if ablation.name == config.baseline:
            _require(
                rec.get("delta") is None,
                where,
                "baseline cells must not carry a delta",
            )
            baseline_metrics[point.name] = metrics
        else:
            base = baseline_metrics[point.name]
            expected_delta = compute_delta(
                metrics, base, cell_name(config.baseline, point.name)
            )
            _require(
                rec.get("delta") == expected_delta,
                where,
                "delta does not recompute against the baseline cell",
            )

    expected_summary = compute_summary(config, body)
    if summary != expected_summary:
        mismatched = sorted(
            key
            for key in set(summary) | set(expected_summary)
            if summary.get(key) != expected_summary.get(key)
        )
        raise QaError(
            "summary does not recompute from the cell records "
            f"(differs in: {', '.join(mismatched)})"
        )
    return summary
