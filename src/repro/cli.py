"""Command-line interface.

Installed as the ``repro`` console script::

    repro generate --pairs 1000 --length 100 --error-rate 0.02 -o reads.seq
    repro align    -i reads.seq --metric affine
    repro pim-align -i reads.seq --dpus 64 --tasklets 16
    repro qa       --trials 200 --seed 42 --report qa.jsonl
    repro fig1     --quick
    repro sweep    tasklets
    repro serve    -i requests.jsonl -o responses.jsonl --cache 256
    repro loadgen  --requests 200 --process bursty --report load.jsonl
    repro bench    run --profile quick
    repro bench    compare --baseline BENCH_baseline.json

Each subcommand is a thin wrapper over the library API; anything the CLI
can do, `import repro` can do better.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.aligner import WavefrontAligner
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    Penalties,
    TwoPieceAffinePenalties,
)
from repro.data.datasets import DatasetSpec
from repro.data.seqio import read_seq, write_fasta_pairs, write_seq
from repro.errors import ReproError
from repro.perf.report import format_table, human_time

__all__ = ["main", "build_parser"]


def _penalties_from_args(args: argparse.Namespace) -> Penalties:
    if args.metric == "edit":
        return EditPenalties()
    if args.metric == "linear":
        return LinearPenalties(mismatch=args.mismatch, indel=args.gap_extend)
    if args.metric == "affine2p":
        return TwoPieceAffinePenalties(
            mismatch=args.mismatch,
            gap_open1=args.gap_open,
            gap_extend1=args.gap_extend,
            gap_open2=args.gap_open2,
            gap_extend2=args.gap_extend2,
        )
    return AffinePenalties(
        mismatch=args.mismatch, gap_open=args.gap_open, gap_extend=args.gap_extend
    )


def _add_penalty_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metric",
        choices=("affine", "edit", "linear", "affine2p"),
        default="affine",
        help="distance metric (default: gap-affine, the paper's)",
    )
    parser.add_argument("--mismatch", type=int, default=4)
    parser.add_argument("--gap-open", type=int, default=6)
    parser.add_argument("--gap-extend", type=int, default=2)
    parser.add_argument("--gap-open2", type=int, default=24)
    parser.add_argument("--gap-extend2", type=int, default=1)


def _add_fleet_args(
    parser: argparse.ArgumentParser,
    dpus: int,
    tasklets: int,
    max_edits: Optional[int],
) -> None:
    """Fleet flags shared by ``pim-align``, ``serve`` and ``loadgen``;
    the system shape defaults differ per command."""
    group = parser.add_argument_group("fleet")
    group.add_argument("--dpus", type=int, default=dpus,
                       help="DPUs per shard")
    group.add_argument("--tasklets", type=int, default=tasklets)
    group.add_argument("--workers", type=int, default=1,
                       help="host processes simulating DPUs in parallel "
                            "(1 = sequential, 0 = one per core; results "
                            "are identical)")
    group.add_argument("--engine", choices=("scalar", "vector"),
                       default="vector",
                       help="host alignment engine (default: 'vector', "
                            "which batches the simulated DPUs' pairs "
                            "through the NumPy engine for simulation "
                            "speed; 'scalar' "
                            "is the per-pair escape hatch; results, "
                            "counters and traces are identical)")
    group.add_argument("--max-edits", type=int, default=max_edits,
                       help="kernel edit budget" + (
                           " (default: a tenth of the longest read)"
                           if max_edits is None else ""))
    group.add_argument("--pairs-per-round", type=int, default=None,
                       metavar="N",
                       help="scheduler round size (default: MRAM "
                            "capacity); with --shards > 1 smaller rounds "
                            "stripe across more shards and links")
    group.add_argument("--kill-dpu", type=int, default=None, metavar="ID",
                       help="inject a death of this DPU (ids index the "
                            "federated fleet; recovery requeues its pairs "
                            "onto spares and must stay lossless)")
    group.add_argument("--stall-dpu", type=int, default=None, metavar="ID",
                       help="inject a first-attempt tasklet stall on this "
                            "DPU (detected by the modeled launch watchdog)")
    group.add_argument("--breaker", action="store_true",
                       help="enable per-DPU circuit breakers: repeat "
                            "offenders are quarantined out of later rounds "
                            "instead of burning retries")
    group.add_argument("--shards", type=int, default=1, metavar="N",
                       help="federate N identical PIM shards (--dpus is "
                            "per shard); rounds stripe across shards with "
                            "health-aware rebalancing and results stay "
                            "byte-identical to --shards 1")
    group.add_argument("--net-plan", metavar="JSON|@FILE", default=None,
                       help="seeded NetworkFaultPlan for the "
                            "coordinator<->shard links, as inline JSON or "
                            "@path-to-json (keys: seed, drops, duplicates, "
                            "delays, reorders, partitions; shard ids below "
                            "--shards); rounds travel as idempotent "
                            "envelopes with at-least-once redelivery")
    group.add_argument("--link-timeout", type=float, default=None,
                       metavar="S",
                       help="modeled per-link delivery timeout before "
                            "retransmission (default 0.002)")
    group.add_argument("--hedge", action="store_true",
                       help="hedged re-dispatch: steal a timed-out "
                            "in-flight round onto the next healthy shard "
                            "instead of only retrying the link")
    group.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write metrics federated over every shard: "
                            "Prometheus text for .prom/.txt, JSON "
                            "otherwise (pim-align: a JSONL run manifest "
                            "for .jsonl)")


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    """Service-construction flags shared by ``serve`` and ``loadgen``."""
    _add_fleet_args(parser, dpus=4, tasklets=4, max_edits=4)
    parser.add_argument("--max-read-len", type=int, default=100)
    parser.add_argument("--max-batch-pairs", type=int, default=64,
                        help="flush the micro-batcher at this many pairs")
    parser.add_argument("--max-wait", type=float, default=1e-3, metavar="S",
                        help="oldest pending pair waits at most this long "
                             "(modeled seconds)")
    parser.add_argument("--max-queue-pairs", type=int, default=4096,
                        help="admission bound on pending + in-flight pairs")
    parser.add_argument("--cache", type=int, default=0, metavar="N",
                        help="result-cache capacity in entries (0 = off)")
    parser.add_argument("--cache-policy", choices=("lru", "lfu"), default="lru")
    parser.add_argument("--fallback-threshold", type=float, default=None,
                        metavar="F",
                        help="with --breaker: route whole batches to the "
                             "CPU Gotoh baseline while healthy capacity "
                             "sits below this fraction (0 < F <= 1)")


def _fault_plan(args: argparse.Namespace):
    """The FaultPlan of --kill-dpu/--stall-dpu (None without either)."""
    from repro.pim.faults import DpuDeath, FaultPlan, TaskletStall

    deaths = (DpuDeath(dpu_id=args.kill_dpu),) if args.kill_dpu is not None else ()
    stalls = (
        (TaskletStall(dpu_id=args.stall_dpu),) if args.stall_dpu is not None else ()
    )
    return FaultPlan(deaths=deaths, stalls=stalls) if deaths or stalls else None


def _health_policy(args: argparse.Namespace):
    """The HealthPolicy --breaker turns on (None without it)."""
    if not args.breaker:
        return None
    from repro.pim.health import HealthPolicy

    return HealthPolicy()


def _parse_net_plan(args: argparse.Namespace):
    """(net_plan, transport_policy) from --net-plan/--link-timeout/--hedge."""
    import json as _json

    from repro.errors import ConfigError
    from repro.pim.transport import NetworkFaultPlan, TransportPolicy

    net_plan = None
    if args.net_plan is not None:
        text = args.net_plan
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = _json.loads(text)
        except _json.JSONDecodeError as exc:
            raise ConfigError(f"--net-plan is not valid JSON: {exc}") from exc
        net_plan = NetworkFaultPlan.from_dict(doc)
    policy = None
    if args.link_timeout is not None or args.hedge:
        kwargs = {}
        if args.link_timeout is not None:
            kwargs["link_timeout_s"] = args.link_timeout
        policy = TransportPolicy(hedge=args.hedge, **kwargs)
    if policy is not None and net_plan is None:
        raise ConfigError(
            "--link-timeout/--hedge govern the modeled transport; they "
            "need --net-plan"
        )
    return net_plan, policy


def _build_serve_service(args: argparse.Namespace):
    from repro.serve import FallbackPolicy, ServiceConfig, build_service

    fallback = None
    if args.fallback_threshold is not None:
        fallback = FallbackPolicy(min_healthy_fraction=args.fallback_threshold)
    net_plan, transport_policy = _parse_net_plan(args)
    return build_service(
        num_dpus=args.dpus,
        tasklets=args.tasklets,
        workers=args.workers,
        max_read_len=args.max_read_len,
        max_edits=args.max_edits,
        penalties=_penalties_from_args(args),
        config=ServiceConfig(
            max_batch_pairs=args.max_batch_pairs,
            max_wait_s=args.max_wait,
            max_queue_pairs=args.max_queue_pairs,
            cache_pairs=args.cache,
            cache_policy=args.cache_policy,
            pairs_per_round=args.pairs_per_round,
        ),
        fault_plan=_fault_plan(args),
        health_policy=_health_policy(args),
        fallback=fallback,
        engine=args.engine,
        shards=args.shards,
        net_plan=net_plan,
        transport_policy=transport_policy,
    )


def _write_serve_metrics(path: str, service) -> None:
    import json as _json

    if path.endswith((".prom", ".txt")):
        from repro.obs.export import write_prometheus

        write_prometheus(path, service.telemetry.federated_registry())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _json.dump(service.metrics_snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote service metrics to {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WFA-on-PIM reproduction toolkit (Diab et al., IPDPS'22)",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # generate ---------------------------------------------------------
    gen = sub.add_parser("generate", help="generate a synthetic read-pair workload")
    gen.add_argument("--pairs", type=int, default=1000)
    gen.add_argument("--length", type=int, default=100)
    gen.add_argument("--error-rate", type=float, default=0.02)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--error-model", choices=("exact", "uniform", "binomial"), default="exact"
    )
    gen.add_argument("--format", choices=("seq", "fasta"), default="seq")
    gen.add_argument("-o", "--output", required=True)

    # align ---------------------------------------------------------------
    aln = sub.add_parser("align", help="align a .seq workload on the host")
    aln.add_argument("-i", "--input", required=True)
    aln.add_argument("--score-only", action="store_true")
    aln.add_argument("--adaptive", action="store_true")
    aln.add_argument("-o", "--output", help="TSV output path (default: stdout)")
    _add_penalty_args(aln)

    # pim-align -----------------------------------------------------------
    pim = sub.add_parser(
        "pim-align", help="align a .seq workload on the simulated PIM system"
    )
    pim.add_argument("-i", "--input", required=True)
    pim.add_argument("--policy", choices=("mram", "wram"), default="mram")
    pim.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write a Chrome trace_event JSON of the run, "
                          "every shard included (open in chrome://tracing "
                          "or ui.perfetto.dev)")
    pim.add_argument("--journal", metavar="PATH", default=None,
                     help="append each completed scheduler round to this "
                          "write-ahead journal (repro.pim.journal/v1); "
                          "with --shards > 1 a directory of per-shard "
                          "journals plus a manifest")
    pim.add_argument("--resume", action="store_true",
                     help="resume an interrupted run from --journal: "
                          "journaled rounds replay idempotently, only the "
                          "remainder executes")
    pim.add_argument("-o", "--output", default=None, metavar="PATH",
                     help="write gathered alignments as TSV "
                          "(index<TAB>score<TAB>cigar); forces result "
                          "collection")
    _add_fleet_args(pim, dpus=64, tasklets=16, max_edits=None)
    _add_penalty_args(pim)

    # map ---------------------------------------------------------------
    mp = sub.add_parser(
        "map",
        help="map FASTA reads semi-globally onto a (small) FASTA reference",
    )
    mp.add_argument("--reference", required=True, help="single-record FASTA")
    mp.add_argument("--reads", required=True, help="FASTA of reads")
    mp.add_argument("-o", "--output", required=True, help="PAF output path")
    mp.add_argument("--both-strands", action="store_true",
                    help="also try the reverse complement, keep the better hit")
    _add_penalty_args(mp)

    # stats ---------------------------------------------------------------
    stats = sub.add_parser(
        "stats", help="align a .seq workload and print batch statistics"
    )
    stats.add_argument("-i", "--input", required=True)
    stats.add_argument("--adaptive", action="store_true")
    _add_penalty_args(stats)

    # fig1 ---------------------------------------------------------------
    fig = sub.add_parser("fig1", help="reproduce the paper's Fig. 1")
    fig.add_argument("--quick", action="store_true")
    fig.add_argument("--json", help="also write a machine-readable record")

    # qa -----------------------------------------------------------------
    qa = sub.add_parser(
        "qa",
        help="differential verification: PIM kernel vs host oracles",
    )
    qa.add_argument("--trials", type=int, default=200,
                    help="seeded corpus cases per run (default: 200)")
    qa.add_argument("--seed", type=int, default=42)
    qa.add_argument("--max-len", type=int, default=32)
    qa.add_argument("--max-edits", type=int, default=4)
    qa.add_argument("--dpus", type=int, default=4)
    qa.add_argument("--tasklets", type=int, default=4)
    qa.add_argument("--workers", type=int, default=1)
    qa.add_argument("--shards", type=int, default=1,
                    help="run the sweep through a round-striped fleet of "
                         "this many shards (--dpus DPUs each; default: 1 "
                         "= the unsharded scheduler)")
    qa.add_argument("--no-shrink", action="store_true",
                    help="skip minimizing failing cases")
    qa.add_argument("--kill-dpu", type=int, default=None, metavar="ID",
                    help="also run under a fault plan that kills this DPU "
                         "on its first attempt (recovery must still agree)")
    qa.add_argument("--report", metavar="PATH", default=None,
                    help="write the JSONL report here")

    # campaign ------------------------------------------------------------
    camp = sub.add_parser(
        "campaign",
        help="run an ablation x chaos campaign and write the evidence "
             "report (schema repro.qa.campaign/v1)",
    )
    camp.add_argument("--pairs", type=int, default=48,
                      help="seeded corpus pairs per cell (default: 48)")
    camp.add_argument("--length", type=int, default=16)
    camp.add_argument("--max-edits", type=int, default=4)
    camp.add_argument("--seed", type=int, default=42)
    camp.add_argument("--dpus", type=int, default=4,
                      help="DPUs per shard (default: 4)")
    camp.add_argument("--tasklets", type=int, default=2)
    camp.add_argument("--pairs-per-round", type=int, default=8)
    camp.add_argument("--baseline-shards", type=int, default=2,
                      help="shard count ablations inherit unless pinned "
                           "(default: 2)")
    camp.add_argument("--serve-requests", type=int, default=24,
                      help="serve-phase load replay size per cell "
                           "(0 skips the serve phase)")
    camp.add_argument("--serve-rate", type=float, default=4000.0)
    camp.add_argument("--workers", type=int, default=0,
                      help="process-pool width for cells (0/1 = inline; "
                           "the report is byte-identical either way)")
    camp.add_argument("--ablations", default=None, metavar="A,B,...",
                      help="comma-separated standard ablation names "
                           "(default: the full vocabulary; the first must "
                           "be 'baseline')")
    camp.add_argument("--grid", default=None, metavar="P,Q,...",
                      help="comma-separated standard fault grid point "
                           "names (default: the full grid)")
    camp.add_argument("--report", metavar="PATH", default=None,
                      help="write the JSONL campaign report here "
                           "(validated after writing)")
    camp.add_argument("--resume", action="store_true",
                      help="salvage completed cells from an existing "
                           "--report file and compute only the rest")
    camp.add_argument("--events-out", metavar="PATH", default=None,
                      help="write the campaign's structured event log here")

    # serve ---------------------------------------------------------------
    srv = sub.add_parser(
        "serve",
        help="run the micro-batching alignment service over JSONL requests",
    )
    srv.add_argument("-i", "--input", default=None,
                     help="JSONL request file (default: stdin); each line "
                          '{"client": ..., "id": ..., "pairs": [[P, T], ...]'
                          ', "arrival_s": ...}')
    srv.add_argument("-o", "--output", default=None,
                     help="JSONL response path (default: stdout)")
    _add_serve_args(srv)
    _add_penalty_args(srv)

    # loadgen -------------------------------------------------------------
    lg = sub.add_parser(
        "loadgen",
        help="replay a deterministic synthetic load against the service",
    )
    lg.add_argument("--requests", type=int, default=200)
    lg.add_argument("--rate", type=float, default=2000.0,
                    help="mean arrival rate, requests per modeled second")
    lg.add_argument("--process", choices=("uniform", "bursty", "ramp"),
                    default="uniform")
    lg.add_argument("--burst", type=int, default=8)
    lg.add_argument("--rate-end", type=float, default=None,
                    help="final rate for --process ramp (default: 4x rate)")
    lg.add_argument("--pairs-per-request", type=int, default=1)
    lg.add_argument("--clients", type=int, default=4)
    lg.add_argument("--length", type=int, default=16)
    lg.add_argument("--error-rate", type=float, default=0.05)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--report", metavar="PATH", default=None,
                    help="write the JSONL latency report here (validated)")
    lg.add_argument("--slo-target", type=float, default=None, metavar="S",
                    help="enable the SLO monitor: per-request latency "
                         "target in modeled seconds; the report gains an "
                         "'slo' section with burn-rate alerts")
    lg.add_argument("--slo-percentile", type=float, default=99.0,
                    help="latency percentile the SLO is stated at")
    lg.add_argument("--slo-budget", type=float, default=0.01,
                    help="error budget: tolerated bad-request fraction")
    lg.add_argument("--events-out", metavar="PATH", default=None,
                    help="write the structured event log (breaker / "
                         "watchdog / fallback / slo_alert) as JSONL")
    lg.add_argument("--trace-out", metavar="PATH", default=None,
                    help="write a Chrome trace_event JSON of the replay "
                         "with events as instant annotations")
    _add_serve_args(lg)
    _add_penalty_args(lg)

    # bench ---------------------------------------------------------------
    bench = sub.add_parser(
        "bench",
        help="perf ledger: run registered scenarios / gate regressions",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    brun = bench_sub.add_parser(
        "run", help="run bench scenarios and append records to the ledger"
    )
    brun.add_argument("--profile", choices=("quick", "full"), default="quick",
                      help="workload size: 'quick' is CI-safe seconds, "
                           "'full' is the overnight shape")
    brun.add_argument("--scenario", action="append", default=None,
                      metavar="NAME",
                      help="run only this scenario (repeatable; default: "
                           "the full catalog)")
    brun.add_argument("--ledger", default="BENCH_ledger.json", metavar="PATH",
                      help="ledger file to append to")
    brun.add_argument("--no-append", action="store_true",
                      help="run and print, but do not touch the ledger")
    bcmp = bench_sub.add_parser(
        "compare",
        help="gate the latest ledger records against a baseline "
             "(non-zero exit on regression)",
    )
    bcmp.add_argument("--ledger", default="BENCH_ledger.json", metavar="PATH")
    bcmp.add_argument("--baseline", default="BENCH_baseline.json",
                      metavar="PATH")
    bcmp.add_argument("--max-drop", type=float, default=0.10,
                      help="tolerated modeled-throughput drop (fraction)")
    bcmp.add_argument("--max-rise", type=float, default=0.10,
                      help="tolerated modeled seconds / latency growth "
                           "(fraction)")

    # sweep -----------------------------------------------------------------
    sweep = sub.add_parser("sweep", help="run an ablation/extension sweep")
    sweep.add_argument(
        "which",
        choices=(
            "tasklets",
            "allocator",
            "error-rate",
            "read-length",
            "dpus",
            "algos",
            "staging",
            "sensitivity",
        ),
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = DatasetSpec(
        num_pairs=args.pairs,
        length=args.length,
        error_rate=args.error_rate,
        seed=args.seed,
        error_model=args.error_model,
    )
    writer = write_seq if args.format == "seq" else write_fasta_pairs
    count = writer(args.output, spec.stream())
    print(f"wrote {count} pairs ({spec.describe()}) to {args.output}")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    pairs = read_seq(args.input)
    penalties = _penalties_from_args(args)
    aligner = WavefrontAligner(
        penalties, heuristic="adaptive" if args.adaptive else None
    )
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        print("pair\tscore\tcigar", file=out)
        for idx, pair in enumerate(pairs):
            result = aligner.align(pair.pattern, pair.text, score_only=args.score_only)
            cigar = str(result.cigar) if result.cigar is not None else "."
            print(f"{idx}\t{result.score}\t{cigar}", file=out)
    finally:
        if args.output:
            out.close()
    if args.output:
        print(f"aligned {len(pairs)} pairs -> {args.output}")
    return 0


def _write_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Reconcile and export the run's telemetry, every shard included."""
    from repro.obs.export import (
        write_chrome_trace,
        write_manifest_jsonl,
        write_metrics_json,
        write_prometheus,
    )

    summary = telemetry.reconcile()
    if args.metrics_out:
        path = args.metrics_out
        if path.endswith((".prom", ".txt")):
            write_prometheus(path, telemetry.federated_registry())
        elif path.endswith(".jsonl"):
            write_manifest_jsonl(path, telemetry)
        else:
            write_metrics_json(path, telemetry)
        print(f"wrote metrics to {path}")
    if args.trace_out:
        doc = write_chrome_trace(args.trace_out, telemetry)
        print(
            f"wrote Chrome trace to {args.trace_out} "
            f"({len(doc['traceEvents'])} events; open in chrome://tracing)"
        )
    print(
        f"telemetry reconciled: {summary['runs']} run(s), "
        f"{human_time(summary['model_seconds'])} of model time"
    )


def _write_pim_tsv(path: str, records) -> None:
    """Write gathered alignments as ``index<TAB>score<TAB>cigar`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, score, cigar in sorted(records):
            fh.write(f"{index}\t{score}\t{cigar if cigar is not None else ''}\n")
    print(f"wrote alignments to {path}")


def _cmd_pim_align(args: argparse.Namespace) -> int:
    """Align a workload through the fleet: one shard is the plain
    scheduler, more stripe rounds across shards.  ``--journal`` is a
    file on one shard and a directory (per-shard journals plus the
    ``repro.pim.fleet/v1`` manifest) on more; fault ids index the
    federated fleet."""
    import warnings

    from repro.errors import DegradedCapacity, LayoutError
    from repro.pim.config import PimSystemConfig
    from repro.pim.fleet import FleetCoordinator
    from repro.pim.kernel import KernelConfig

    pairs = read_seq(args.input)
    if not pairs:
        print("input holds no pairs", file=sys.stderr)
        return 1
    if args.resume and args.journal is None:
        print("error: --resume requires --journal", file=sys.stderr)
        return 1
    max_len = max(p.max_length() for p in pairs)
    # without a budget, infer one from the data: a conservative 10% of
    # the read length
    max_edits = args.max_edits if args.max_edits is not None else max(1, max_len // 10)
    telemetry = None
    if args.metrics_out or args.trace_out:
        from repro.obs import RunTelemetry

        telemetry = RunTelemetry()
    net_plan, transport_policy = _parse_net_plan(args)
    kernel_config = KernelConfig(
        penalties=_penalties_from_args(args),
        max_read_len=max_len,
        max_edits=max_edits,
        engine=args.engine,
    )
    fleet = FleetCoordinator(
        PimSystemConfig(
            num_dpus=args.dpus,
            num_ranks=max(1, args.dpus // 64) if args.dpus % 64 == 0 else 1,
            tasklets=args.tasklets,
            num_simulated_dpus=args.dpus,
            metadata_policy=args.policy,
            workers=args.workers,
        ),
        kernel_config,
        shards=args.shards,
        health_policy=_health_policy(args),
        telemetry=telemetry,
        net_plan=net_plan,
        transport_policy=transport_policy,
    )
    run_args = dict(
        pairs_per_round=args.pairs_per_round,
        collect_results=bool(args.output),
        fault_plan=_fault_plan(args),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegradedCapacity)
        try:
            if args.resume:
                run = fleet.resume_run(args.journal, pairs, **run_args)
            else:
                run = fleet.run(pairs, journal=args.journal, **run_args)
        except LayoutError as exc:
            if args.max_edits is not None:
                raise
            # The inferred budget sizes every tasklet's metadata arena.
            raise LayoutError(
                f"{exc}; --max-edits was inferred as {max_edits} (a tenth of "
                f"the longest read), which reserves "
                f"{kernel_config.metadata_peak_bytes():,} B of wavefront metadata "
                f"for each of the {args.tasklets} --tasklets: pass a smaller "
                f"--max-edits or fewer --tasklets"
            ) from exc
    if args.output:
        _write_pim_tsv(args.output, run.results())
    rows = [
        ("pairs", f"{run.schedule.total_pairs:,}"),
        ("shards x DPUs", f"{args.shards} x {args.dpus} = {fleet.total_dpus}"),
        ("tasklets / policy", f"{args.tasklets} / {args.policy}"),
        ("rounds (replayed)", f"{run.schedule.rounds} ({run.rounds_replayed})"),
        ("kernel", human_time(run.kernel_seconds)),
        ("transfers", human_time(run.transfer_seconds)),
        ("recovery overhead", human_time(run.recovery_seconds)),
        ("makespan", human_time(run.total_seconds)),
        ("shard-serial time", human_time(run.serial_seconds)),
        ("fleet speedup", f"{run.speedup():.2f}x"),
        ("throughput", f"{run.throughput():,.0f} pairs/s"),
    ]
    if run.transport is not None:
        t = run.transport
        rows.extend([
            ("net drops / redeliveries", f"{t.drops} / {t.redeliveries}"),
            ("net partition-blocked", str(t.partition_blocked)),
            ("net steals / dups absorbed",
             f"{t.steals} / {t.duplicates_absorbed}"),
        ])
    print(format_table(["metric", "value"], rows, title="simulated PIM run"))
    if run.transport is not None:
        open_links = sorted(
            k for k, s in fleet.transport.link_states(run.total_seconds).items()
            if s != "closed"
        )
        if open_links:
            print(f"links not closed: {open_links}")
    if run.recovery is not None:
        print(f"recovery: {run.recovery.faults_seen} fault(s), "
              f"{len(run.recovery.rerun_pairs)} pair(s) re-run, "
              f"{len(run.recovery.abandoned_pairs)} abandoned")
    for shard, states in fleet.health_states().items():
        if states is None:
            continue
        open_dpus = sorted(d for d, s in states.items() if s != "closed")
        if open_dpus:
            print(f"shard {shard} breakers not closed: {open_dpus} "
                  f"(states: { {d: states[d] for d in open_dpus} })")
    for warning in caught:
        if issubclass(warning.category, DegradedCapacity):
            print(f"warning: {warning.message}", file=sys.stderr)
    if args.journal:
        appended = run.schedule.rounds - run.rounds_replayed
        print(f"journal: {args.journal} ({appended} round(s) appended "
              f"across {len(set(run.placements))} shard journal(s))")
    if telemetry is not None:
        _write_telemetry(args, telemetry)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.core.span import AlignmentSpan
    from repro.data.paf import from_alignment, write_paf
    from repro.data.seqio import read_fasta
    from repro.data.seqtools import reverse_complement

    refs = read_fasta(args.reference)
    if len(refs) != 1:
        print(
            f"error: reference must hold exactly one record, got {len(refs)}",
            file=sys.stderr,
        )
        return 1
    ref_name, reference = refs[0]
    reads = read_fasta(args.reads)
    if not reads:
        print("error: no reads found", file=sys.stderr)
        return 1

    aligner = WavefrontAligner(
        _penalties_from_args(args), span=AlignmentSpan.semiglobal()
    )
    records = []
    for name, seq in reads:
        fwd = aligner.align(seq, reference)
        best, strand = fwd, "+"
        if args.both_strands:
            rev = aligner.align(reverse_complement(seq), reference)
            if rev.score < best.score:
                best, strand = rev, "-"
        records.append(from_alignment(best, name, ref_name, strand=strand))
    write_paf(args.output, records)
    print(
        f"mapped {len(records)} reads onto {ref_name} "
        f"({len(reference)} bp) -> {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis import summarize_results

    pairs = read_seq(args.input)
    if not pairs:
        print("input holds no pairs", file=sys.stderr)
        return 1
    aligner = WavefrontAligner(
        _penalties_from_args(args), heuristic="adaptive" if args.adaptive else None
    )
    results = [aligner.align(p.pattern, p.text) for p in pairs]
    print(summarize_results(results).report())
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.fig1 import Fig1Config, run_fig1

    config = (
        Fig1Config(
            cpu_sample_pairs=100, pim_sample_pairs_per_dpu=32, num_simulated_dpus=1
        )
        if args.quick
        else Fig1Config()
    )
    result = run_fig1(config)
    print(result.report())
    if args.json:
        from repro.experiments.record import fig1_to_dict, write_record

        path = write_record(fig1_to_dict(result), args.json)
        print(f"\nwrote machine-readable record to {path}")
    return 0


def _cmd_qa(args: argparse.Namespace) -> int:
    from repro.pim.faults import DpuDeath, FaultPlan
    from repro.qa import QaConfig, run_qa, validate_qa_report

    fault_plan = None
    if args.kill_dpu is not None:
        fault_plan = FaultPlan(
            seed=args.seed, deaths=(DpuDeath(dpu_id=args.kill_dpu),)
        )
    report = run_qa(
        QaConfig(
            trials=args.trials,
            seed=args.seed,
            max_len=args.max_len,
            max_edits=args.max_edits,
            num_dpus=args.dpus,
            tasklets=args.tasklets,
            workers=args.workers,
            shards=args.shards,
            shrink=not args.no_shrink,
            fault_plan=fault_plan,
        )
    )
    print(report.summary())
    if args.report:
        path = report.write(args.report)
        validate_qa_report(path)
        print(f"wrote schema-valid report to {path}")
    for model, recovery in report.recovery.items():
        print(f"recovery[{model}]: {recovery['faults_seen']} fault(s), "
              f"{len(recovery['rerun_pairs'])} pair(s) re-run, "
              f"{len(recovery['abandoned_pairs'])} abandoned")
    if not report.all_ok:
        for item in report.shrunk:
            print(
                f"minimal repro [{item['penalties']}]: "
                f"pattern={item['pattern']!r} text={item['text']!r}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.pim.ablation import STANDARD_ABLATIONS, ablation_by_name
    from repro.qa.campaign import (
        STANDARD_GRID,
        CampaignConfig,
        grid_point_by_name,
        run_campaign,
        validate_campaign_report,
    )

    ablations = STANDARD_ABLATIONS
    if args.ablations:
        ablations = tuple(
            ablation_by_name(name.strip())
            for name in args.ablations.split(",")
        )
    grid = STANDARD_GRID
    if args.grid:
        grid = tuple(
            grid_point_by_name(name.strip()) for name in args.grid.split(",")
        )
    config = CampaignConfig(
        pairs=args.pairs,
        length=args.length,
        max_edits=args.max_edits,
        seed=args.seed,
        num_dpus=args.dpus,
        tasklets=args.tasklets,
        pairs_per_round=args.pairs_per_round,
        baseline_shards=args.baseline_shards,
        serve_requests=args.serve_requests,
        serve_rate=args.serve_rate,
        ablations=ablations,
        grid=grid,
    )
    telemetry = None
    if args.events_out:
        from repro.obs import RunTelemetry

        telemetry = RunTelemetry()
    report = run_campaign(
        config,
        workers=args.workers,
        report_path=args.report,
        resume=args.resume,
        telemetry=telemetry,
    )
    print(report.summary_text())
    if args.report:
        validate_campaign_report(args.report)
        print(f"wrote schema-valid campaign report to {args.report}")
    if args.events_out:
        from repro.obs import write_events_jsonl

        write_events_jsonl(args.events_out, telemetry)
        print(f"wrote event log to {args.events_out}")
    baseline = report.config.baseline
    for record in report.cells:
        if record["delta"] is None:
            continue
        delta = record["delta"]
        print(
            f"  {record['cell']}: throughput x{delta['throughput_ratio']:.3f}, "
            f"recovery {delta['recovery_seconds_delta']:+.4f}s, "
            f"oracle {delta['oracle_agreement_delta']:+.3f} "
            f"vs {baseline}"
        )
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.data.generator import ReadPair
    from repro.errors import Overloaded
    from repro.serve import AlignRequest

    service = _build_serve_service(args)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    else:
        lines = [line for line in sys.stdin.read().splitlines() if line.strip()]

    futures = []
    for lineno, line in enumerate(lines):
        try:
            record = _json.loads(line)
            pairs = tuple(
                ReadPair(pattern=p, text=t) for p, t in record["pairs"]
            )
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: bad request on line {lineno + 1}: {exc}",
                  file=sys.stderr)
            return 1
        request = AlignRequest(
            client=str(record.get("client", "cli")),
            request_id=str(record.get("id", f"r{lineno:06d}")),
            pairs=pairs,
        )
        arrival = record.get("arrival_s")
        if arrival is not None:
            service.clock.advance_to(float(arrival))
        try:
            futures.append((request, service.submit(request)))
        except Overloaded as exc:
            futures.append((request, exc))
    service.drain()

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    completed = rejected = 0
    try:
        for request, future in futures:
            if isinstance(future, Overloaded):
                rejected += 1
                doc = {"client": request.client, "id": request.request_id,
                       "error": "overloaded", "detail": str(future)}
            elif future.exception() is not None:
                # fault recovery abandoned one of the request's pairs
                rejected += 1
                doc = {"client": request.client, "id": request.request_id,
                       "error": "failed", "detail": str(future.exception())}
            else:
                completed += 1
                doc = future.result().to_dict()
            print(_json.dumps(doc, sort_keys=True), file=out)
    finally:
        if args.output:
            out.close()
    print(f"served {completed} request(s), rejected {rejected} "
          f"({service.dispatcher.batches_dispatched} batch(es))",
          file=sys.stderr)
    if service.dispatcher.recovery is not None:
        rec = service.dispatcher.recovery
        print(f"recovery: {rec.faults_seen} fault(s), "
              f"{len(rec.rerun_pairs)} pair(s) re-run, "
              f"{len(rec.abandoned_pairs)} abandoned", file=sys.stderr)
    if args.metrics_out:
        _write_serve_metrics(args.metrics_out, service)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import LoadgenConfig, run_load, validate_load_report

    service = _build_serve_service(args)
    config = LoadgenConfig(
        requests=args.requests,
        rate=args.rate,
        process=args.process,
        burst=args.burst,
        rate_end=args.rate_end,
        pairs_per_request=args.pairs_per_request,
        clients=args.clients,
        length=args.length,
        error_rate=args.error_rate,
        seed=args.seed,
    )
    slo = None
    if args.slo_target is not None:
        from repro.obs.slo import SloPolicy

        slo = SloPolicy(
            latency_target_s=args.slo_target,
            latency_percentile=args.slo_percentile,
            error_budget=args.slo_budget,
        )
    report = run_load(service, config, slo=slo)
    summary = report.summary()
    rows = [
        ("requests", f"{summary['requests']:,}"),
        ("completed / rejected",
         f"{summary['completed']:,} / {summary['rejected']:,}"),
        ("pairs served (cached)",
         f"{summary['pairs_served']:,} ({summary['cached_pairs']:,})"),
        ("batches", f"{summary['batches']:,}"),
        ("latency p50 / p99",
         f"{human_time(summary['latency_p50_s'])} / "
         f"{human_time(summary['latency_p99_s'])}"),
        ("makespan", human_time(summary["makespan_s"])),
        ("throughput", f"{summary['throughput_pairs_per_s']:,.0f} pairs/s"),
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"loadgen ({config.process}, seed {config.seed})"))
    if report.recovery is not None:
        print(f"recovery: {report.recovery['faults_seen']} fault(s), "
              f"{len(report.recovery['rerun_pairs'])} pair(s) re-run, "
              f"{len(report.recovery['abandoned_pairs'])} abandoned")
    if summary.get("slo") is not None:
        slo_doc = summary["slo"]
        print(
            f"slo: p{slo_doc['policy']['latency_percentile']:g} target "
            f"{human_time(slo_doc['policy']['latency_target_s'])} -> "
            f"{'met' if slo_doc['met'] else 'MISSED'} "
            f"(achieved {human_time(slo_doc['achieved_latency_s'])}, "
            f"budget consumed {slo_doc['budget_consumed']:.2f}x, "
            f"alerts fired/resolved "
            f"{slo_doc['alerts_fired']}/{slo_doc['alerts_resolved']})"
        )
    if args.report:
        report.write(args.report)
        validate_load_report(args.report)
        print(f"wrote schema-valid report to {args.report}")
    if args.metrics_out:
        _write_serve_metrics(args.metrics_out, service)
    if args.events_out:
        from repro.obs.export import write_events_jsonl

        written = write_events_jsonl(args.events_out, service.telemetry)
        print(f"wrote event log to {args.events_out} ({written} event(s))")
    if args.trace_out:
        from repro.obs.export import write_chrome_trace

        doc = write_chrome_trace(args.trace_out, service.telemetry)
        print(f"wrote Chrome trace to {args.trace_out} "
              f"({len(doc['traceEvents'])} events)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        append_records,
        compare,
        load_ledger,
        run_scenarios,
    )

    if args.bench_command == "run":
        records = run_scenarios(
            names=args.scenario,
            profile=args.profile,
            progress=lambda name: print(f"running {name} ...", flush=True),
        )
        rows = [
            (
                r["scenario"],
                f"{r['pairs_per_second']:,.0f}",
                human_time(r["total_seconds"]),
                human_time(r["kernel_seconds"]),
                human_time(r["latency_p99_s"]),
            )
            for r in records
        ]
        print(format_table(
            ["scenario", "pairs/s", "total", "kernel", "p99"],
            rows,
            title=f"bench ({args.profile} profile)",
        ))
        if args.no_append:
            print(f"{len(records)} record(s) not appended (--no-append)")
            return 0
        total = append_records(args.ledger, records)
        print(f"appended {len(records)} record(s) to {args.ledger} "
              f"({total} total)")
        return 0

    # compare: the CI regression gate
    ledger = load_ledger(args.ledger)
    baseline = load_ledger(args.baseline)
    if not baseline:
        print(f"error: no baseline records at {args.baseline}",
              file=sys.stderr)
        return 1
    if not ledger:
        print(f"error: no ledger records at {args.ledger} — "
              f"run `repro bench run` first", file=sys.stderr)
        return 1
    failures = compare(
        ledger,
        baseline,
        max_throughput_drop=args.max_drop,
        max_latency_rise=args.max_rise,
    )
    scenarios = sorted({r["scenario"] for r in baseline})
    print(f"gate: {len(scenarios)} scenario(s) vs {args.baseline} "
          f"(max drop {args.max_drop:.0%}, max rise {args.max_rise:.0%})")
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Print one sweep at its defaults: the committed ``benchmarks/out`` table."""
    from repro.experiments import sensitivity, sweeps

    runner = {
        "tasklets": sweeps.tasklet_sweep,
        "allocator": sweeps.allocator_policy_ablation,
        "error-rate": sweeps.error_rate_sweep,
        "read-length": sweeps.read_length_sweep,
        "dpus": sweeps.dpu_count_sweep,
        "algos": sweeps.algorithm_comparison,
        "staging": sweeps.staging_chunk_ablation,
        "sensitivity": sensitivity.sensitivity_analysis,
    }[args.which]
    print(runner().report())
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "align": _cmd_align,
    "pim-align": _cmd_pim_align,
    "map": _cmd_map,
    "stats": _cmd_stats,
    "fig1": _cmd_fig1,
    "qa": _cmd_qa,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A library error or a file the OS refuses (a missing input, a
    directory where a file belongs) prints ``error: <msg>`` and exits 1.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
