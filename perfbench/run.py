"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` runs a separate traced phase and
prints every per-layer metric, and writes the traced spans to
``perfbench/out/``.  Workload constants and notes live in
``perfbench/bench.json``.  Diagnostics go to stderr; the last line of
stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_batch", "long_reads", "serve_fleet")
#: fresh interpreters timed importing the program; set-up counts their median
IMPORT_REPEATS = 3
_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - start)"
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(src: Path, nominal_ref_s: float) -> float:
    """Median calibrated time for a fresh interpreter to import the program."""
    from refloop import reference_seconds

    times, refs = [], [reference_seconds()]
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT, str(src), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(child.stdout))
        refs.append(reference_seconds())
    return statistics.median(times) * nominal_ref_s / statistics.median(refs)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program source under {src} (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    notes = json.loads((HERE / "bench.json").read_text(encoding="utf-8"))
    seed = args.seed if args.seed is not None else notes["default_seed"]
    nominal = notes["ref_nominal_s"]

    import_s = import_seconds(src, nominal)
    import workloads

    trace = bool(args.trace)
    if args.workload == "serve_fleet":
        serve = notes["serve_fleet"]
        result = workloads.serve_fleet(
            seed, args.seconds, trace, nominal, serve["rate_rps"], serve["latency_limit_s"]
        )
    else:
        run = getattr(workloads, args.workload)
        result = run(seed, args.seconds, trace, nominal)
    metrics = result.metrics
    metrics["setup_s"] += import_s
    metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    metrics["bench.failed_share"] = result.failed / max(1, result.attempted)

    if result.tracer is not None:
        out = HERE / "out" / f"spans-{args.workload}-{seed}.json"
        result.tracer.write_spans(out)
        total = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in result.tracer.layers)
        print(f"spans: {out} ({len(result.tracer.spans)} spans)", file=sys.stderr)
        for layer in sorted(result.tracer.layers, key=lambda l: -metrics.get(f"{l}.self_s", 0.0)):
            share = metrics.get(f"{layer}.self_s", 0.0) / total if total else 0.0
            print(f"  {layer:20s} {share:6.1%}", file=sys.stderr)
    for problem in result.problems:
        print(f"check: {problem}", file=sys.stderr)

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    report = {}
    for spec in wanted:
        value = metrics.get(spec["name"], 0.0 if trace else None)
        if value is None or not math.isfinite(value):
            print(f"error: metric {spec['name']} was not measured", file=sys.stderr)
            return 1
        report[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
