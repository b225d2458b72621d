"""Wall-clock benchmark: sequential vs host-parallel DPU simulation.

Times ``PimSystem.align`` over the same workload class as
``bench_pim_simulator.py`` (100 bp reads, E = 2%, affine penalties) at a
fidelity-oriented DPU count (32 simulated DPUs by default) for a sweep
of worker counts, and verifies that every parallel run reproduces the
sequential results exactly.

Run it directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_host_parallel.py
    PYTHONPATH=src python benchmarks/bench_host_parallel.py \
        --dpus 32 --pairs-per-dpu 8 --workers 1,2,4

Writes a machine-readable record to ``benchmarks/out/host_parallel.json``.
Meaningful speedups require real cores: on a single-CPU host the pool
only adds overhead, and the report says so.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import time
from pathlib import Path


def _conftest():
    """The benchmarks-local conftest, by path (pytest shadows the name)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", Path(__file__).resolve().parent / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

from repro.core.penalties import AffinePenalties
from repro.data.generator import ReadPairGenerator
from repro.pim.config import PimSystemConfig
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem

OUT_DIR = Path(__file__).parent / "out"


def build_system(num_dpus: int, tasklets: int, workers: int) -> PimSystem:
    cfg = PimSystemConfig(
        num_dpus=num_dpus,
        num_ranks=1,
        tasklets=tasklets,
        num_simulated_dpus=num_dpus,
        workers=workers,
    )
    kc = KernelConfig(
        penalties=AffinePenalties(4, 6, 2), max_read_len=100, max_edits=2
    )
    return PimSystem(cfg, kc)


def signature(res) -> list:
    return [(i, s, str(c)) for i, s, c in res.results]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dpus", type=int, default=32, help="simulated DPUs")
    ap.add_argument("--pairs-per-dpu", type=int, default=8)
    ap.add_argument("--tasklets", type=int, default=8)
    ap.add_argument(
        "--workers", default="1,2,4", help="comma-separated worker counts"
    )
    args = ap.parse_args(argv)

    worker_counts = [int(w) for w in args.workers.split(",")]
    num_pairs = args.dpus * args.pairs_per_dpu
    pairs = ReadPairGenerator(length=100, error_rate=0.02, seed=1).pairs(num_pairs)

    print(
        f"workload: {num_pairs} pairs over {args.dpus} simulated DPUs, "
        f"{args.tasklets} tasklets, host has {os.cpu_count()} CPU(s)"
    )

    rows = []
    baseline_sig = None
    baseline_s = None
    for workers in worker_counts:
        system = build_system(args.dpus, args.tasklets, workers)
        t0 = time.perf_counter()
        res = system.align(pairs, collect_results=True)
        elapsed = time.perf_counter() - t0
        sig = signature(res)
        if baseline_sig is None:
            baseline_sig, baseline_s = sig, elapsed
        elif sig != baseline_sig:
            raise AssertionError(
                f"workers={workers} produced different results than sequential"
            )
        speedup = baseline_s / elapsed
        rows.append(
            {
                "workers": workers,
                "seconds": elapsed,
                "speedup_vs_first": speedup,
                "pairs_per_second": num_pairs / elapsed,
            }
        )
        print(
            f"  workers={workers:<3d} {elapsed:8.3f} s   "
            f"{num_pairs / elapsed:9.1f} pairs/s   "
            f"speedup x{speedup:.2f}"
        )

    cpus = os.cpu_count() or 1
    if cpus < max(worker_counts):
        print(
            f"note: only {cpus} CPU(s) visible — worker counts above that "
            "cannot speed up and mostly measure pool overhead"
        )

    out_path = _conftest().write_artifact(
        "host_parallel",
        {
            "dpus": args.dpus,
            "pairs_per_dpu": args.pairs_per_dpu,
            "tasklets": args.tasklets,
            "workers": worker_counts,
            "seed": 1,
        },
        {
            "num_pairs": num_pairs,
            "cpu_count": cpus,
            "results_identical": True,
            "runs": rows,
        },
        seed=1,
    )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
