#!/usr/bin/env python3
"""Reproduce the paper's Fig. 1 end to end and print the figure as text.

CPU bars (1..56 threads, roofline model over measured operation counts),
PIM Kernel and PIM Total bars (cycle-level DPU model at the paper's
2560-DPU operating point), for E = 2% and 4%, plus the paper-vs-measured
speedup summary.

Run:  python examples/fig1_reproduction.py          (Fig1Config() defaults)
      python examples/fig1_reproduction.py --quick  (smaller samples)
"""

import sys
import time

from repro.experiments import Fig1Config, run_fig1


def main() -> None:
    quick = "--quick" in sys.argv
    config = (
        Fig1Config(
            cpu_sample_pairs=100, pim_sample_pairs_per_dpu=32, num_simulated_dpus=1
        )
        if quick
        else Fig1Config()
    )
    t0 = time.time()
    result = run_fig1(config)
    print(result.report())
    print()
    print(f"[reproduced in {time.time() - t0:.1f}s wall clock; "
          f"CPU sample {config.cpu_sample_pairs} pairs, "
          f"{config.num_simulated_dpus} simulated DPU(s) x "
          f"{config.pim_sample_pairs_per_dpu} pairs]")


if __name__ == "__main__":
    main()
