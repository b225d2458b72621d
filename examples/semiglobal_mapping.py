#!/usr/bin/env python3
"""Semi-global read mapping with ends-free WFA, plus batch statistics.

Simulates the classic mapping scenario: short reads drawn (with errors)
from positions inside a reference contig, then located by aligning each
read semi-globally against its candidate window — the text may overhang
freely on both sides, the read must align end-to-end.

Also demonstrates the batch-statistics helpers.

Run:  python examples/semiglobal_mapping.py
"""

import random

from repro import AffinePenalties, AlignmentSpan, WavefrontAligner
from repro.analysis import summarize_results
from repro.data import mutate_sequence, random_sequence

READ_LEN = 80
WINDOW = 200
NUM_READS = 50
ERROR_RATE = 0.03


def main() -> None:
    rng = random.Random(404)
    penalties = AffinePenalties()
    contig = random_sequence(5000, rng)

    # Sample reads from the contig and mutate them.
    reads = []
    for _ in range(NUM_READS):
        pos = rng.randrange(len(contig) - READ_LEN)
        read = mutate_sequence(
            contig[pos : pos + READ_LEN], round(ERROR_RATE * READ_LEN), rng
        )
        # candidate window around the true position (as a seed index would give)
        w_start = max(0, pos - (WINDOW - READ_LEN) // 2)
        window = contig[w_start : w_start + WINDOW]
        reads.append((read, window, pos - w_start))

    mapper = WavefrontAligner(penalties, span=AlignmentSpan.semiglobal())
    results = []
    located = 0
    for read, window, true_offset in reads:
        res = mapper.align(read, window)
        results.append(res)
        # mapping position = where the alignment starts in the window
        if abs(res.text_start - true_offset) <= round(ERROR_RATE * READ_LEN):
            located += 1

    print(f"mapped {NUM_READS} x {READ_LEN}bp reads into {WINDOW}bp windows "
          f"(E={ERROR_RATE:.0%})")
    print(f"position recovered within +-{round(ERROR_RATE * READ_LEN)}bp: "
          f"{located}/{NUM_READS}")
    print()
    print(summarize_results(results).report())


if __name__ == "__main__":
    main()
