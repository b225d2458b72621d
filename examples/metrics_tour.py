#!/usr/bin/env python3
"""A tour of every distance metric and alignment mode in the library.

One noisy pair, aligned under all four penalty models, in all the modes:
exact, adaptive, static band, score-only, ends-free, and linear-space
traceback — each checked against its classical-DP oracle.

Run:  python examples/metrics_tour.py
"""

import random

from repro import (
    AdaptiveReduction,
    AffinePenalties,
    AlignmentSpan,
    EditPenalties,
    LinearPenalties,
    StaticBand,
    TwoPieceAffinePenalties,
    WavefrontAligner,
)
from repro.baselines import (
    gotoh2p_score,
    gotoh_endsfree_score,
    gotoh_score,
    levenshtein_dp,
    myers_miller_align,
)
from repro.data import mutate_sequence, random_sequence
from repro.perf import format_table


def main() -> None:
    rng = random.Random(1001)
    pattern = random_sequence(120, rng)
    text = mutate_sequence(pattern, 8, rng)

    rows = []

    # --- the four metrics, each against its oracle -----------------------
    metrics = [
        ("edit (Levenshtein)", EditPenalties(), lambda p, t, pen: levenshtein_dp(p, t)),
        ("gap-linear (4,2)", LinearPenalties(4, 2), gotoh_score),
        ("gap-affine (4,6,2)", AffinePenalties(4, 6, 2), gotoh_score),
        (
            "gap-affine-2p (4,6,2,24,1)",
            TwoPieceAffinePenalties(),
            lambda p, t, pen: gotoh2p_score(p, t, pen),
        ),
    ]
    for name, pen, oracle in metrics:
        r = WavefrontAligner(pen).align(pattern, text)
        expect = oracle(pattern, text, pen)
        assert r.score == expect, (name, r.score, expect)
        rows.append((name, r.score, str(r.cigar)[:34] + "...", "= oracle"))

    # --- modes on the affine metric --------------------------------------------
    pen = AffinePenalties(4, 6, 2)
    exact = WavefrontAligner(pen).align(pattern, text)

    adaptive = WavefrontAligner(pen, heuristic=AdaptiveReduction()).align(
        pattern, text
    )
    rows.append(
        (
            "affine + WFA-Adapt",
            adaptive.score,
            f"{adaptive.counters.cells_computed} cells "
            f"(exact: {exact.counters.cells_computed})",
            "upper bound" if adaptive.score > exact.score else "= exact",
        )
    )

    banded = WavefrontAligner(pen, heuristic=StaticBand(12, 12)).align(pattern, text)
    rows.append(
        (
            "affine + static band 12",
            banded.score,
            f"{banded.counters.cells_computed} cells",
            "upper bound" if banded.score > exact.score else "= exact",
        )
    )

    mm_score, mm_cigar = myers_miller_align(pattern, text, pen)
    assert mm_score == exact.score
    rows.append(
        ("affine, linear-space traceback", mm_score, str(mm_cigar)[:34] + "...", "= exact")
    )

    span = AlignmentSpan.semiglobal()
    embedded = "GGTT" * 6 + pattern + "AACC" * 6
    semi = WavefrontAligner(pen, span=span).align(text, embedded)
    oracle = gotoh_endsfree_score(text, embedded, pen, span)
    assert semi.score == oracle
    rows.append(
        (
            "affine, semi-global (read in contig)",
            semi.score,
            f"maps at text[{semi.text_start}:{semi.text_end}]",
            "= oracle",
        )
    )

    print(
        format_table(
            ["mode", "score", "notes", "check"],
            rows,
            title=f"one pair ({len(pattern)}bp, 8 edits requested), every mode",
        )
    )


if __name__ == "__main__":
    main()
