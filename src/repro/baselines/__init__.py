"""Classical alignment baselines used for correctness oracles and context.

* Gotoh gap-affine DP (full and banded) — WFA's exact-score reference.
* Myers O(ND) — indel (LCS) distance.
* Myers 1999 bit-parallel + textbook DP — Levenshtein references.
"""

from repro.baselines.banded import (
    band_for_error_rate,
    banded_gotoh_align,
    banded_gotoh_score,
)
from repro.baselines.bitparallel import levenshtein_dp, myers_edit_distance
from repro.baselines.gotoh import gotoh_align, gotoh_score
from repro.baselines.gotoh2p import gotoh2p_score
from repro.baselines.gotoh_endsfree import gotoh_endsfree_score
from repro.baselines.myers_ond import myers_indel_distance

__all__ = [
    "gotoh_score",
    "gotoh_align",
    "gotoh2p_score",
    "gotoh_endsfree_score",
    "banded_gotoh_score",
    "banded_gotoh_align",
    "band_for_error_rate",
    "myers_indel_distance",
    "myers_edit_distance",
    "levenshtein_dp",
]
