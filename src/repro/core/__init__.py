"""WFA core: penalties, wavefronts, the algorithm, traceback, heuristics.

This package implements the paper's primary algorithmic substrate — the
wavefront alignment algorithm of Marco-Sola et al. (2021) — from scratch,
for the edit, gap-linear and gap-affine metrics, with exact and adaptive
modes and full-CIGAR or score-only output.
"""

from repro.core.aligner import AlignmentResult, WavefrontAligner
from repro.core.cigar import Cigar, CigarOp
from repro.core.heuristics import AdaptiveReduction, StaticBand
from repro.core.span import AlignmentSpan
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    Penalties,
    TwoPieceAffinePenalties,
)
from repro.core.wavefront import (
    NULL_THRESHOLD,
    OFFSET_NULL,
    Wavefront,
    WavefrontSet,
    WfaCounters,
)
from repro.core.wfa import WfaEngine
from repro.core.wfa_batch import BatchPairView, BatchWfaEngine, align_batch

__all__ = [
    "AlignmentResult",
    "WavefrontAligner",
    "Cigar",
    "CigarOp",
    "AdaptiveReduction",
    "StaticBand",
    "AlignmentSpan",
    "Penalties",
    "EditPenalties",
    "LinearPenalties",
    "AffinePenalties",
    "TwoPieceAffinePenalties",
    "Wavefront",
    "WavefrontSet",
    "WfaCounters",
    "WfaEngine",
    "BatchWfaEngine",
    "BatchPairView",
    "align_batch",
    "OFFSET_NULL",
    "NULL_THRESHOLD",
]
