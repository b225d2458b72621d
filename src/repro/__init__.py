"""repro — reproduction of Diab et al., "High-throughput Pairwise Alignment
with the Wavefront Algorithm using Processing-in-Memory" (IPDPS 2022).

Top-level re-exports cover the most common entry points:

* :class:`WavefrontAligner` / penalty models — align sequence pairs.
* :mod:`repro.data` — synthetic read-pair workloads and ``.seq`` I/O.
* :mod:`repro.pim` — the UPMEM functional + timing simulator.
* :mod:`repro.cpu` — the multicore CPU runner and roofline model.
* :mod:`repro.experiments` — the paper's Fig. 1 and extension sweeps.
"""

from repro.core import (
    AdaptiveReduction,
    AffinePenalties,
    AlignmentResult,
    AlignmentSpan,
    Cigar,
    EditPenalties,
    LinearPenalties,
    Penalties,
    StaticBand,
    TwoPieceAffinePenalties,
    WavefrontAligner,
)

__version__ = "1.0.0"

__all__ = [
    "WavefrontAligner",
    "AlignmentResult",
    "AlignmentSpan",
    "Cigar",
    "Penalties",
    "EditPenalties",
    "LinearPenalties",
    "AffinePenalties",
    "TwoPieceAffinePenalties",
    "AdaptiveReduction",
    "StaticBand",
    "__version__",
]
