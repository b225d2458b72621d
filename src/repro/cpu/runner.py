"""Functional CPU execution of WFA workloads.

Two roles:

* :meth:`CpuRunner.measure` — align a sample of pairs with the reference
  WFA implementation and accumulate the operation counters that the
  roofline model (:mod:`repro.cpu.model`) extrapolates to full workload
  timings.  This is the CPU-side half of the functional-first
  methodology.
* :meth:`CpuRunner.align_all` — actually align a batch, one pair after
  another (the paper's C implementation uses threads, which the modeled
  thread counts represent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.aligner import AlignmentResult, WavefrontAligner
from repro.core.penalties import AffinePenalties, Penalties
from repro.core.wavefront import WfaCounters
from repro.data.generator import ReadPair
from repro.errors import ConfigError

__all__ = ["CpuSampleMeasurement", "CpuRunner"]


@dataclass
class CpuSampleMeasurement:
    """Accumulated functional counts over a measured sample."""

    counters: WfaCounters
    pairs: int
    seq_bytes_per_pair: float
    scores: list[int] = field(default_factory=list)

    @property
    def cells_per_pair(self) -> float:
        return self.counters.cells_computed / self.pairs if self.pairs else 0.0

    @property
    def metadata_bytes_per_pair(self) -> float:
        return self.counters.metadata_bytes() / self.pairs if self.pairs else 0.0


class CpuRunner:
    """Reference (CPU-side) WFA executor and counter harvester."""

    def __init__(
        self,
        penalties: Optional[Penalties] = None,
        *,
        traceback: bool = True,
        adaptive: bool = False,
    ) -> None:
        self.penalties = penalties if penalties is not None else AffinePenalties()
        self.traceback = traceback
        self.heuristic = "adaptive" if adaptive else None
        self._aligner = WavefrontAligner(self.penalties, heuristic=self.heuristic)

    def measure(self, pairs: Sequence[ReadPair]) -> CpuSampleMeasurement:
        """Align every pair, accumulating counters and sequence sizes."""
        if not pairs:
            raise ConfigError("measure() needs at least one pair")
        total = WfaCounters()
        scores: list[int] = []
        seq_bytes = 0
        for pair in pairs:
            result = self._aligner.align(
                pair.pattern, pair.text, score_only=not self.traceback
            )
            total.add(result.counters)
            scores.append(result.score)
            seq_bytes += len(pair.pattern) + len(pair.text)
        return CpuSampleMeasurement(
            counters=total,
            pairs=len(pairs),
            seq_bytes_per_pair=seq_bytes / len(pairs),
            scores=scores,
        )

    def align_all(self, pairs: Sequence[ReadPair]) -> list[AlignmentResult]:
        """Align a batch in order."""
        return [
            self._aligner.align(p.pattern, p.text, score_only=not self.traceback)
            for p in pairs
        ]
