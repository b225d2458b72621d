"""Graceful degradation for the alignment service: CPU fallback.

When the :class:`~repro.pim.health.FleetHealth` ledger reports healthy
capacity below :attr:`FallbackPolicy.min_healthy_fraction`, the
dispatcher routes whole batches to a host CPU baseline instead of the
degraded PIM fleet, on the modeled clock (nothing sleeps, everything
is deterministic under a :class:`~repro.serve.clock.VirtualClock`).
Fallback results are flagged ``backend="cpu-fallback"`` on the
response and are *oracle-equal* to PIM results: the Gotoh baseline
computes the same optimal affine score the WFA kernel does, and its
CIGAR validates and rescores against the pair (the same checks
:mod:`repro.qa.oracle` applies to kernel output).

The CPU path is *modeled* like every other timing source: a fallback
batch costs ``num_pairs / cpu_pairs_per_s`` modeled seconds on the
host, and it does **not** occupy the PIM device timeline — the whole
point of falling back is that degraded device capacity stops gating
latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.baselines.bitparallel import myers_edit_distance
from repro.baselines.gotoh import gotoh_align
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cigar import Cigar
    from repro.data.generator import ReadPair
    from repro.pim.kernel import KernelConfig

__all__ = ["FallbackPolicy", "CpuFallbackBackend", "BACKEND_PIM", "BACKEND_CPU"]

BACKEND_PIM = "pim"
BACKEND_CPU = "cpu-fallback"

_BASELINES = ("gotoh", "bitparallel")


@dataclass(frozen=True)
class FallbackPolicy:
    """When and how the service degrades to the CPU baseline."""

    #: fall back when ``len(available) / num_dpus`` drops below this;
    #: ``0.0`` disables fallback (quarantine alone shrinks rounds).
    min_healthy_fraction: float = 0.5
    #: which CPU baseline serves fallback batches: ``"gotoh"`` (full
    #: affine score + CIGAR — oracle-equal to the WFA kernel) or
    #: ``"bitparallel"`` (Myers bit-vector edit distance — score only,
    #: valid when the kernel runs unit/edit penalties).
    baseline: str = "gotoh"
    #: modeled host throughput for fallback batches (pairs per second).
    cpu_pairs_per_s: float = 20_000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_healthy_fraction <= 1.0:
            raise ConfigError(
                "min_healthy_fraction must be in [0, 1], "
                f"got {self.min_healthy_fraction}"
            )
        if self.baseline not in _BASELINES:
            raise ConfigError(
                f"baseline must be one of {_BASELINES}, got {self.baseline!r}"
            )
        if self.cpu_pairs_per_s <= 0:
            raise ConfigError("cpu_pairs_per_s must be > 0")


class CpuFallbackBackend:
    """Aligns batches on the host CPU when the fleet is degraded.

    Result tuples have the exact shape the dispatcher produces for PIM
    batches — ``(score, cigar, (pattern_start, text_start))`` — so the
    service's absorption path does not branch on the backend.
    """

    def __init__(self, kernel_config: "KernelConfig", policy: FallbackPolicy) -> None:
        self.kernel_config = kernel_config
        self.policy = policy
        #: pairs served on the CPU path (diagnostics)
        self.pairs_served = 0
        self.batches_served = 0

    def align_batch(
        self, pairs: List["ReadPair"]
    ) -> Tuple[List[Tuple[int, Optional["Cigar"], Tuple[int, int]]], float]:
        """Align one batch; returns (per-pair results, modeled seconds)."""
        penalties = self.kernel_config.penalties
        results: List[Tuple[int, Optional["Cigar"], Tuple[int, int]]] = []
        if self.policy.baseline == "gotoh":
            for pair in pairs:
                score, cigar = gotoh_align(pair.pattern, pair.text, penalties)
                results.append((score, cigar, (0, 0)))
        else:  # bitparallel: distance only, no traceback
            for pair in pairs:
                score = myers_edit_distance(pair.pattern, pair.text)
                results.append((score, None, (0, 0)))
        self.pairs_served += len(pairs)
        self.batches_served += 1
        seconds = len(pairs) / self.policy.cpu_pairs_per_s
        return results, seconds
