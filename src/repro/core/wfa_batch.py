"""Batched struct-of-arrays WFA engine (NumPy).

:class:`~repro.core.wfa.WfaEngine` advances one pair per Python loop
iteration; at the batch sizes the PIM simulator and the serve layer
dispatch (hundreds to thousands of pairs per DPU round) the interpreter
overhead of that per-cell loop dominates wall-clock time.  This module
holds the M/I/D offsets of a *whole batch* of pairs in padded 2-D int32
arrays — one row per pair, one column per diagonal — and advances every
live pair per score step with vectorized recurrences and a vectorized
greedy extension.

The engine is an *accelerated replica*, not a new algorithm: for every
pair it reproduces the scalar engine's score, CIGAR, and
:class:`~repro.core.wavefront.WfaCounters` (including the
``wavefront_log`` that the PIM kernel replays for DMA charging) bit for
bit.  The scalar engine stays the differential oracle — see
``docs/vectorized-engine.md`` and ``tests/test_wfa_batch.py``.

Why whole-batch arrays are possible at all: without heuristics and with a
global span, the wavefront bounds ``[lo, hi]`` at each score depend only
on the penalty model and score arithmetic — never on sequence content —
so every pair in the batch shares the same array layout at every score.
The engine therefore refuses non-global spans and has no heuristic hook;
callers fall back to the scalar engine for those configurations.

Vectorized extension compares characters directly, in chunks: every
reached ``(pair, diagonal)`` lane gathers a small window of pattern and
text codepoints, finds the first mismatch with an ``argmin``, and lanes
that matched their whole window go another round with a doubled window.
Lanes are compacted between rounds, so total work is proportional to
the characters actually matched — the same work the scalar engine does,
at NumPy speed.  Distinct out-of-range sentinel pads on the two
codepoint matrices make every boundary check implicit: any read past a
sequence end compares unequal, ending the run exactly at the boundary.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.aligner import AlignmentResult
from repro.core.backtrace import backtrace
from repro.core.cigar import Cigar
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    Penalties,
    TwoPieceAffinePenalties,
)
from repro.core.span import AlignmentSpan
from repro.core.wavefront import NULL_THRESHOLD, OFFSET_NULL, WfaCounters
from repro.core.wfa import WfaEngine
from repro.errors import AlignmentError

__all__ = ["BatchWfaEngine", "BatchPairView", "align_batch"]

Sequence_ = Union[str, bytes]

_NULL32 = np.int32(OFFSET_NULL)
_ONE32 = np.int32(1)


def _as_str(seq: Sequence_, name: str) -> str:
    if isinstance(seq, bytes):
        return seq.decode("ascii")
    if isinstance(seq, str):
        return seq
    raise AlignmentError(f"{name} must be str or bytes, got {type(seq).__name__}")


# Sentinel codepoints above the Unicode range (max 0x10FFFF).  Pattern
# and text pads differ, so a pad never equals a real character *or* the
# other matrix's pad: reads past either sequence end compare unequal and
# extension stops at the boundary without explicit bounds masks.
_PAD_PATTERN = np.uint32(0xFFFFFFFE)
_PAD_TEXT = np.uint32(0xFFFFFFFF)


def _codepoint_matrix(
    seqs: list[str], lengths: np.ndarray, width: int, pad: np.uint32
) -> np.ndarray:
    """Sentinel-padded uint32 codepoint matrix, one row per sequence.

    The matrix is one column wider than ``width`` so a clipped gather
    index always lands on at least one pad column.  Built with one
    scatter: the row-major order of the in-bounds mask matches the
    concatenation order of the sequences.
    """
    mat = np.full((len(seqs), width + 1), pad, dtype=np.uint32)
    if not seqs or not width:
        return mat
    flat = np.frombuffer("".join(seqs).encode("utf-32-le"), dtype=np.uint32)
    mat[np.arange(width + 1)[None, :] < lengths[:, None]] = flat
    return mat


class BatchPairView:
    """One pair's results, duck-typing :class:`WfaEngine` for traceback.

    Exposes exactly what :func:`repro.core.backtrace.backtrace` reads —
    ``final_score``, ``memory_mode``, ``penalties``, ``n``/``m``,
    ``end_k``/``end_offset``, ``span``, ``counters`` and
    :meth:`offset`, which reads the batch arrays in place, one cell per
    call, so score-only callers never pay for it and a traceback pays
    only for the cells it visits.  A view keeps the whole batch's arrays
    alive; nothing refers back to the view.

    ``error`` is the scalar engine's :class:`AlignmentError` message when
    this pair exceeded its score cap; ``final_score`` is ``None`` then.
    """

    def __init__(
        self,
        engine: "BatchWfaEngine",
        row: int,
        final_score: Optional[int],
        counters: WfaCounters,
        error: Optional[str],
    ) -> None:
        self.pattern = engine.patterns[row]
        self.text = engine.texts[row]
        self.n = len(self.pattern)
        self.m = len(self.text)
        self.penalties = engine.penalties
        self.memory_mode = engine.memory_mode
        self.span = engine.span
        self.final_score = final_score
        self.counters = counters
        self.error = error
        # Global span: the end point is always (m - n, m).
        self.end_k = self.m - self.n if final_score is not None else None
        self.end_offset = self.m if final_score is not None else None
        self._scores = engine._scores
        self._row = row
        self._end = -1 if final_score is None else final_score

    def offset(self, score: int, component: str, k: int) -> int:
        """This pair's cell of ``component`` at ``score`` on diagonal ``k``.

        Reads as :meth:`WfaEngine.offset` does after a full-memory run:
        :data:`OFFSET_NULL` for a score outside ``0..final_score`` or
        skipped, a missing component, or ``k`` outside ``[lo, hi]``.
        ``ndarray.item`` returns a Python ``int``, so traceback
        arithmetic (and the CIGAR run lengths it emits) never sees a
        NumPy scalar.
        """
        if not 0 <= score <= self._end:
            return OFFSET_NULL
        entry = self._scores[score]
        if entry is None:
            return OFFSET_NULL
        array = entry["comps"].get(component)
        lo = entry["lo"]
        if array is None or k < lo or k > entry["hi"]:
            return OFFSET_NULL
        return array.item(self._row, k - lo)


class BatchWfaEngine:
    """Advance a whole batch of pairs one score step at a time.

    Args:
        pairs: ``(pattern, text)`` sequences (str or ASCII bytes).
        penalties: the distance metric (edit, linear, affine, affine-2p).
        memory_mode: as in :class:`WfaEngine`; ``"full"`` is required for
            traceback.  Only the *counter accounting* differs — the batch
            arrays are kept either way while the engine lives.
        max_score: optional score cap, applied per pair after clamping to
            that pair's worst-case score exactly like the scalar engine.
        span: must be global (the default); ends-free spans break the
            shared-layout invariant and belong to the scalar engine.

    :meth:`run` returns one :class:`BatchPairView` per input pair, in
    input order.
    """

    def __init__(
        self,
        pairs: list[tuple[Sequence_, Sequence_]],
        penalties: Penalties,
        memory_mode: str = "full",
        max_score: Optional[int] = None,
        span: Optional[AlignmentSpan] = None,
    ) -> None:
        if memory_mode not in ("full", "low"):
            raise AlignmentError(f"unknown memory_mode {memory_mode!r}")
        span = span if span is not None else AlignmentSpan()
        if not span.is_global:
            raise AlignmentError(
                "BatchWfaEngine supports global spans only; "
                "use the scalar WfaEngine for ends-free alignment"
            )
        self.penalties = penalties
        self.memory_mode = memory_mode
        self.span = span
        self.patterns = [_as_str(p, "pattern") for p, _ in pairs]
        self.texts = [_as_str(t, "text") for _, t in pairs]
        self.size = len(pairs)
        b = self.size
        self._ns = np.array([len(p) for p in self.patterns], dtype=np.int32)
        self._ms = np.array([len(t) for t in self.texts], dtype=np.int32)
        self._ln = int(self._ns.max()) if b else 0
        self._lm = int(self._ms.max()) if b else 0
        self._pmat = _codepoint_matrix(self.patterns, self._ns, self._ln, _PAD_PATTERN)
        self._tmat = _codepoint_matrix(self.texts, self._ms, self._lm, _PAD_TEXT)
        caps = [
            penalties.worst_case_score(len(p), len(t))
            for p, t in zip(self.patterns, self.texts)
        ]
        if max_score is not None:
            caps = [min(max_score, c) for c in caps]
        self._caps = np.array(caps, dtype=np.int64)
        self.lookback = WfaEngine._max_lookback(penalties)
        self._compute = self._select_compute(penalties)

        # Per-score shared state: score -> None | {"lo", "hi", "comps"}.
        self._scores: dict[int, Optional[dict]] = {}
        self._rows_flat = np.arange(b, dtype=np.intp)
        # Shared counter replay (identical for every pair up to its final
        # score): cumulative snapshots indexed by score.
        self._log: list[tuple[int, str, int, int]] = []
        self._cum_cells = 0
        self._cum_wf = 0
        self._cum_off = 0
        self._live_bytes = 0
        self._peak_bytes = 0
        self._bytes_at: dict[int, int] = {}
        self._by_score: list[tuple[int, int, int, int, int]] = []
        # Per-pair state.
        self._live = np.ones(b, dtype=bool)
        self._final = np.full(b, -1, dtype=np.int64)
        self._extend_acc = np.zeros(b, dtype=np.int64)
        self._errors: list[Optional[str]] = [None] * b

    # -- metric dispatch ---------------------------------------------------

    @staticmethod
    def _select_compute(penalties: Penalties):
        """The score step for ``penalties``, called as ``step(engine, s)``.

        Plain functions, not methods bound to the engine: an engine that
        held a reference to itself would leave every batch's arrays to
        the cyclic garbage collector instead of freeing them on release.
        """
        if isinstance(penalties, TwoPieceAffinePenalties):
            return BatchWfaEngine._compute_affine2p
        if isinstance(penalties, AffinePenalties):
            return BatchWfaEngine._compute_affine
        if isinstance(penalties, LinearPenalties):
            x, ind = penalties.mismatch, penalties.indel
            return lambda engine, s: engine._compute_unified(s, x, ind)
        if isinstance(penalties, EditPenalties):
            return lambda engine, s: engine._compute_unified(s, 1, 1)
        raise AlignmentError(f"unsupported penalty model: {penalties!r}")

    # -- shared-layout helpers ---------------------------------------------

    def _range(self, score: int, comp: str) -> Optional[tuple[int, int]]:
        """Stored ``(lo, hi)`` of a source component, ``None`` if absent."""
        if score < 0:
            return None
        entry = self._scores.get(score)
        if entry is None or comp not in entry["comps"]:
            return None
        return entry["lo"], entry["hi"]

    def _aligned(self, score: int, comp: str, a: int, b: int) -> np.ndarray:
        """Source component re-based onto diagonals ``[a, b]``.

        Diagonals outside the stored range (or a wholly absent source)
        read as :data:`OFFSET_NULL`, mirroring ``Wavefront.__getitem__``.
        """
        out = np.full((self.size, b - a + 1), OFFSET_NULL, dtype=np.int32)
        rng = self._range(score, comp)
        if rng is None:
            return out
        lo, hi = rng
        s0, s1 = max(a, lo), min(b, hi)
        if s0 > s1:
            return out
        arr = self._scores[score]["comps"][comp]  # type: ignore[index]
        out[:, s0 - a : s1 - a + 1] = arr[:, s0 - lo : s1 - lo + 1]
        return out

    def _register(self, score: int, comp: str, lo: int, hi: int) -> None:
        w = hi - lo + 1
        self._cum_wf += 1
        self._cum_off += w
        self._log.append((score, comp, lo, hi))
        self._live_bytes += 4 * w
        if self._live_bytes > self._peak_bytes:
            self._peak_bytes = self._live_bytes
        self._bytes_at[score] = self._bytes_at.get(score, 0) + 4 * w

    def _expire(self, score: int) -> None:
        if self.memory_mode != "low":
            return
        self._live_bytes -= self._bytes_at.pop(score - self.lookback, 0)

    def _snapshot(self) -> None:
        self._by_score.append(
            (
                self._cum_cells,
                self._cum_wf,
                self._cum_off,
                self._peak_bytes,
                len(self._log),
            )
        )

    # -- extension + termination --------------------------------------------

    def _extend(self, entry: dict) -> np.ndarray:
        """Greedy-extend the M wavefront of every pair; per-pair comparisons.

        Comparison counts follow :func:`repro.core.extend.extend_diagonal`
        exactly: matched characters plus the final failing probe when both
        next positions are in bounds.  Rows of finished pairs are extended
        too (the work is masked out of the counters, and their values are
        never read), which keeps the kernel branch-free.

        Every reached lane gathers a window of codepoints from both
        sequences and locates its first mismatch; lanes that matched the
        whole window survive into the next round with a doubled window,
        everything else retires.  The sentinel pads guarantee a gather
        clipped to the pad column compares unequal, so sequence
        boundaries terminate runs without explicit masks.
        """
        lo, hi = entry["lo"], entry["hi"]
        offs = entry["comps"]["M"]
        karr = np.arange(lo, hi + 1, dtype=np.int32)
        reached = offs > NULL_THRESHOLD
        runs = np.zeros(offs.shape, dtype=np.int32)
        act_p, act_k = np.nonzero(reached)
        # Reached offsets are genuine matrix coordinates: 0 <= v <= n and
        # 0 <= h <= m, so gather indices only ever need an upper clip.
        h = offs[act_p, act_k]
        v = h - karr[act_k]
        # Round 0 probes a single character: most lanes sit right on a
        # mismatch (they just stepped past one), so the cheapest possible
        # round retires the bulk of the batch.
        if act_p.size:
            whole = (
                self._pmat[act_p, np.minimum(v, self._ln)]
                == self._tmat[act_p, np.minimum(h, self._lm)]
            )
            runs[act_p, act_k] += whole
            act_p, act_k = act_p[whole], act_k[whole]
            v = v[whole] + 1
            h = h[whole] + 1
        chunk = 4
        while act_p.size:
            ci = np.arange(chunk, dtype=np.int32)
            pv = self._pmat[act_p[:, None], np.minimum(v[:, None] + ci, self._ln)]
            tv = self._tmat[act_p[:, None], np.minimum(h[:, None] + ci, self._lm)]
            ok = pv == tv
            whole = ok.all(axis=1)
            step = np.where(whole, np.int32(chunk),
                            np.argmin(ok, axis=1).astype(np.int32))
            runs[act_p, act_k] += step
            if not whole.any():
                break
            act_p, act_k = act_p[whole], act_k[whole]
            v = v[whole] + chunk
            h = h[whole] + chunk
            chunk *= 4
        new_offs = offs + runs
        probe = (
            reached
            & (new_offs - karr[None, :] < self._ns[:, None])
            & (new_offs < self._ms[:, None])
        )
        entry["comps"]["M"] = new_offs
        return (runs.sum(axis=1, dtype=np.int64)
                + probe.sum(axis=1, dtype=np.int64))

    def _check_end(self, entry: dict, score: int) -> None:
        if not self.size:
            return
        lo, hi = entry["lo"], entry["hi"]
        offs = entry["comps"]["M"]
        k_end = self._ms - self._ns
        valid = (k_end >= lo) & (k_end <= hi)
        col = np.clip(k_end - lo, 0, hi - lo)
        at_end = offs[self._rows_flat, col]
        done = self._live & valid & (at_end == self._ms)
        if done.any():
            self._final[done] = score
            self._live &= ~done

    # -- recurrences ---------------------------------------------------------

    def _compute_unified(self, s: int, x: int, ind: int) -> Optional[dict]:
        """Edit (``x = ind = 1``) and gap-linear recurrences."""
        present = [
            r
            for r in (self._range(s - x, "M"), self._range(s - ind, "M"))
            if r is not None
        ]
        if not present:
            return None
        lo = min(r[0] for r in present) - 1
        hi = max(r[1] for r in present) + 1
        # Upper-bound pruning only: a candidate sourced from a NULL cell
        # sits near OFFSET_NULL, loses every maximum, and is normalized to
        # exact NULL by the final threshold — so the scalar engine's
        # lower-bound checks are implicit here.
        m = self._ms[:, None]
        nk = self._ns[:, None] + np.arange(lo, hi + 1, dtype=np.int32)[None, :]
        gap = self._aligned(s - ind, "M", lo - 1, hi + 1)
        if x == ind:
            sub = gap[:, 1:-1] + _ONE32
        else:
            sub = self._aligned(s - x, "M", lo, hi) + _ONE32
        ins = gap[:, :-2] + _ONE32
        dele = gap[:, 2:]
        ins = np.where((ins > m) | (ins > nk), _NULL32, ins)
        dele = np.where(dele > nk, _NULL32, dele)
        sub = np.where((sub > m) | (sub > nk), _NULL32, sub)
        best = np.maximum(np.maximum(sub, ins), dele)
        wf_m = np.where(best > NULL_THRESHOLD, best, _NULL32)
        self._cum_cells += hi - lo + 1
        self._register(s, "M", lo, hi)
        return {"lo": lo, "hi": hi, "comps": {"M": wf_m}}

    def _compute_affine(self, s: int) -> Optional[dict]:
        pen: AffinePenalties = self.penalties  # type: ignore[assignment]
        x, o, e = pen.mismatch, pen.gap_open, pen.gap_extend
        present = [
            r
            for r in (
                self._range(s - x, "M"),
                self._range(s - o - e, "M"),
                self._range(s - e, "I"),
                self._range(s - e, "D"),
            )
            if r is not None
        ]
        if not present:
            return None
        lo = min(r[0] for r in present) - 1
        hi = max(r[1] for r in present) + 1
        m = self._ms[:, None]
        nk = self._ns[:, None] + np.arange(lo, hi + 1, dtype=np.int32)[None, :]
        m_open = self._aligned(s - o - e, "M", lo - 1, hi + 1)
        i_ext = self._aligned(s - e, "I", lo - 1, hi + 1)
        d_ext = self._aligned(s - e, "D", lo - 1, hi + 1)
        sub = self._aligned(s - x, "M", lo, hi) + _ONE32
        ins = np.maximum(m_open[:, :-2], i_ext[:, :-2]) + _ONE32
        dele = np.maximum(m_open[:, 2:], d_ext[:, 2:])
        ins = np.where((ins < 1) | (ins > m) | (ins > nk), _NULL32, ins)
        dele = np.where((dele < 0) | (dele > nk), _NULL32, dele)
        sub = np.where((sub < 1) | (sub > m) | (sub > nk), _NULL32, sub)
        best = np.maximum(np.maximum(sub, ins), dele)
        wf_m = np.where(best > NULL_THRESHOLD, best, _NULL32)
        self._cum_cells += 3 * (hi - lo + 1)
        self._register(s, "M", lo, hi)
        self._register(s, "I", lo, hi)
        self._register(s, "D", lo, hi)
        return {"lo": lo, "hi": hi, "comps": {"M": wf_m, "I": ins, "D": dele}}

    def _compute_affine2p(self, s: int) -> Optional[dict]:
        pen: TwoPieceAffinePenalties = self.penalties  # type: ignore[assignment]
        x = pen.mismatch
        o1, e1 = pen.gap_open1, pen.gap_extend1
        o2, e2 = pen.gap_open2, pen.gap_extend2
        present = [
            r
            for r in (
                self._range(s - x, "M"),
                self._range(s - o1 - e1, "M"),
                self._range(s - e1, "I"),
                self._range(s - e1, "D"),
                self._range(s - o2 - e2, "M"),
                self._range(s - e2, "I2"),
                self._range(s - e2, "D2"),
            )
            if r is not None
        ]
        if not present:
            return None
        lo = min(r[0] for r in present) - 1
        hi = max(r[1] for r in present) + 1
        m = self._ms[:, None]
        nk = self._ns[:, None] + np.arange(lo, hi + 1, dtype=np.int32)[None, :]
        m_open1 = self._aligned(s - o1 - e1, "M", lo - 1, hi + 1)
        i1_ext = self._aligned(s - e1, "I", lo - 1, hi + 1)
        d1_ext = self._aligned(s - e1, "D", lo - 1, hi + 1)
        m_open2 = self._aligned(s - o2 - e2, "M", lo - 1, hi + 1)
        i2_ext = self._aligned(s - e2, "I2", lo - 1, hi + 1)
        d2_ext = self._aligned(s - e2, "D2", lo - 1, hi + 1)
        sub = self._aligned(s - x, "M", lo, hi) + _ONE32
        ins1 = np.maximum(m_open1[:, :-2], i1_ext[:, :-2]) + _ONE32
        ins2 = np.maximum(m_open2[:, :-2], i2_ext[:, :-2]) + _ONE32
        dele1 = np.maximum(m_open1[:, 2:], d1_ext[:, 2:])
        dele2 = np.maximum(m_open2[:, 2:], d2_ext[:, 2:])
        ins1 = np.where((ins1 < 1) | (ins1 > m) | (ins1 > nk), _NULL32, ins1)
        ins2 = np.where((ins2 < 1) | (ins2 > m) | (ins2 > nk), _NULL32, ins2)
        dele1 = np.where((dele1 < 0) | (dele1 > nk), _NULL32, dele1)
        dele2 = np.where((dele2 < 0) | (dele2 > nk), _NULL32, dele2)
        sub = np.where((sub < 1) | (sub > m) | (sub > nk), _NULL32, sub)
        best = np.maximum.reduce([sub, ins1, ins2, dele1, dele2])
        wf_m = np.where(best > NULL_THRESHOLD, best, _NULL32)
        self._cum_cells += 5 * (hi - lo + 1)
        self._register(s, "M", lo, hi)
        self._register(s, "I", lo, hi)
        self._register(s, "D", lo, hi)
        self._register(s, "I2", lo, hi)
        self._register(s, "D2", lo, hi)
        return {
            "lo": lo,
            "hi": hi,
            "comps": {
                "M": wf_m,
                "I": ins1,
                "D": dele1,
                "I2": ins2,
                "D2": dele2,
            },
        }

    # -- driver ---------------------------------------------------------------

    def run(self) -> list[BatchPairView]:
        """Run the batch to completion; one view per pair, in input order."""
        if not self.size:
            return []
        # Score 0: global seed is a single point (k=0, offset=0) per pair.
        entry0 = {
            "lo": 0,
            "hi": 0,
            "comps": {"M": np.zeros((self.size, 1), dtype=np.int32)},
        }
        self._scores[0] = entry0
        self._register(0, "M", 0, 0)
        comps = self._extend(entry0)
        self._extend_acc[self._live] += comps[self._live]
        self._snapshot()
        self._check_end(entry0, 0)

        score = 0
        while self._live.any():
            score += 1
            # The scalar engine raises *before* computing the wavefront of
            # a score past the cap; mirror that by failing those pairs now.
            over = self._live & (score > self._caps)
            if over.any():
                for i in np.nonzero(over)[0]:
                    self._errors[int(i)] = (
                        f"score exceeded cap {int(self._caps[i])} "
                        f"(n={int(self._ns[i])}, m={int(self._ms[i])}, "
                        f"penalties={self.penalties!r})"
                    )
                self._live &= ~over
                if not self._live.any():
                    break
            entry = self._compute(self, score)
            self._scores[score] = entry
            if entry is not None:
                comps = self._extend(entry)
                self._extend_acc[self._live] += comps[self._live]
            self._expire(score)
            self._snapshot()
            if entry is not None:
                self._check_end(entry, score)
        return [self._make_view(i) for i in range(self.size)]

    def _make_view(self, i: int) -> BatchPairView:
        error = self._errors[i]
        # A failed pair ran its score loop through its cap; a finished one
        # through its final score.  Counters replay the shared layout up to
        # that last visited score.
        end_score = int(self._caps[i]) if error is not None else int(self._final[i])
        cells, wf_alloc, off_alloc, peak, log_len = self._by_score[end_score]
        counters = WfaCounters(
            cells_computed=cells,
            extend_steps=int(self._extend_acc[i]),
            score_iterations=end_score + 1,
            wavefronts_allocated=wf_alloc,
            offsets_allocated=off_alloc,
            peak_live_bytes=peak,
            wavefront_log=list(self._log[:log_len]),
        )
        final = None if error is not None else end_score
        return BatchPairView(self, i, final, counters, error)


def align_batch(
    pairs: list[tuple[Sequence_, Sequence_]],
    penalties: Optional[Penalties] = None,
    *,
    score_only: bool = False,
    max_score: Optional[int] = None,
    validate: bool = False,
) -> list[AlignmentResult]:
    """Align a batch of pairs with the vectorized engine.

    Mirrors looping :meth:`WavefrontAligner.align` over ``pairs``: results
    come back in input order, and a pair whose optimal penalty exceeds
    ``max_score`` raises :class:`AlignmentError` with the scalar engine's
    message at the lowest failing index.
    """
    penalties = penalties if penalties is not None else AffinePenalties()
    penalties.validate()
    engine = BatchWfaEngine(
        pairs,
        penalties,
        memory_mode="low" if score_only else "full",
        max_score=max_score,
    )
    results: list[AlignmentResult] = []
    for view in engine.run():
        if view.error is not None:
            raise AlignmentError(view.error)
        p_end = view.end_offset - view.end_k
        t_end = view.end_offset
        cigar: Optional[Cigar] = None
        p_start, t_start = 0, 0
        if not score_only:
            cigar = backtrace(view)
            p_start = p_end - cigar.pattern_length()
            t_start = t_end - cigar.text_length()
            if validate:
                cigar.validate(
                    view.pattern[p_start:p_end], view.text[t_start:t_end]
                )
                rescored = cigar.score(penalties)
                if rescored != view.final_score:
                    raise AlignmentError(
                        f"CIGAR rescoring mismatch: engine={view.final_score}, "
                        f"cigar={rescored}"
                    )
        results.append(
            AlignmentResult(
                score=view.final_score,
                cigar=cigar,
                counters=view.counters,
                penalties=penalties,
                pattern_len=view.n,
                text_len=view.m,
                exact=True,
                pattern_start=p_start,
                pattern_end=p_end,
                text_start=t_start,
                text_end=t_end,
            )
        )
    return results
