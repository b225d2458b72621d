"""The wavefront algorithm (WFA) main loop and recurrences.

This is a from-scratch implementation of Marco-Sola et al.'s exact
gap-affine wavefront algorithm (Bioinformatics 2021), extended — like
WFA2-lib — to the edit and gap-linear metrics.  The public entry point is
:class:`repro.core.aligner.WavefrontAligner`; this module holds the engine
that aligners drive.

Algorithm sketch (gap-affine, penalties ``x`` mismatch, ``o`` open, ``e``
extend):

* ``M_s[k]`` / ``I_s[k]`` / ``D_s[k]`` hold the furthest-reaching offset
  on diagonal ``k`` with penalty exactly ``s``, ending in a match/mismatch,
  insertion, or deletion respectively.
* Recurrences::

      I_s[k] = max(M_{s-o-e}[k-1], I_{s-e}[k-1]) + 1
      D_s[k] = max(M_{s-o-e}[k+1], D_{s-e}[k+1])
      M_s[k] = max(M_{s-x}[k] + 1, I_s[k], D_s[k])

* After computing ``M_s``, every point is *extended* greedily along its
  diagonal while characters match (matches are free).
* The first score ``s`` whose ``M_s`` reaches offset ``m`` on the final
  diagonal ``k = m - n`` is the optimal alignment penalty.

Candidate offsets that would step outside the DP matrix are discarded
(set to null): every alignment move is monotone in ``(v, h)``, so a point
past the boundary can never reach ``(n, m)`` and pruning preserves
optimality.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.extend import extend_wavefront
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
from repro.errors import AlignmentError

# NULL_THRESHOLD is re-exported here for backwards compatibility; it is
# defined next to OFFSET_NULL in :mod:`repro.core.wavefront` so that the
# extension and recurrence code share one sentinel contract.
__all__ = ["WfaEngine", "NULL_THRESHOLD"]

#: engine component name -> :class:`WavefrontSet` field
_FIELDS = {"M": "m", "I": "i", "D": "d", "I2": "i2", "D2": "d2"}


class WfaEngine:
    """Runs the WFA main loop for one pattern/text pair.

    Args:
        pattern: vertical sequence (length ``n``).
        text: horizontal sequence (length ``m``).
        penalties: the distance metric.
        memory_mode: ``"full"`` keeps every wavefront (required for
            traceback); ``"low"`` keeps only the window of scores that the
            recurrences still reference, matching WFA's score-only mode.
        heuristic: optional callable invoked after each extension with
            ``(engine, score, wavefront_set)``; used by the adaptive
            reduction in :mod:`repro.core.heuristics`.
        max_score: optional hard cap on the score loop; exceeded caps
            raise :class:`AlignmentError` (used to emulate bounded-E
            alignment and to fail fast on bugs).
    """

    def __init__(
        self,
        pattern: str,
        text: str,
        penalties: Penalties,
        memory_mode: str = "full",
        heuristic: Optional[Callable[["WfaEngine", int, WavefrontSet], None]] = None,
        max_score: Optional[int] = None,
        span: Optional[AlignmentSpan] = None,
    ) -> None:
        if memory_mode not in ("full", "low"):
            raise AlignmentError(f"unknown memory_mode {memory_mode!r}")
        self.pattern = pattern
        self.text = text
        self.n = len(pattern)
        self.m = len(text)
        self.penalties = penalties
        self.memory_mode = memory_mode
        self.heuristic = heuristic
        self.span = (span if span is not None else AlignmentSpan()).clamped(
            self.n, self.m
        )
        self.counters = WfaCounters()
        self.wavefronts: dict[int, Optional[WavefrontSet]] = {}
        self.final_score: Optional[int] = None
        #: highest score whose wavefront has been computed (-1 until seeded).
        self.score = -1
        #: end point of the accepted alignment (diagonal, offset); set on
        #: success.  For global spans this is (m - n, m).
        self.end_k: Optional[int] = None
        self.end_offset: Optional[int] = None
        self._live_bytes = 0
        hard_cap = penalties.worst_case_score(self.n, self.m)
        self.max_score = hard_cap if max_score is None else min(max_score, hard_cap)
        self._compute = self._select_compute(penalties)
        #: scores the recurrences look back at; wavefronts older than the
        #: largest lookback can be dropped in low-memory mode.
        self.lookback = self._max_lookback(penalties)

    # -- metric dispatch ---------------------------------------------------

    @staticmethod
    def _select_compute(penalties: Penalties):
        if isinstance(penalties, TwoPieceAffinePenalties):
            return WfaEngine._compute_affine2p
        if isinstance(penalties, AffinePenalties):
            return WfaEngine._compute_affine
        if isinstance(penalties, LinearPenalties):
            return WfaEngine._compute_linear
        if isinstance(penalties, EditPenalties):
            return WfaEngine._compute_edit
        raise AlignmentError(f"unsupported penalty model: {penalties!r}")

    @staticmethod
    def _max_lookback(penalties: Penalties) -> int:
        if isinstance(penalties, TwoPieceAffinePenalties):
            return max(
                penalties.mismatch,
                penalties.gap_open1 + penalties.gap_extend1,
                penalties.gap_open2 + penalties.gap_extend2,
            )
        if isinstance(penalties, AffinePenalties):
            return max(penalties.mismatch, penalties.gap_open + penalties.gap_extend)
        if isinstance(penalties, LinearPenalties):
            return max(penalties.mismatch, penalties.indel)
        return 1

    # -- driver -------------------------------------------------------------

    def seed(self) -> WavefrontSet:
        """Create and extend the score-0 wavefront (no termination check).

        Seeds the anchored start point plus, for ends-free spans, one
        point per diagonal reachable by a free prefix skip.  Sets
        ``self.score = 0``.  :meth:`run` calls it once, then
        :meth:`advance` per score.
        """
        span = self.span
        wf0 = Wavefront(-span.pattern_begin_free, span.text_begin_free)
        for k in wf0.diagonals():
            wf0[k] = max(k, 0)
        self._register(0, "M", wf0)
        ws0 = WavefrontSet(m=wf0)
        self.wavefronts[0] = ws0
        self.score = 0
        self.counters.extend_steps += extend_wavefront(self.pattern, self.text, wf0)
        self.counters.score_iterations += 1
        return ws0

    def advance(self) -> Optional[WavefrontSet]:
        """Compute and extend the next score's wavefront.

        Returns the new wavefront set (``None`` when no recurrence source
        exists at this score).  Raises once the score cap is exceeded.
        """
        self.score += 1
        if self.score > self.max_score:
            raise AlignmentError(
                f"score exceeded cap {self.max_score} "
                f"(n={self.n}, m={self.m}, penalties={self.penalties!r})"
            )
        ws = self._compute(self, self.score)
        self.wavefronts[self.score] = ws
        self.counters.score_iterations += 1
        if ws is not None and ws.m is not None:
            self.counters.extend_steps += extend_wavefront(
                self.pattern, self.text, ws.m
            )
        self._expire(self.score)
        return ws

    def run(self) -> int:
        """Execute the score loop; returns the optimal (or heuristic) score."""
        ws0 = self.seed()
        if self._check_end(ws0.m):
            self.final_score = 0
            return 0
        if self.heuristic is not None:
            self.heuristic(self, 0, ws0)

        while True:
            ws = self.advance()
            if ws is not None and ws.m is not None:
                if self._check_end(ws.m):
                    self.final_score = self.score
                    return self.score
                if self.heuristic is not None:
                    self.heuristic(self, self.score, ws)

    def _check_end(self, wf: Wavefront) -> bool:
        """Accept a point at the boundary whose free suffix fits the span.

        WFA2 ends-free semantics: the alignment ends when at least one
        sequence is fully consumed — ``h == m`` with the pattern's
        remainder within ``pattern_end_free``, or ``v == n`` with the
        text's remainder within ``text_end_free``.  For global alignment
        this reduces to the classic single test ``M_s[m - n] == m``.
        Sets ``end_k``/``end_offset`` on success, preferring the point
        that leaves the fewest characters unaligned.
        """
        n, m = self.n, self.m
        span = self.span
        if span.is_global:
            k_end = m - n
            if wf[k_end] == m:
                self.end_k = k_end
                self.end_offset = m
                return True
            return False
        best: Optional[tuple[int, int, int]] = None  # (skipped, k, offset)
        pef = span.pattern_end_free
        tef = span.text_end_free
        for idx, off in enumerate(wf.offsets):
            if off <= NULL_THRESHOLD:  # unreached (incl. adjusted sentinels)
                continue
            k = wf.lo + idx
            v = off - k
            rem_p = n - v
            rem_t = m - off
            done = (off == m and rem_p <= pef) or (v == n and rem_t <= tef)
            if done:
                cand = (rem_p + rem_t, k, off)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return False
        self.end_k = best[1]
        self.end_offset = best[2]
        return True

    def offset(self, score: int, component: str, k: int) -> int:
        """Stored offset of ``component`` (``"M"``, ``"I"``, ``"D"``,
        ``"I2"`` or ``"D2"``) at ``score`` on diagonal ``k``.

        :data:`OFFSET_NULL` when the score has no wavefront set (never
        computed, skipped, or dropped in low-memory mode), the component
        is absent, or ``k`` lies outside its range.  The one cell reader
        traceback uses.
        """
        ws = self.wavefronts.get(score)
        if ws is None:
            return OFFSET_NULL
        wf = getattr(ws, _FIELDS[component])
        return OFFSET_NULL if wf is None else wf[k]

    # -- storage helpers ------------------------------------------------------

    def _register(self, score: int, component: str, wf: Wavefront) -> None:
        c = self.counters
        c.wavefronts_allocated += 1
        c.offsets_allocated += len(wf)
        c.wavefront_log.append((score, component, wf.lo, wf.hi))
        self._live_bytes += wf.nbytes()
        if self._live_bytes > c.peak_live_bytes:
            c.peak_live_bytes = self._live_bytes

    def _expire(self, score: int) -> None:
        """Drop wavefronts no longer referenced (low-memory mode only)."""
        if self.memory_mode != "low":
            return
        stale = score - self.lookback
        old = self.wavefronts.pop(stale, None)
        if old is not None:
            self._live_bytes -= old.nbytes()

    def _source(self, score: int) -> Optional[WavefrontSet]:
        if score < 0:
            return None
        return self.wavefronts.get(score)

    # -- recurrences ------------------------------------------------------------

    def _compute_affine(self, score: int) -> Optional[WavefrontSet]:
        pen: AffinePenalties = self.penalties  # type: ignore[assignment]
        x, o, e = pen.mismatch, pen.gap_open, pen.gap_extend
        ws_mism = self._source(score - x)
        ws_open = self._source(score - o - e)
        ws_ext = self._source(score - e)

        m_sub = ws_mism.m if ws_mism else None
        m_open = ws_open.m if ws_open else None
        i_ext = ws_ext.i if ws_ext else None
        d_ext = ws_ext.d if ws_ext else None
        sources = [wf for wf in (m_sub, m_open, i_ext, d_ext) if wf is not None]
        if not sources:
            return None

        lo = min(wf.lo for wf in sources) - 1
        hi = max(wf.hi for wf in sources) + 1
        n, m = self.n, self.m
        wf_m = Wavefront(lo, hi)
        wf_i = Wavefront(lo, hi)
        wf_d = Wavefront(lo, hi)
        null = OFFSET_NULL
        get_sub = m_sub.__getitem__ if m_sub else (lambda _k: null)
        get_open = m_open.__getitem__ if m_open else (lambda _k: null)
        get_iext = i_ext.__getitem__ if i_ext else (lambda _k: null)
        get_dext = d_ext.__getitem__ if d_ext else (lambda _k: null)

        self.counters.cells_computed += 3 * (hi - lo + 1)
        for k in range(lo, hi + 1):
            # Insertion: consumes one text char (h+1) coming from diag k-1.
            ins = max(get_open(k - 1), get_iext(k - 1)) + 1
            if ins < 1 or ins > m or ins - k > n:
                ins = null
            # Deletion: consumes one pattern char (v+1), offset unchanged,
            # coming from diag k+1.
            dele = max(get_open(k + 1), get_dext(k + 1))
            if dele < 0 or dele - k > n:
                dele = null
            # Mismatch: diagonal step on the same diagonal.
            sub = get_sub(k) + 1
            if sub < 1 or sub > m or sub - k > n:
                sub = null
            best = max(sub, ins, dele)
            if ins > NULL_THRESHOLD:
                wf_i[k] = ins
            if dele > NULL_THRESHOLD:
                wf_d[k] = dele
            if best > NULL_THRESHOLD:
                wf_m[k] = best

        self._register(score, "M", wf_m)
        self._register(score, "I", wf_i)
        self._register(score, "D", wf_d)
        return WavefrontSet(m=wf_m, i=wf_i, d=wf_d)

    def _compute_affine2p(self, score: int) -> Optional[WavefrontSet]:
        pen: TwoPieceAffinePenalties = self.penalties  # type: ignore[assignment]
        x = pen.mismatch
        o1, e1 = pen.gap_open1, pen.gap_extend1
        o2, e2 = pen.gap_open2, pen.gap_extend2
        ws_mism = self._source(score - x)
        ws_open1 = self._source(score - o1 - e1)
        ws_ext1 = self._source(score - e1)
        ws_open2 = self._source(score - o2 - e2)
        ws_ext2 = self._source(score - e2)

        m_sub = ws_mism.m if ws_mism else None
        m_open1 = ws_open1.m if ws_open1 else None
        i1_ext = ws_ext1.i if ws_ext1 else None
        d1_ext = ws_ext1.d if ws_ext1 else None
        m_open2 = ws_open2.m if ws_open2 else None
        i2_ext = ws_ext2.i2 if ws_ext2 else None
        d2_ext = ws_ext2.d2 if ws_ext2 else None
        sources = [
            wf
            for wf in (m_sub, m_open1, i1_ext, d1_ext, m_open2, i2_ext, d2_ext)
            if wf is not None
        ]
        if not sources:
            return None

        lo = min(wf.lo for wf in sources) - 1
        hi = max(wf.hi for wf in sources) + 1
        n, m = self.n, self.m
        wf_m = Wavefront(lo, hi)
        wf_i1 = Wavefront(lo, hi)
        wf_d1 = Wavefront(lo, hi)
        wf_i2 = Wavefront(lo, hi)
        wf_d2 = Wavefront(lo, hi)
        null = OFFSET_NULL
        get_sub = m_sub.__getitem__ if m_sub else (lambda _k: null)
        get_open1 = m_open1.__getitem__ if m_open1 else (lambda _k: null)
        get_i1 = i1_ext.__getitem__ if i1_ext else (lambda _k: null)
        get_d1 = d1_ext.__getitem__ if d1_ext else (lambda _k: null)
        get_open2 = m_open2.__getitem__ if m_open2 else (lambda _k: null)
        get_i2 = i2_ext.__getitem__ if i2_ext else (lambda _k: null)
        get_d2 = d2_ext.__getitem__ if d2_ext else (lambda _k: null)

        self.counters.cells_computed += 5 * (hi - lo + 1)
        for k in range(lo, hi + 1):
            ins1 = max(get_open1(k - 1), get_i1(k - 1)) + 1
            if ins1 < 1 or ins1 > m or ins1 - k > n:
                ins1 = null
            ins2 = max(get_open2(k - 1), get_i2(k - 1)) + 1
            if ins2 < 1 or ins2 > m or ins2 - k > n:
                ins2 = null
            dele1 = max(get_open1(k + 1), get_d1(k + 1))
            if dele1 < 0 or dele1 - k > n:
                dele1 = null
            dele2 = max(get_open2(k + 1), get_d2(k + 1))
            if dele2 < 0 or dele2 - k > n:
                dele2 = null
            sub = get_sub(k) + 1
            if sub < 1 or sub > m or sub - k > n:
                sub = null
            best = max(sub, ins1, ins2, dele1, dele2)
            if ins1 > NULL_THRESHOLD:
                wf_i1[k] = ins1
            if ins2 > NULL_THRESHOLD:
                wf_i2[k] = ins2
            if dele1 > NULL_THRESHOLD:
                wf_d1[k] = dele1
            if dele2 > NULL_THRESHOLD:
                wf_d2[k] = dele2
            if best > NULL_THRESHOLD:
                wf_m[k] = best

        self._register(score, "M", wf_m)
        self._register(score, "I", wf_i1)
        self._register(score, "D", wf_d1)
        self._register(score, "I2", wf_i2)
        self._register(score, "D2", wf_d2)
        return WavefrontSet(m=wf_m, i=wf_i1, d=wf_d1, i2=wf_i2, d2=wf_d2)

    def _compute_linear(self, score: int) -> Optional[WavefrontSet]:
        pen: LinearPenalties = self.penalties  # type: ignore[assignment]
        ws_mism = self._source(score - pen.mismatch)
        ws_gap = self._source(score - pen.indel)
        m_sub = ws_mism.m if ws_mism else None
        m_gap = ws_gap.m if ws_gap else None
        sources = [wf for wf in (m_sub, m_gap) if wf is not None]
        if not sources:
            return None

        lo = min(wf.lo for wf in sources) - 1
        hi = max(wf.hi for wf in sources) + 1
        n, m = self.n, self.m
        wf_m = Wavefront(lo, hi)
        null = OFFSET_NULL
        get_sub = m_sub.__getitem__ if m_sub else (lambda _k: null)
        get_gap = m_gap.__getitem__ if m_gap else (lambda _k: null)

        self.counters.cells_computed += hi - lo + 1
        for k in range(lo, hi + 1):
            ins = get_gap(k - 1) + 1
            if ins < 1 or ins > m or ins - k > n:
                ins = null
            dele = get_gap(k + 1)
            if dele < 0 or dele - k > n:
                dele = null
            sub = get_sub(k) + 1
            if sub < 1 or sub > m or sub - k > n:
                sub = null
            best = max(sub, ins, dele)
            if best > NULL_THRESHOLD:
                wf_m[k] = best

        self._register(score, "M", wf_m)
        return WavefrontSet(m=wf_m)

    def _compute_edit(self, score: int) -> Optional[WavefrontSet]:
        ws_prev = self._source(score - 1)
        m_prev = ws_prev.m if ws_prev else None
        if m_prev is None:
            return None

        lo = m_prev.lo - 1
        hi = m_prev.hi + 1
        n, m = self.n, self.m
        wf_m = Wavefront(lo, hi)
        null = OFFSET_NULL
        get = m_prev.__getitem__

        self.counters.cells_computed += hi - lo + 1
        for k in range(lo, hi + 1):
            ins = get(k - 1) + 1
            if ins < 1 or ins > m or ins - k > n:
                ins = null
            dele = get(k + 1)
            if dele < 0 or dele - k > n:
                dele = null
            sub = get(k) + 1
            if sub < 1 or sub > m or sub - k > n:
                sub = null
            best = max(sub, ins, dele)
            if best > NULL_THRESHOLD:
                wf_m[k] = best

        self._register(score, "M", wf_m)
        return WavefrontSet(m=wf_m)
