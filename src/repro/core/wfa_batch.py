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

Vectorized extension compares characters a word at a time, the way
WFA2-lib's packed extend does.  Each side of the batch is one flat
``uint64`` array with ``max_len + 1`` words per row; word ``i`` packs the
row's character codes ``[i, i + per)``, low bits first (an all-ASCII
batch uses its bytes as codes; any other batch gets dense codes from its
sorted alphabet, 8, 16 or 32 bits wide).  Every reached lane of a live
pair takes one word per side at its offset, XORs them, and finds its
first mismatch with a popcount; lanes that matched a whole word read on
in bounded multi-word gathers.  Distinct pattern and text pads past
every row's end make each boundary check implicit: any read past a
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


#: Cap on the lanes x words of one continuation gather in
#: ``BatchWfaEngine._extend_words``, so that low-complexity input cannot
#: make one gather hold every lane's whole row; lanes that match a whole
#: capped window read on in another gather.
GATHER_WORDS = 1 << 15

_ENCODINGS = {8: "latin-1", 16: "utf-16-le", 32: "utf-32-le"}


def _words(
    seqs: list[str], max_len: int, pad: str, table: Optional[dict], width: int
) -> np.ndarray:
    """Flat ``uint64`` words of ``width``-bit codes, ``max_len + 1`` per row.

    Word ``i`` of a row packs its codes ``[i, i + 64 // width)``, low
    bits first; every position past the row's end holds ``pad``, so the
    last word of every row is all pad.  The codes are laid out once as
    padded rows, and the words are one copy of an overlapping view that
    starts a word at every code.
    """
    per = 64 // width
    size = width // 8
    row = max_len + per
    if table is not None:
        seqs = [s.translate(table) for s in seqs]
    buf = "".join([s.ljust(row, pad) for s in seqs]).encode(
        _ENCODINGS[width], "surrogatepass"
    )
    view = np.ndarray(
        (len(seqs), max_len + 1), dtype="<u8", buffer=buf, strides=(row * size, size)
    )
    return view.astype(np.uint64).ravel()


def _first_mismatch(x: np.ndarray, shift: int) -> np.ndarray:
    """Index of the first unequal code in each XOR word, ``per`` if none.

    ``(x & -x) - 1`` sets exactly the bits below the lowest set bit (all
    64 when ``x`` is zero), and a code is ``1 << shift`` bits wide.
    """
    low = x & -x
    low -= np.uint64(1)
    return np.right_shift(np.bitwise_count(low), shift, dtype=np.int32)


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
        # Codes: an all-ASCII batch's bytes, or else dense codes of its
        # sorted alphabet.  The two pads follow the last code, so a pad
        # equals no character and not the other side's pad.
        joined = "".join(self.patterns) + "".join(self.texts)
        if joined.isascii():
            codes, table = 128, None
        else:
            alphabet = sorted(set(joined))
            codes, table = len(alphabet), {ord(c): i for i, c in enumerate(alphabet)}
        width = next(w for w in (8, 16, 32) if codes + 2 <= 1 << w)
        self._per = 64 // width
        self._shift = width.bit_length() - 1
        # Word row 0 is all pad, so that a negative index clips onto a pad.
        self._pwords = _words([""] + self.patterns, self._ln, chr(codes), table, width)
        self._twords = _words([""] + self.texts, self._lm, chr(codes + 1), table, width)
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
        self._retire(np.zeros(b, dtype=bool))
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

    def _retire(self, done: np.ndarray) -> None:
        """Drop ``done`` pairs from the live set; extension probes live rows only.

        Caches the live rows with their word bases and lengths as
        columns, since the live set changes far less often than the
        score.  Word row 0 is the all-pad row, so pair ``r`` is word row
        ``r + 1``.
        """
        self._live &= ~done
        rows = np.flatnonzero(self._live)
        self._rows = rows
        self._row_cols = (
            ((rows + 1) * (self._ln + 1))[:, None],
            ((rows + 1) * (self._lm + 1))[:, None],
            self._ns[rows, None].astype(np.uint32),
            self._ms[rows, None].astype(np.uint32),
        )

    def _extend(self, entry: dict) -> None:
        """Greedy-extend the M wavefront of every live pair, word by word.

        Comparison counts follow :func:`repro.core.extend.extend_diagonal`
        exactly: matched characters plus the final failing probe when both
        next positions are in bounds, added to each live pair's
        ``extend_steps``.  Rows of finished pairs are not probed: their
        later wavefronts are never read (a view answers ``OFFSET_NULL``
        past its final score), so their M cells stay unextended.

        Every cell of a live row takes one word per side at its offset
        and XORs them; the lowest set bit locates the first mismatch.  An
        unreached cell holds :data:`OFFSET_NULL` (``-2**30``), so its
        index is negative (for any word array under ``2**30`` words) and
        clips onto the all-pad row 0, which mismatches at once.  Lanes
        that matched a whole word go on to :meth:`_extend_words`.
        """
        lo, hi = entry["lo"], entry["hi"]
        offs = entry["comps"]["M"]
        rows = self._rows
        pbase, tbase, ns, ms = self._row_cols
        every = rows.size == self.size
        h = offs if every else offs.take(rows, axis=0)
        v = h - np.arange(lo, hi + 1, dtype=np.int32)
        pidx = v + pbase
        tidx = h + tbase
        x = self._pwords.take(pidx, mode="clip")
        x ^= self._twords.take(tidx, mode="clip")
        runs = _first_mismatch(x, self._shift)
        lanes = np.flatnonzero(runs == self._per)
        if lanes.size:
            self._extend_words(
                runs.ravel(),
                lanes,
                pidx.ravel()[lanes] + self._per,
                tidx.ravel()[lanes] + self._per,
                self._ln - self._per - int(v.ravel()[lanes].min()),
            )
        v += runs
        if every:
            h += runs
        else:
            h = offs[rows] = h + runs
        probe = v.view(np.uint32) < ns
        probe &= h.view(np.uint32) < ms
        runs += probe
        self._extend_acc[rows] += runs.sum(axis=1, dtype=np.int64)

    def _extend_words(
        self,
        runs: np.ndarray,
        lanes: np.ndarray,
        pidx: np.ndarray,
        tidx: np.ndarray,
        left: int,
    ) -> None:
        """Read on for ``lanes`` (flat indices into ``runs``) in multi-word gathers.

        ``pidx``/``tidx`` are each lane's next word, and no lane's
        pattern has more than ``left`` codes from there to its end.  A
        gather spans enough words for every lane to reach a mismatch or a
        pad, capped at :data:`GATHER_WORDS` lanes x words.  The first
        nonzero XOR word of a lane's window holds its mismatch; the words
        up to it lie inside the lane's rows, and what a window reads past
        them (the next row, clipped at the array's end) is never used.
        Only lanes that matched their whole window read on.
        """
        per = self._per
        while True:
            words = max(1, min(left // per + 1, GATHER_WORDS // lanes.size))
            step = np.arange(0, words * per, per)
            x = self._pwords.take(pidx[:, None] + step, mode="clip")
            x ^= self._twords.take(tidx[:, None] + step, mode="clip")
            first = (x != 0).argmax(axis=1)
            last = x.ravel().take(first + np.arange(0, x.size, words))
            run = first * per + _first_mismatch(last, self._shift)
            open_ = last == 0
            span = words * per
            run[open_] = span
            runs[lanes] += run
            if not open_.any():
                return
            lanes, pidx, tidx = lanes[open_], pidx[open_] + span, tidx[open_] + span
            left -= span

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
            self._retire(done)

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
        self._extend(entry0)
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
                self._retire(over)
                if not self._live.any():
                    break
            entry = self._compute(self, score)
            self._scores[score] = entry
            if entry is not None:
                self._extend(entry)
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
