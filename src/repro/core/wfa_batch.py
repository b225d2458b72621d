"""Batched struct-of-arrays WFA engine (NumPy).

:class:`~repro.core.wfa.WfaEngine` advances one pair per Python loop
iteration; at the batch sizes the PIM simulator and the serve layer
dispatch (hundreds to thousands of pairs per DPU round) the interpreter
overhead of that per-cell loop dominates wall-clock time.  This module
holds the M/I/D offsets of a *whole batch* of pairs in padded 2-D int32
arrays — one row per pair, one column per diagonal.  A score step folds
its source wavefronts into one ``(planes, rows, width)`` buffer (the
mismatch candidate, then one plane per gap component), applies the scalar
engine's bounds checks to every plane in one unsigned comparison, and
takes M as the planes' maximum; then it greedy-extends every live pair.

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
from repro.core.wavefront import OFFSET_NULL, WfaCounters
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


def _span(*sources) -> Optional[tuple[int, int]]:
    """A score's ``(lo, hi)``: its present sources' range widened by one."""
    present = [src for src in sources if src is not None]
    if not present:
        return None
    return min(src[0] for src in present) - 1, max(src[1] for src in present) + 1


def _fold(plane: np.ndarray, src, base: int) -> None:
    """Max source ``(lo, hi, offsets)`` into ``plane`` in place, if present.

    Column ``j`` of ``plane`` reads source diagonal ``base + j``.  A
    step's ``[lo, hi]`` widens every source's range by one, so the
    source's whole range lands inside the plane.
    """
    if src is not None:
        lo, hi, offsets = src
        part = plane[:, lo - base : hi - base + 1]
        np.maximum(part, offsets, out=part)


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
        # Columns for the recurrences' bounds.
        self._n_col = self._ns[:, None]
        self._n_min = int(self._ns.min()) if b else 0
        self._m1_col = self._ms[:, None] + _ONE32
        self.lookback = WfaEngine._max_lookback(penalties)
        self._compute = self._select_compute(penalties)

        # Per-score shared state: score -> None | {"lo", "hi", "comps"}.
        self._scores: dict[int, Optional[dict]] = {}
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
        self._final = np.full(b, -1, dtype=np.int64)
        self._extend_acc = np.zeros(b, dtype=np.int64)
        self._errors: list[Optional[str]] = [None] * b
        self._retire(np.arange(b, dtype=np.intp))

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

    def _source(self, score: int, comp: str) -> Optional[tuple[int, int, np.ndarray]]:
        """Stored ``(lo, hi, offsets)`` of a source component, ``None`` if absent."""
        entry = self._scores.get(score) if score >= 0 else None
        if entry is None:
            return None
        offsets = entry["comps"].get(comp)
        if offsets is None:
            return None
        return entry["lo"], entry["hi"], offsets

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

    def _retire(self, live: np.ndarray) -> None:
        """Keep only rows ``live`` (ascending row indices) in the live set.

        Caches the live rows with their word bases and lengths as
        columns for extension, each one's end diagonal ``m - n``, ``m``
        and position for the end check, and the smallest score cap among
        them, since the live set changes far less often than the score.
        Word row 0 is the all-pad row, so pair ``r`` is word row
        ``r + 1``.
        """
        self._rows = live
        ns, ms = self._ns[live], self._ms[live]
        self._row_cols = (
            ((live + 1) * (self._ln + 1))[:, None],
            ((live + 1) * (self._lm + 1))[:, None],
            ns[:, None].astype(np.uint32),
            ms[:, None].astype(np.uint32),
        )
        self._end_k = ms - ns
        self._end_m = ms
        self._pos = np.arange(live.size, dtype=np.intp)
        self._cap_floor = int(self._caps[live].min()) if live.size else 0

    def _extend(self, entry: dict) -> np.ndarray:
        """Greedy-extend the M wavefront of every live pair, word by word.

        Returns the live rows' extended M cells, one row per live pair.

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
        return h

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

    def _check_end(self, h: np.ndarray, lo: int, score: int) -> None:
        """Finish the live pairs whose M cell on diagonal ``m - n`` is ``m``.

        ``h`` holds the live rows' extended cells from :meth:`_extend`.
        One flat gather reads each row's end column; a column outside
        the row (an end diagonal outside ``[lo, hi]``) reads another
        cell, which the in-range mask discards.
        """
        width = h.shape[1]
        col = self._end_k - lo
        at_end = h.take(self._pos * width + col, mode="clip") == self._end_m
        at_end &= col.view(np.uint32) < width
        if at_end.any():
            self._final[self._rows[at_end]] = score
            self._retire(self._rows[~at_end])

    # -- recurrences ---------------------------------------------------------

    def _prune(self, buf: np.ndarray, lo: int, ins: int) -> None:
        """Apply the scalar engine's bounds checks to every plane at once.

        ``buf`` holds candidate planes over diagonals ``lo, lo + 1, ...``:
        first ``ins`` planes (mismatch and insertion) that still take
        their ``+1``, then deletion planes.  After the increment every
        candidate must lie in ``[0, limit)``: ``min(m, n + k) + 1`` for
        the first planes, ``n + k + 1`` for deletions, both clipped at 0
        (needed only left of ``-min(n)``), so ``n + k < 0`` admits
        nothing.  A candidate sourced from a NULL cell is negative, so it
        fails the same unsigned comparison.  Failures become exact
        :data:`OFFSET_NULL`, so the planes' maximum needs no threshold
        pass.
        """
        lim = np.empty_like(buf)
        k_plus_1 = np.arange(lo + 1, lo + 1 + buf.shape[2], dtype=np.int32)
        np.add(self._n_col, k_plus_1, out=lim[ins])
        np.minimum(lim[ins], self._m1_col, out=lim[0])
        lim[1:ins] = lim[0]
        lim[ins + 1 :] = lim[ins]
        if lo < -self._n_min:
            np.maximum(lim, 0, out=lim)
        buf[:ins] += _ONE32
        np.putmask(buf, buf.view(np.uint32) >= lim.view(np.uint32), _NULL32)

    def _store(self, s: int, lo: int, hi: int, comps: dict) -> dict:
        """Count and log score ``s``'s components; its per-score entry."""
        self._cum_cells += len(comps) * (hi - lo + 1)
        for comp in comps:
            self._register(s, comp, lo, hi)
        return {"lo": lo, "hi": hi, "comps": comps}

    def _compute_unified(self, s: int, x: int, ind: int) -> Optional[dict]:
        """Edit (``x = ind = 1``) and gap-linear recurrences.

        Planes: mismatch, insertion, deletion.  Only their maximum is
        stored, as a fresh array, so the buffer dies with the step.
        """
        sub = self._source(s - x, "M")
        gap = self._source(s - ind, "M")
        if (span := _span(sub, gap)) is None:
            return None
        lo, hi = span
        buf = np.full((3, self.size, hi - lo + 1), OFFSET_NULL, dtype=np.int32)
        _fold(buf[0], sub, lo)
        _fold(buf[1], gap, lo - 1)
        _fold(buf[2], gap, lo + 1)
        self._prune(buf, lo, 2)
        return self._store(s, lo, hi, {"M": buf.max(axis=0)})

    def _compute_affine(self, s: int) -> Optional[dict]:
        """Gap-affine; planes M (the mismatch candidate, then the best), I, D."""
        pen: AffinePenalties = self.penalties  # type: ignore[assignment]
        x, o, e = pen.mismatch, pen.gap_open, pen.gap_extend
        sub = self._source(s - x, "M")
        opn = self._source(s - o - e, "M")
        ins = self._source(s - e, "I")
        dele = self._source(s - e, "D")
        if (span := _span(sub, opn, ins, dele)) is None:
            return None
        lo, hi = span
        buf = np.full((3, self.size, hi - lo + 1), OFFSET_NULL, dtype=np.int32)
        _fold(buf[0], sub, lo)
        _fold(buf[1], opn, lo - 1)
        _fold(buf[1], ins, lo - 1)
        _fold(buf[2], opn, lo + 1)
        _fold(buf[2], dele, lo + 1)
        self._prune(buf, lo, 2)
        wf_m, wf_i, wf_d = buf
        np.maximum(wf_m, wf_i, out=wf_m)
        np.maximum(wf_m, wf_d, out=wf_m)
        return self._store(s, lo, hi, {"M": wf_m, "I": wf_i, "D": wf_d})

    def _compute_affine2p(self, s: int) -> Optional[dict]:
        """Two-piece affine; planes M (as in affine), I, I2, D, D2."""
        pen: TwoPieceAffinePenalties = self.penalties  # type: ignore[assignment]
        x = pen.mismatch
        o1, e1 = pen.gap_open1, pen.gap_extend1
        o2, e2 = pen.gap_open2, pen.gap_extend2
        sub = self._source(s - x, "M")
        opn1 = self._source(s - o1 - e1, "M")
        ins1 = self._source(s - e1, "I")
        dele1 = self._source(s - e1, "D")
        opn2 = self._source(s - o2 - e2, "M")
        ins2 = self._source(s - e2, "I2")
        dele2 = self._source(s - e2, "D2")
        if (span := _span(sub, opn1, ins1, dele1, opn2, ins2, dele2)) is None:
            return None
        lo, hi = span
        buf = np.full((5, self.size, hi - lo + 1), OFFSET_NULL, dtype=np.int32)
        _fold(buf[0], sub, lo)
        _fold(buf[1], opn1, lo - 1)
        _fold(buf[1], ins1, lo - 1)
        _fold(buf[2], opn2, lo - 1)
        _fold(buf[2], ins2, lo - 1)
        _fold(buf[3], opn1, lo + 1)
        _fold(buf[3], dele1, lo + 1)
        _fold(buf[4], opn2, lo + 1)
        _fold(buf[4], dele2, lo + 1)
        self._prune(buf, lo, 3)
        wf_m, wf_i1, wf_i2, wf_d1, wf_d2 = buf
        for plane in buf[1:]:
            np.maximum(wf_m, plane, out=wf_m)
        comps = {"M": wf_m, "I": wf_i1, "D": wf_d1, "I2": wf_i2, "D2": wf_d2}
        return self._store(s, lo, hi, comps)

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
        h = self._extend(entry0)
        self._snapshot()
        self._check_end(h, 0, 0)

        score = 0
        while self._rows.size:
            score += 1
            # The scalar engine raises *before* computing the wavefront of
            # a score past the cap; mirror that by failing those pairs now.
            if score > self._cap_floor:
                over = self._caps[self._rows] < score
                for i in self._rows[over].tolist():
                    self._errors[i] = (
                        f"score exceeded cap {int(self._caps[i])} "
                        f"(n={int(self._ns[i])}, m={int(self._ms[i])}, "
                        f"penalties={self.penalties!r})"
                    )
                self._retire(self._rows[~over])
                if not self._rows.size:
                    break
            entry = self._compute(self, score)
            self._scores[score] = entry
            h = None if entry is None else self._extend(entry)
            self._expire(score)
            self._snapshot()
            if h is not None:
                self._check_end(h, entry["lo"], score)
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
