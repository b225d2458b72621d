"""Traceback of WFA wavefronts into a CIGAR.

WFA's traceback walks backwards from the final furthest-reaching point
``(score, M, k = m - n, offset = m)``, at each step re-deriving which
recurrence candidate produced the stored offset.  The gap between the
stored (post-extension) offset and the best candidate is a run of free
matches.  Requires the engine to have run in ``"full"`` memory mode so
every wavefront is still available.  Cells are read one at a time
through the engine's ``offset(score, component, k)`` accessor, which
both :class:`~repro.core.wfa.WfaEngine` and the batch engine's pair
views provide.

The candidate re-derivation applies exactly the same boundary pruning as
the forward pass (see :mod:`repro.core.wfa`), so stored values always
match one candidate; any mismatch indicates a bug and raises
:class:`AlignmentError`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cigar import Cigar, cigar_op
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    TwoPieceAffinePenalties,
)
from repro.core.wavefront import OFFSET_NULL
from repro.core.wfa import NULL_THRESHOLD, WfaEngine
from repro.errors import AlignmentError

__all__ = ["backtrace"]


def backtrace(engine: WfaEngine) -> Cigar:
    """Reconstruct the optimal alignment CIGAR from a finished engine."""
    if engine.final_score is None:
        raise AlignmentError("engine has not reached the end point; run() first")
    if engine.memory_mode != "full":
        raise AlignmentError("traceback requires memory_mode='full'")
    pen = engine.penalties
    if isinstance(pen, TwoPieceAffinePenalties):
        ops = _backtrace_affine2p(engine, pen)
    elif isinstance(pen, AffinePenalties):
        ops = _backtrace_affine(engine, pen)
    elif isinstance(pen, LinearPenalties):
        ops = _backtrace_unified(engine, pen.mismatch, pen.indel)
    elif isinstance(pen, EditPenalties):
        ops = _backtrace_unified(engine, 1, 1)
    else:  # pragma: no cover - engine construction already rejects this
        raise AlignmentError(f"unsupported penalty model: {pen!r}")
    ops.reverse()
    # _emit extends the last run when the op repeats, so the runs are
    # already canonical and need no second merge.
    cigar = Cigar._of_runs(tuple([cigar_op(length, op) for op, length in ops]))
    engine.counters.backtrace_ops += cigar.columns()
    return cigar


def _emit(ops: list[list], op: str, length: int) -> None:
    """Append ``length`` columns of ``op`` (reverse order) to the
    ``[op, length]`` runs, extending the last run when it is ``op``."""
    if length <= 0:
        return
    if ops and ops[-1][0] == op:
        ops[-1][1] += length
    else:
        ops.append([op, length])


def _finish_at_origin(engine: WfaEngine, ops: list[list], k: int, off: int) -> None:
    """Close the traceback at a score-0 seed point.

    For global spans the only seed is (k=0, offset=0); ends-free spans
    seed every diagonal a free prefix can reach, with initial offset
    ``max(k, 0)``.  The remaining run down to the seed is free matches.
    """
    span = engine.span
    if k < -span.pattern_begin_free or k > span.text_begin_free:
        raise AlignmentError(f"traceback reached score 0 on unseeded diagonal {k}")
    base = max(k, 0)
    if off < base:
        raise AlignmentError(
            f"traceback offset {off} below the score-0 seed {base} on diagonal {k}"
        )
    _emit(ops, "M", off - base)


def _backtrace_affine(engine: WfaEngine, pen: AffinePenalties) -> list[list]:
    x, o, e = pen.mismatch, pen.gap_open, pen.gap_extend
    n, m = engine.n, engine.m
    offset = engine.offset
    s = engine.final_score
    k = engine.end_k if engine.end_k is not None else m - n
    off = engine.end_offset if engine.end_offset is not None else m
    comp = "M"
    ops: list[list] = []
    # Generous bound: every step either consumes a column or switches
    # component at the same position (at most once between columns).
    for _ in range(2 * (n + m) + s + 4):
        if comp == "M":
            if s == 0:
                _finish_at_origin(engine, ops, k, off)
                return ops
            sub = offset(s - x, "M", k) + 1
            if sub < 1 or sub > m or sub - k > n:
                sub = OFFSET_NULL
            ins = offset(s, "I", k)
            dele = offset(s, "D", k)
            best = max(sub, ins, dele)
            if best <= NULL_THRESHOLD:
                raise AlignmentError(
                    f"traceback dead end at (s={s}, M, k={k}, offset={off})"
                )
            _emit(ops, "M", off - best)
            if best == ins:
                comp, off = "I", best
            elif best == dele:
                comp, off = "D", best
            else:
                _emit(ops, "X", 1)
                s -= x
                off = best - 1
        elif comp == "I":
            ext = offset(s - e, "I", k - 1)
            opn = offset(s - o - e, "M", k - 1)
            _emit(ops, "I", 1)
            if ext > NULL_THRESHOLD and ext + 1 == off:
                s -= e
                k -= 1
                off -= 1
            elif opn > NULL_THRESHOLD and opn + 1 == off:
                s -= o + e
                k -= 1
                off -= 1
                comp = "M"
            else:
                raise AlignmentError(
                    f"traceback dead end at (s={s}, I, k={k}, offset={off})"
                )
        else:  # comp == "D"
            ext = offset(s - e, "D", k + 1)
            opn = offset(s - o - e, "M", k + 1)
            _emit(ops, "D", 1)
            if ext > NULL_THRESHOLD and ext == off:
                s -= e
                k += 1
            elif opn > NULL_THRESHOLD and opn == off:
                s -= o + e
                k += 1
                comp = "M"
            else:
                raise AlignmentError(
                    f"traceback dead end at (s={s}, D, k={k}, offset={off})"
                )
    raise AlignmentError("traceback did not terminate")  # pragma: no cover


def _backtrace_affine2p(
    engine: WfaEngine, pen: TwoPieceAffinePenalties
) -> list[list]:
    """Traceback with four gap states (I1/I2/D1/D2)."""
    x = pen.mismatch
    o1, e1 = pen.gap_open1, pen.gap_extend1
    o2, e2 = pen.gap_open2, pen.gap_extend2
    n, m = engine.n, engine.m
    offset = engine.offset
    s = engine.final_score
    k = engine.end_k if engine.end_k is not None else m - n
    off = engine.end_offset if engine.end_offset is not None else m
    comp = "M"
    ops: list[list] = []
    for _ in range(2 * (n + m) + s + 4):
        if comp == "M":
            if s == 0:
                _finish_at_origin(engine, ops, k, off)
                return ops
            sub = offset(s - x, "M", k) + 1
            if sub < 1 or sub > m or sub - k > n:
                sub = OFFSET_NULL
            ins1 = offset(s, "I", k)
            ins2 = offset(s, "I2", k)
            dele1 = offset(s, "D", k)
            dele2 = offset(s, "D2", k)
            best = max(sub, ins1, ins2, dele1, dele2)
            if best <= NULL_THRESHOLD:
                raise AlignmentError(
                    f"traceback dead end at (s={s}, M, k={k}, offset={off})"
                )
            _emit(ops, "M", off - best)
            if best == ins1:
                comp, off = "I", best
            elif best == ins2:
                comp, off = "I2", best
            elif best == dele1:
                comp, off = "D", best
            elif best == dele2:
                comp, off = "D2", best
            else:
                _emit(ops, "X", 1)
                s -= x
                off = best - 1
        elif comp in ("I", "I2"):
            o, e = (o1, e1) if comp == "I" else (o2, e2)
            ext = offset(s - e, comp, k - 1)
            opn = offset(s - o - e, "M", k - 1)
            _emit(ops, "I", 1)
            if ext > NULL_THRESHOLD and ext + 1 == off:
                s -= e
                k -= 1
                off -= 1
            elif opn > NULL_THRESHOLD and opn + 1 == off:
                s -= o + e
                k -= 1
                off -= 1
                comp = "M"
            else:
                raise AlignmentError(
                    f"traceback dead end at (s={s}, {comp}, k={k}, offset={off})"
                )
        else:  # comp in ("D", "D2")
            o, e = (o1, e1) if comp == "D" else (o2, e2)
            ext = offset(s - e, comp, k + 1)
            opn = offset(s - o - e, "M", k + 1)
            _emit(ops, "D", 1)
            if ext > NULL_THRESHOLD and ext == off:
                s -= e
                k += 1
            elif opn > NULL_THRESHOLD and opn == off:
                s -= o + e
                k += 1
                comp = "M"
            else:
                raise AlignmentError(
                    f"traceback dead end at (s={s}, {comp}, k={k}, offset={off})"
                )
    raise AlignmentError("traceback did not terminate")  # pragma: no cover


def _backtrace_unified(engine: WfaEngine, x: int, ind: int) -> list[list]:
    """Traceback shared by the edit (x = ind = 1) and gap-linear metrics."""
    n, m = engine.n, engine.m
    offset = engine.offset
    s = engine.final_score
    k = engine.end_k if engine.end_k is not None else m - n
    off = engine.end_offset if engine.end_offset is not None else m
    ops: list[list] = []
    for _ in range(2 * (n + m) + s + 4):
        if s == 0:
            _finish_at_origin(engine, ops, k, off)
            return ops
        sub = offset(s - x, "M", k) + 1
        if sub < 1 or sub > m or sub - k > n:
            sub = OFFSET_NULL
        ins = offset(s - ind, "M", k - 1) + 1
        if ins < 1 or ins > m or ins - k > n:
            ins = OFFSET_NULL
        dele = offset(s - ind, "M", k + 1)
        if dele < 0 or dele - k > n:
            dele = OFFSET_NULL
        best = max(sub, ins, dele)
        if best <= NULL_THRESHOLD:
            raise AlignmentError(
                f"traceback dead end at (s={s}, M, k={k}, offset={off})"
            )
        _emit(ops, "M", off - best)
        if best == sub:
            _emit(ops, "X", 1)
            s -= x
            off = best - 1
        elif best == ins:
            _emit(ops, "I", 1)
            s -= ind
            k -= 1
            off = best - 1
        else:
            _emit(ops, "D", 1)
            s -= ind
            k += 1
            off = best
    raise AlignmentError("traceback did not terminate")  # pragma: no cover
