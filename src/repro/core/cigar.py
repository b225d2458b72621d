"""CIGAR representation and manipulation.

A CIGAR describes a pairwise alignment as a sequence of operations over
the *pattern* (query, "vertical" sequence) and the *text* (target,
"horizontal" sequence):

====  =====================================  ==================
op    meaning                                consumes
====  =====================================  ==================
M     match (equal characters)               pattern and text
X     mismatch (unequal characters)          pattern and text
I     insertion (character only in text)     text
D     deletion (character only in pattern)   pattern
====  =====================================  ==================

This matches the convention of WFA / WFA2-lib (with the distinction
between ``M`` and ``X`` made explicit, i.e. the extended CIGAR of
SAM's ``=``/``X``, spelled ``M``/``X`` as in the WFA paper).

The class stores run-length-encoded operations and offers parsing,
formatting, scoring under any :class:`~repro.core.penalties.Penalties`
model, validation against the aligned sequences, and reconstruction of
either sequence from the other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import eq
from typing import Iterable, Iterator

from repro.core.penalties import Penalties
from repro.errors import CigarError

__all__ = ["CigarOp", "Cigar", "cigar_op"]

_VALID_OPS = frozenset("MXID")
_TOKEN_RE = re.compile(r"(\d+)([MXID])")

#: runs :func:`cigar_op` keeps built, least recently used out.  Runs
#: repeat across pairs: the perf benchmark's 100 bp and 1000 bp pools
#: hold 107 and 243 distinct ones.  An entry, key and op, takes about
#: 500 B.
CIGAR_OP_CACHE = 1024


def _raise_first_bad_column(op: str, pattern, text, v: int, h: int, n: int) -> None:
    """Raise :class:`CigarError` naming the first column of an ``op`` run of
    ``n`` columns from ``(v, h)`` whose characters contradict ``op``."""
    for v, h in zip(range(v, v + n), range(h, h + n)):
        if (pattern[v] == text[h]) != (op == "M"):
            pair = "unequal" if op == "M" else "equal"
            raise CigarError(
                f"{op} column pairs {pair} chars at pattern[{v}]={pattern[v]!r}, "
                f"text[{h}]={text[h]!r}"
            )


@dataclass(frozen=True)
class CigarOp:
    """One run-length-encoded CIGAR operation."""

    length: int
    op: str

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise CigarError(f"invalid CIGAR op {self.op!r} (expected one of M, X, I, D)")
        if self.length <= 0:
            raise CigarError(f"CIGAR op length must be positive, got {self.length}")

    @property
    def consumes_pattern(self) -> bool:
        """True if this op advances the pattern cursor."""
        return self.op in ("M", "X", "D")

    @property
    def consumes_text(self) -> bool:
        """True if this op advances the text cursor."""
        return self.op in ("M", "X", "I")

    def __str__(self) -> str:
        return f"{self.length}{self.op}"


@lru_cache(maxsize=CIGAR_OP_CACHE)
def cigar_op(length: int, op: str) -> CigarOp:
    """The run of ``length`` columns of ``op``.

    ``CigarOp`` is immutable, so one op serves every CIGAR with the same
    run: traceback and the PIM result-record decoder both build their
    runs here.  An invalid run raises :class:`CigarError` as
    :class:`CigarOp` does, and is not kept.
    """
    return CigarOp(length, op)


class Cigar:
    """A run-length-encoded CIGAR with scoring and validation helpers."""

    __slots__ = ("_ops",)

    def __init__(self, ops: Iterable[CigarOp] = ()) -> None:
        merged: list[CigarOp] = []
        for op in ops:
            if merged and merged[-1].op == op.op:
                merged[-1] = CigarOp(merged[-1].length + op.length, op.op)
            else:
                merged.append(op)
        self._ops = tuple(merged)

    # -- constructors -----------------------------------------------------

    @classmethod
    def _of_runs(cls, ops: tuple[CigarOp, ...]) -> "Cigar":
        """The CIGAR of ``ops`` taken as they are, without the merge.

        Only for runs already canonical, where no two adjacent runs share
        an op, as traceback emits them; every other caller goes through
        ``Cigar(...)``.
        """
        cigar = cls.__new__(cls)
        cigar._ops = ops
        return cigar

    @classmethod
    def from_string(cls, text: str) -> "Cigar":
        """Parse either a run-length (``"3M1X2I"``) or expanded (``"MMMXII"``) CIGAR."""
        text = text.strip()
        if not text:
            return cls()
        if text[0].isdigit():
            ops = []
            pos = 0
            for match in _TOKEN_RE.finditer(text):
                if match.start() != pos:
                    raise CigarError(f"malformed CIGAR string: {text!r}")
                ops.append(CigarOp(int(match.group(1)), match.group(2)))
                pos = match.end()
            if pos != len(text):
                raise CigarError(f"malformed CIGAR string: {text!r}")
            return cls(ops)
        for ch in text:
            if ch not in _VALID_OPS:
                raise CigarError(f"invalid CIGAR op {ch!r} in {text!r}")
        return cls(CigarOp(1, ch) for ch in text)

    @classmethod
    def from_pair(cls, pattern: str, text: str) -> "Cigar":
        """Trivial CIGAR for equal-length sequences (no gaps): M/X per column."""
        if len(pattern) != len(text):
            raise CigarError("from_pair requires equal-length sequences")
        return cls(
            CigarOp(1, "M" if p == t else "X") for p, t in zip(pattern, text)
        )

    # -- protocol ----------------------------------------------------------

    @property
    def ops(self) -> tuple[CigarOp, ...]:
        """The run-length-encoded operations."""
        return self._ops

    def __iter__(self) -> Iterator[CigarOp]:
        return iter(self._ops)

    def __len__(self) -> int:
        """Number of run-length-encoded runs (not alignment columns)."""
        return len(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cigar):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __str__(self) -> str:
        return "".join(str(op) for op in self._ops)

    def __repr__(self) -> str:
        return f"Cigar({str(self)!r})"

    # -- measurements -------------------------------------------------------

    def expanded(self) -> str:
        """The expanded one-character-per-column form, e.g. ``"MMMXI"``."""
        return "".join(op.op * op.length for op in self._ops)

    def columns(self) -> int:
        """Total number of alignment columns."""
        return sum(op.length for op in self._ops)

    def pattern_length(self) -> int:
        """Number of pattern characters consumed (every op but ``I``)."""
        return sum(op.length for op in self._ops if op.op != "I")

    def text_length(self) -> int:
        """Number of text characters consumed (every op but ``D``)."""
        return sum(op.length for op in self._ops if op.op != "D")

    def counts(self) -> dict[str, int]:
        """Total characters per op kind, e.g. ``{"M": 97, "X": 2, "I": 1, "D": 0}``."""
        out = {"M": 0, "X": 0, "I": 0, "D": 0}
        for op in self._ops:
            out[op.op] += op.length
        return out

    def edit_distance(self) -> int:
        """Unit-cost distance implied by this alignment (X + I + D columns).

        This is an *upper bound* on the true Levenshtein distance of the
        aligned pair (the CIGAR may not be edit-optimal if it was produced
        under a different metric).
        """
        c = self.counts()
        return c["X"] + c["I"] + c["D"]

    # -- scoring -------------------------------------------------------------

    def score(self, penalties: Penalties) -> int:
        """Total penalty of this alignment under ``penalties`` (match = 0).

        Gap runs are priced per run via
        :meth:`~repro.core.penalties.Penalties.gap_cost`, so under affine
        penalties each maximal run of ``I`` or ``D`` pays one opening.
        """
        total = 0
        for op in self._ops:
            if op.op == "M":
                continue
            if op.op == "X":
                total += penalties.mismatch_cost() * op.length
            else:
                total += penalties.gap_cost(op.length)
        return total

    # -- validation ------------------------------------------------------------

    def validate(self, pattern: str, text: str) -> None:
        """Check that this CIGAR is a correct alignment of ``pattern`` to ``text``.

        Verifies consumed lengths and that every ``M`` column pairs equal
        characters and every ``X`` column pairs unequal characters.
        Raises :class:`CigarError` on any inconsistency.
        """
        if self.pattern_length() != len(pattern):
            raise CigarError(
                f"CIGAR consumes {self.pattern_length()} pattern chars, "
                f"sequence has {len(pattern)}"
            )
        if self.text_length() != len(text):
            raise CigarError(
                f"CIGAR consumes {self.text_length()} text chars, "
                f"sequence has {len(text)}"
            )
        # A run is checked whole: an M run as one slice equality, an X run
        # with one map; only a failing run is walked column by column, to
        # name its first offending column.
        v = h = 0
        for op in self._ops:
            n = op.length
            if op.op == "M":
                if pattern[v : v + n] != text[h : h + n]:
                    _raise_first_bad_column(op.op, pattern, text, v, h, n)
            elif op.op == "X":
                if any(map(eq, pattern[v : v + n], text[h : h + n])):
                    _raise_first_bad_column(op.op, pattern, text, v, h, n)
            if op.op != "I":
                v += n
            if op.op != "D":
                h += n

    def apply_to_pattern(self, pattern: str, text: str) -> str:
        """Rebuild the text implied by aligning ``pattern`` with this CIGAR.

        ``text`` supplies the characters for ``X`` and ``I`` columns (their
        identity is not recorded in the CIGAR).  With a valid CIGAR the
        result equals ``text``; used by tests as a round-trip check.
        """
        out: list[str] = []
        v = h = 0
        for op in self._ops:
            if op.op == "M":
                out.append(pattern[v : v + op.length])
                v += op.length
                h += op.length
            elif op.op == "X":
                out.append(text[h : h + op.length])
                v += op.length
                h += op.length
            elif op.op == "I":
                out.append(text[h : h + op.length])
                h += op.length
            else:  # D
                v += op.length
        return "".join(out)

    # -- transforms -----------------------------------------------------------

    def reversed(self) -> "Cigar":
        """The CIGAR of the same alignment on reversed sequences.

        If this aligns ``p`` to ``t``, the result aligns ``p[::-1]`` to
        ``t[::-1]`` with the same score under any penalty model here.
        """
        return Cigar(reversed(self._ops))

    def swapped(self) -> "Cigar":
        """The CIGAR with pattern/text roles exchanged (I <-> D).

        If this aligns ``p`` to ``t``, the result aligns ``t`` to ``p``.
        """
        flip = {"I": "D", "D": "I"}
        return Cigar(
            CigarOp(op.length, flip.get(op.op, op.op)) for op in self._ops
        )

    def sam(self) -> str:
        """SAM extended-CIGAR spelling (``=`` for matches, ``X`` kept)."""
        return "".join(
            f"{op.length}{'=' if op.op == 'M' else op.op}" for op in self._ops
        )

    # -- pretty printing -----------------------------------------------------------

    def pretty(self, pattern: str, text: str, width: int = 60) -> str:
        """Three-line alignment rendering (pattern / markers / text)."""
        top: list[str] = []
        mid: list[str] = []
        bot: list[str] = []
        v = h = 0
        for op in self._ops:
            for _ in range(op.length):
                if op.op in ("M", "X"):
                    top.append(pattern[v])
                    bot.append(text[h])
                    mid.append("|" if op.op == "M" else " ")
                    v += 1
                    h += 1
                elif op.op == "I":
                    top.append("-")
                    bot.append(text[h])
                    mid.append(" ")
                    h += 1
                else:
                    top.append(pattern[v])
                    bot.append("-")
                    mid.append(" ")
                    v += 1
        lines: list[str] = []
        for start in range(0, len(top), width):
            end = start + width
            lines.append("".join(top[start:end]))
            lines.append("".join(mid[start:end]))
            lines.append("".join(bot[start:end]))
            lines.append("")
        return "\n".join(lines).rstrip("\n")
