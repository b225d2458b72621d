"""Greedy wavefront extension.

After the recurrences place a furthest-reaching point on each diagonal,
WFA *extends* every point along its diagonal for as long as pattern and
text characters match — these matches are free (penalty 0), which is the
source of WFA's speed on similar sequences.

Two equivalent strategies are provided:

* :func:`extend_diagonal` — the straightforward per-character loop (what
  the scalar DPU code runs; the paper removes vectorization for the PIM
  version because UPMEM has no SIMD).
* :func:`extend_diagonal_blocked` — compares 8-byte blocks first, the
  standard trick of the vectorized CPU implementation.  Functionally
  identical; used by the CPU-side runner and exercised by tests as a
  cross-check.

Both return the new offset and the number of character comparisons
performed, so callers can charge instruction costs faithfully.

The batched NumPy engine (:mod:`repro.core.wfa_batch`) replaces the
per-cell loop of :func:`extend_wavefront` with whole-batch comparisons
of packed 64-bit words but reproduces its comparison counts exactly.
"""

from __future__ import annotations

from repro.core.wavefront import NULL_THRESHOLD

__all__ = ["extend_diagonal", "extend_diagonal_blocked", "extend_wavefront"]


def extend_diagonal(
    pattern: str, text: str, k: int, offset: int
) -> tuple[int, int]:
    """Extend a furthest-reaching point along diagonal ``k``.

    Args:
        pattern: the vertical sequence (length ``n``).
        text: the horizontal sequence (length ``m``).
        k: the diagonal (``h - v``).
        offset: the current offset (``h``).

    Returns:
        ``(new_offset, comparisons)`` where ``new_offset >= offset`` and
        ``comparisons`` counts every character pair examined, including
        the final non-matching probe (if any).
    """
    n = len(pattern)
    m = len(text)
    v = offset - k
    h = offset
    comparisons = 0
    while v < n and h < m:
        comparisons += 1
        if pattern[v] != text[h]:
            break
        v += 1
        h += 1
    return h, comparisons


def extend_diagonal_blocked(
    pattern: bytes, text: bytes, k: int, offset: int, block: int = 8
) -> tuple[int, int]:
    """Block-compare variant of :func:`extend_diagonal` for byte strings.

    Compares ``block``-byte slices at a time — mirroring the 64-bit-word
    comparison of WFA's vectorized CPU build.  The returned probe count
    is proportional to executed compare *instructions*, never to
    characters matched.  The charging contract:

    * a whole **matching** block costs 1 probe (one word compare);
    * a **differing** block costs exactly 2 probes: the word compare
      that detected the difference plus one probe to locate the first
      differing byte inside it (XOR + count-trailing-zeros on hardware).
      The bytes of a differing block are *never* re-probed one by one —
      re-charging up to ``block`` byte probes for bytes the word compare
      already examined would make the blocked count diverge from the
      executed-instruction count the CPU timing model wants;
    * the **byte tail** — positions reached only when fewer than
      ``block`` bytes remain in either sequence — costs 1 probe per byte
      examined, including the final mismatching probe (if any), exactly
      like :func:`extend_diagonal`.

    The returned offset is always identical to the scalar variant's.
    """
    n = len(pattern)
    m = len(text)
    v = offset - k
    h = offset
    probes = 0
    # Whole blocks while both sequences have `block` bytes left.
    while v + block <= n and h + block <= m:
        probes += 1
        p_block = pattern[v : v + block]
        t_block = text[h : h + block]
        if p_block == t_block:
            v += block
            h += block
            continue
        # The difference sits inside this block: one more probe locates
        # it (modeled XOR+ctz), without re-probing the block's bytes.
        probes += 1
        matched = next(i for i in range(block) if p_block[i] != t_block[i])
        return h + matched, probes
    # Byte tail: fewer than `block` bytes remain in one of the sequences.
    while v < n and h < m:
        probes += 1
        if pattern[v] != text[h]:
            break
        v += 1
        h += 1
    return h, probes


def extend_wavefront(pattern: str, text: str, wavefront) -> int:
    """Extend every reached diagonal of an M wavefront in place.

    "Reached" uses the same :data:`~repro.core.wavefront.NULL_THRESHOLD`
    contract as :meth:`~repro.core.wavefront.Wavefront.reached`, so a
    sentinel-adjusted value (e.g. ``OFFSET_NULL + 1`` escaping from the
    recurrences) can never be extended as if it were a real offset.

    Returns the total number of character comparisons, which the caller
    accumulates into :class:`~repro.core.wavefront.WfaCounters`.
    """
    comparisons = 0
    offsets = wavefront.offsets
    lo = wavefront.lo
    for idx, offset in enumerate(offsets):
        if offset <= NULL_THRESHOLD:  # unreached (incl. adjusted sentinels)
            continue
        new_offset, comp = extend_diagonal(pattern, text, lo + idx, offset)
        offsets[idx] = new_offset
        comparisons += comp
    return comparisons
