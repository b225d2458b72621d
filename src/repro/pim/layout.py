"""MRAM data layout: how read pairs and results live in a DPU's bank.

The host and the DPU kernel agree on a fixed-slot layout so that record
addresses are computable (no pointer chasing through MRAM) and every
record boundary is 8-byte aligned (DMA-able):

::

    0x00  header (64 B): magic, num_pairs, slot sizes, region bases
    .     input region:  num_pairs fixed-size input records
    .     output region: num_pairs fixed-size result records
    .     metadata region: per-tasklet WFA-metadata arenas (paper's
          "store the metadata in MRAM" design)

Input record: ``u32 pattern_len | u32 text_len | pattern (padded to 8) |
text (padded to 8)``.  Result record: ``i32 score | u32 n_ops |
u32 pattern_start | u32 text_start | n_ops x u32 packed RLE CIGAR
(padded to 8)`` where each op packs ``length << 8 | ascii(op)`` and the
start fields give the aligned region's origin (0 for global alignment;
meaningful under ends-free spans).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.core.cigar import Cigar, cigar_op
from repro.data.generator import ReadPair
from repro.errors import CigarError, LayoutError
from repro.pim.dma import aligned_size
from repro.pim.memory import Mram

__all__ = ["MramLayout", "HEADER_BYTES", "LAYOUT_MAGIC"]

HEADER_BYTES = 64
LAYOUT_MAGIC = 0x5746_4150_494D_0001  # "WFA PIM" v1

#: record shapes :func:`_input_struct` and :func:`_result_struct` each
#: keep compiled, least recently used out: one input shape per pair of
#: slot sizes, one result shape per CIGAR run count (at most 43 at
#: 1000 bp / 20 edits), each a few hundred bytes.
RECORD_STRUCT_CACHE = 128

_LENGTHS = struct.Struct("<II")


@lru_cache(maxsize=RECORD_STRUCT_CACHE)
def _input_struct(pattern_slot: int, text_slot: int) -> struct.Struct:
    """An input record: two length words, then each sequence zero-padded
    to its slot."""
    return struct.Struct(f"<II{pattern_slot}s{text_slot}s")


@lru_cache(maxsize=RECORD_STRUCT_CACHE)
def _result_struct(n_ops: int, pad: int) -> struct.Struct:
    """A result record of ``n_ops`` CIGAR words and ``pad`` zero bytes."""
    return struct.Struct(f"<iIII{n_ops}I{pad}x")


@dataclass(frozen=True)
class MramLayout:
    """Computed layout of one DPU's MRAM bank for a batch of pairs."""

    num_pairs: int
    pattern_slot: int  # padded bytes reserved per pattern
    text_slot: int
    max_cigar_ops: int  # RLE runs reservable per result
    metadata_bytes_per_tasklet: int
    tasklets: int

    @classmethod
    def plan(
        cls,
        num_pairs: int,
        max_pattern_len: int,
        max_text_len: int,
        max_cigar_ops: int,
        tasklets: int,
        metadata_bytes_per_tasklet: int = 0,
        mram_capacity: int = 64 * 1024 * 1024,
    ) -> "MramLayout":
        """Size the regions and check the bank can hold them."""
        if num_pairs < 0:
            raise LayoutError(f"num_pairs must be >= 0, got {num_pairs}")
        if max_pattern_len < 0 or max_text_len < 0:
            raise LayoutError("sequence slot lengths must be >= 0")
        if max_cigar_ops < 1:
            raise LayoutError("max_cigar_ops must be >= 1")
        if tasklets < 1:
            raise LayoutError("tasklets must be >= 1")
        layout = cls(
            num_pairs=num_pairs,
            pattern_slot=aligned_size(max(max_pattern_len, 1)),
            text_slot=aligned_size(max(max_text_len, 1)),
            max_cigar_ops=max_cigar_ops,
            metadata_bytes_per_tasklet=aligned_size(metadata_bytes_per_tasklet),
            tasklets=tasklets,
        )
        if layout.total_bytes > mram_capacity:
            raise LayoutError(
                f"layout needs {layout.total_bytes} bytes, MRAM bank holds "
                f"{mram_capacity}"
            )
        return layout

    # -- region geometry -----------------------------------------------------

    # Computed once per layout, since the kernel and the transfers read
    # them for every pair.  A value is cached in the instance ``__dict__``
    # on first read; equality and hashing see only the fields.

    @cached_property
    def input_record_size(self) -> int:
        return 8 + self.pattern_slot + self.text_slot

    @cached_property
    def result_record_size(self) -> int:
        return 16 + aligned_size(4 * self.max_cigar_ops)

    @property
    def input_base(self) -> int:
        return HEADER_BYTES

    @cached_property
    def output_base(self) -> int:
        return self.input_base + self.num_pairs * self.input_record_size

    @property
    def metadata_base(self) -> int:
        return self.output_base + self.num_pairs * self.result_record_size

    @property
    def total_bytes(self) -> int:
        return self.metadata_base + self.tasklets * self.metadata_bytes_per_tasklet

    def input_addr(self, index: int) -> int:
        self._check_index(index)
        return self.input_base + index * self.input_record_size

    def result_addr(self, index: int) -> int:
        self._check_index(index)
        return self.output_base + index * self.result_record_size

    def metadata_addr(self, tasklet: int) -> int:
        if not 0 <= tasklet < self.tasklets:
            raise LayoutError(f"tasklet {tasklet} outside [0, {self.tasklets})")
        return self.metadata_base + tasklet * self.metadata_bytes_per_tasklet

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_pairs:
            raise LayoutError(f"pair index {index} outside [0, {self.num_pairs})")

    # -- host-side serialization ---------------------------------------------

    def write_header(self, mram: Mram) -> None:
        """Write the layout header the DPU kernel parses at startup."""
        words = [
            LAYOUT_MAGIC,
            self.num_pairs,
            self.pattern_slot,
            self.text_slot,
            self.max_cigar_ops,
            self.metadata_bytes_per_tasklet,
            self.tasklets,
            0,
        ]
        data = b"".join(w.to_bytes(8, "little") for w in words)
        assert len(data) == HEADER_BYTES
        mram.host_write(0, data)

    @classmethod
    def read_header(cls, mram: Mram) -> "MramLayout":
        """Parse a header back into a layout (what the kernel does)."""
        data = mram.read(0, HEADER_BYTES)
        words = [
            int.from_bytes(data[i : i + 8], "little") for i in range(0, HEADER_BYTES, 8)
        ]
        if words[0] != LAYOUT_MAGIC:
            raise LayoutError(f"bad layout magic {words[0]:#x}")
        return cls(
            num_pairs=words[1],
            pattern_slot=words[2],
            text_slot=words[3],
            max_cigar_ops=words[4],
            metadata_bytes_per_tasklet=words[5],
            tasklets=words[6],
        )

    def pack_pair(self, pair: ReadPair) -> bytes:
        """Serialize one pair into its fixed-size input record."""
        p = pair.pattern.encode("ascii")
        t = pair.text.encode("ascii")
        if len(p) > self.pattern_slot:
            raise LayoutError(
                f"pattern of {len(p)} bytes exceeds slot {self.pattern_slot}"
            )
        if len(t) > self.text_slot:
            raise LayoutError(f"text of {len(t)} bytes exceeds slot {self.text_slot}")
        return _input_struct(self.pattern_slot, self.text_slot).pack(
            len(p), len(t), p, t
        )

    def unpack_pair(self, record: bytes) -> ReadPair:
        """Deserialize an input record (the kernel-side view)."""
        if len(record) != self.input_record_size:
            raise LayoutError(
                f"input record of {len(record)} bytes, expected "
                f"{self.input_record_size}"
            )
        plen = int.from_bytes(record[0:4], "little")
        tlen = int.from_bytes(record[4:8], "little")
        if plen > self.pattern_slot or tlen > self.text_slot:
            raise LayoutError("input record lengths exceed their slots")
        try:
            pattern = record[8 : 8 + plen].decode("ascii")
            text = record[
                8 + self.pattern_slot : 8 + self.pattern_slot + tlen
            ].decode("ascii")
        except UnicodeDecodeError as exc:
            raise LayoutError(f"input record holds non-ASCII bytes: {exc}") from exc
        return ReadPair(pattern=pattern, text=text)

    def holds(self, record: bytes, pattern: str, text: str) -> bool:
        """Whether :meth:`unpack_pair` of ``record`` is exactly this pair.

        True when the record's two length words and its pattern and text
        slices hold the sequences' ASCII bytes, which is exactly when
        the record decodes to them; the padding is never decoded, so it
        is not compared.  Checks the record as bytes, so the kernel
        decodes only a record that differs from the pair it expects.
        """
        n, m = len(pattern), len(text)
        text_at = 8 + self.pattern_slot
        return (
            len(record) == self.input_record_size
            and n <= self.pattern_slot
            and m <= self.text_slot
            and pattern.isascii()
            and text.isascii()
            and record[:8] == _LENGTHS.pack(n, m)
            and record[8 : 8 + n] == pattern.encode("ascii")
            and record[text_at : text_at + m] == text.encode("ascii")
        )

    def pack_result(
        self,
        score: int,
        cigar: Cigar | None,
        pattern_start: int = 0,
        text_start: int = 0,
    ) -> bytes:
        """Serialize a result record (what the kernel writes back)."""
        ops = cigar.ops if cigar is not None else ()
        if len(ops) > self.max_cigar_ops:
            raise LayoutError(
                f"CIGAR with {len(ops)} runs exceeds slot of {self.max_cigar_ops}"
            )
        if pattern_start < 0 or text_start < 0:
            raise LayoutError("aligned-region starts must be >= 0")
        words = [(op.length << 8) | ord(op.op) for op in ops]
        if words and max(words) >> 32:
            raise LayoutError(f"CIGAR run of {max(words) >> 8} too long to pack")
        # High bit of the op-count word distinguishes "CIGAR present" from
        # score-only results (an empty CIGAR — empty vs empty pair — is a
        # valid present CIGAR).
        n_ops_field = len(ops) | (0x8000_0000 if cigar is not None else 0)
        pad = self.result_record_size - 16 - 4 * len(ops)
        return _result_struct(len(ops), pad).pack(
            score, n_ops_field, pattern_start, text_start, *words
        )

    def unpack_result(self, record: bytes) -> tuple[int, Cigar | None]:
        """Deserialize a result record (the host-side gather view).

        Every malformed field raises :class:`LayoutError`, a CIGAR word
        whose op byte is not one of ``M``, ``X``, ``I``, ``D`` or whose
        run length is zero included, so rot anywhere in a record fails
        as one typed parse error.  The head is one unpack and the CIGAR
        words another, both little-endian on every host; each run comes
        from :func:`~repro.core.cigar.cigar_op`, so records and
        tracebacks with the same run share one op.
        """
        if len(record) != self.result_record_size:
            raise LayoutError(
                f"result record of {len(record)} bytes, expected "
                f"{self.result_record_size}"
            )
        score, n_ops_field = struct.unpack_from("<iI", record)
        n_ops = n_ops_field & 0x7FFF_FFFF
        if n_ops > self.max_cigar_ops:
            raise LayoutError(f"result claims {n_ops} CIGAR runs > slot")
        if not n_ops_field & 0x8000_0000:
            return score, None
        words = struct.unpack_from(f"<{n_ops}I", record, 16)
        try:
            ops = [cigar_op(word >> 8, chr(word & 0xFF)) for word in words]
        except CigarError:
            for i, word in enumerate(words):  # name the first word that fails
                try:
                    cigar_op(word >> 8, chr(word & 0xFF))
                except CigarError:
                    raise LayoutError(
                        f"CIGAR word {i} ({word:#010x}) is no valid run"
                    ) from None
        return score, Cigar(ops)

    def unpack_result_region(self, record: bytes) -> tuple[int, int]:
        """The aligned region's ``(pattern_start, text_start)``.

        Zero for global alignments; the clipped-prefix lengths under
        ends-free spans.
        """
        if len(record) != self.result_record_size:
            raise LayoutError(
                f"result record of {len(record)} bytes, expected "
                f"{self.result_record_size}"
            )
        return struct.unpack_from("<II", record, 8)
