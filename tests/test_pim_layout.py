"""Tests for the MRAM data layout and record packing."""

import operator
import pickle

import pytest

from repro.core import cigar as cigar_module
from repro.core.backtrace import backtrace
from repro.core.cigar import Cigar
from repro.core.penalties import AffinePenalties
from repro.core.wfa import WfaEngine
from repro.data.generator import ReadPair
from repro.errors import LayoutError
from repro.pim.layout import HEADER_BYTES, MramLayout
from repro.pim.memory import Mram


def make_layout(**kw) -> MramLayout:
    defaults = dict(
        num_pairs=10,
        max_pattern_len=100,
        max_text_len=100,
        max_cigar_ops=11,
        tasklets=4,
        metadata_bytes_per_tasklet=1024,
    )
    defaults.update(kw)
    return MramLayout.plan(**defaults)


class TestGeometry:
    def test_record_sizes_are_8_aligned(self):
        layout = make_layout()
        assert layout.input_record_size % 8 == 0
        assert layout.result_record_size % 8 == 0
        assert layout.input_record_size == 8 + 104 + 104

    def test_regions_do_not_overlap(self):
        layout = make_layout()
        assert layout.input_base == HEADER_BYTES
        assert layout.output_base == layout.input_base + 10 * layout.input_record_size
        assert layout.metadata_base == (
            layout.output_base + 10 * layout.result_record_size
        )
        assert layout.total_bytes == layout.metadata_base + 4 * 1024

    def test_cached_sizes_keep_equality_and_pickling(self):
        """The record sizes are computed once per layout, and a layout that
        cached them still equals, hashes and pickles as its fields say."""
        layout = make_layout()
        sizes = (layout.input_record_size, layout.result_record_size, layout.output_base)
        assert sizes == (216, 64, HEADER_BYTES + 10 * 216)
        fresh = make_layout()
        assert layout == fresh and hash(layout) == hash(fresh)
        assert layout != make_layout(num_pairs=11)
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout
        assert (clone.input_record_size, clone.result_record_size, clone.output_base) == sizes

    def test_addresses(self):
        layout = make_layout()
        assert layout.input_addr(0) == layout.input_base
        assert layout.input_addr(3) == layout.input_base + 3 * layout.input_record_size
        assert layout.result_addr(9) < layout.metadata_base
        assert layout.metadata_addr(0) == layout.metadata_base
        assert layout.metadata_addr(3) == layout.metadata_base + 3 * 1024

    def test_index_bounds(self):
        layout = make_layout()
        with pytest.raises(LayoutError):
            layout.input_addr(10)
        with pytest.raises(LayoutError):
            layout.result_addr(-1)
        with pytest.raises(LayoutError):
            layout.metadata_addr(4)

    def test_overflow_rejected(self):
        with pytest.raises(LayoutError, match="MRAM"):
            make_layout(num_pairs=10_000_000)

    def test_plan_validation(self):
        with pytest.raises(LayoutError):
            make_layout(num_pairs=-1)
        with pytest.raises(LayoutError):
            make_layout(max_cigar_ops=0)
        with pytest.raises(LayoutError):
            make_layout(tasklets=0)


class TestHeader:
    def test_header_roundtrip(self):
        layout = make_layout()
        mram = Mram()
        layout.write_header(mram)
        parsed = MramLayout.read_header(mram)
        assert parsed == layout

    def test_bad_magic_rejected(self):
        mram = Mram()
        mram.write(0, b"\x00" * HEADER_BYTES)
        with pytest.raises(LayoutError, match="magic"):
            MramLayout.read_header(mram)


class TestPairRecords:
    def test_roundtrip(self):
        layout = make_layout()
        pair = ReadPair(pattern="ACGT" * 20, text="TGCA" * 24)
        rec = layout.pack_pair(pair)
        assert len(rec) == layout.input_record_size
        out = layout.unpack_pair(rec)
        assert out.pattern == pair.pattern
        assert out.text == pair.text

    def test_empty_sequences(self):
        layout = make_layout()
        out = layout.unpack_pair(layout.pack_pair(ReadPair(pattern="", text="")))
        assert out.pattern == "" and out.text == ""

    def test_oversized_rejected(self):
        layout = make_layout(max_pattern_len=10, max_text_len=10)
        with pytest.raises(LayoutError):
            layout.pack_pair(ReadPair(pattern="A" * 20, text="A"))
        with pytest.raises(LayoutError):
            layout.pack_pair(ReadPair(pattern="A", text="A" * 20))

    def test_unpack_wrong_size(self):
        layout = make_layout()
        with pytest.raises(LayoutError):
            layout.unpack_pair(b"\x00" * 8)


class TestResultRecords:
    def test_roundtrip_with_cigar(self):
        layout = make_layout()
        cigar = Cigar.from_string("48M1X50M1I")
        rec = layout.pack_result(12, cigar)
        score, out = layout.unpack_result(rec)
        assert score == 12
        assert out == cigar

    def test_record_bytes_are_little_endian(self):
        """A record is ``i32 score | u32 n_ops | u32 pattern_start |
        u32 text_start | u32 words``, little-endian, zero-padded."""
        layout = make_layout(max_cigar_ops=3)
        rec = layout.pack_result(-2, Cigar.from_string("300M1I"), 5, 7)
        words = ((300 << 8) | ord("M"), (1 << 8) | ord("I"))
        want = (
            (-2).to_bytes(4, "little", signed=True)
            + (2 | 0x8000_0000).to_bytes(4, "little")
            + (5).to_bytes(4, "little")
            + (7).to_bytes(4, "little")
            + b"".join(w.to_bytes(4, "little") for w in words)
        )
        assert rec == want.ljust(layout.result_record_size, b"\x00")
        assert layout.unpack_result_region(rec) == (5, 7)
        score, cigar = layout.unpack_result(rec)
        assert (score, str(cigar)) == (-2, "300M1I")

    def test_decoded_ops_are_shared_and_bounded(self):
        """One immutable ``CigarOp`` per distinct run, shared with
        traceback, from a memo of at most :data:`CIGAR_OP_CACHE` runs."""
        layout = make_layout()
        rec = layout.pack_result(9, Cigar.from_string("7M1X7M"))
        first, again = layout.unpack_result(rec)[1], layout.unpack_result(rec)[1]
        assert first.ops[0] is again.ops[0]
        engine = WfaEngine("ACGTACGA", "ACGTTCGA", AffinePenalties())
        engine.run()
        traced = backtrace(engine)
        decoded = layout.unpack_result(layout.pack_result(4, traced))[1]
        assert str(traced) == "4M1X3M"
        assert all(map(operator.is_, decoded.ops, traced.ops))
        memo, bound = cigar_module.cigar_op, cigar_module.CIGAR_OP_CACHE
        assert memo.cache_info().maxsize == bound
        memo.cache_clear()
        for run in range(1, bound + 9):
            layout.unpack_result(layout.pack_result(0, Cigar.from_string(f"{run}M")))
            assert memo.cache_info().currsize == min(run, bound)

    def test_score_only(self):
        layout = make_layout()
        score, cigar = layout.unpack_result(layout.pack_result(-3, None))
        assert score == -3
        assert cigar is None

    def test_empty_cigar_distinct_from_none(self):
        layout = make_layout()
        score, cigar = layout.unpack_result(layout.pack_result(0, Cigar()))
        assert cigar is not None
        assert cigar.columns() == 0

    def test_too_many_ops_rejected(self):
        layout = make_layout(max_cigar_ops=2)
        with pytest.raises(LayoutError):
            layout.pack_result(0, Cigar.from_string("1M1X1M1X1M"))

    def test_giant_run_rejected(self):
        layout = make_layout()
        with pytest.raises(LayoutError):
            layout.pack_result(0, Cigar.from_string(f"{1 << 24}M"))

    def test_unpack_wrong_size(self):
        layout = make_layout()
        with pytest.raises(LayoutError):
            layout.unpack_result(b"\x00" * 4)

    @pytest.mark.parametrize(
        "word",
        [(3 << 8) | ord("Q"), (3 << 8) | 0xCD, ord("M")],
        ids=["op-Q", "op-0xCD", "zero-run"],
    )
    def test_invalid_cigar_word_is_a_layout_error(self, word):
        """An op byte outside MXID, or a zero-length run, fails the parse
        as a :class:`LayoutError`, not an untyped ``CigarError``."""
        layout = make_layout()
        rec = bytearray(layout.pack_result(5, Cigar.from_string("4M1X4M")))
        rec[20:24] = word.to_bytes(4, "little")  # the second run's word
        with pytest.raises(LayoutError, match="CIGAR word 1"):
            layout.unpack_result(bytes(rec))
