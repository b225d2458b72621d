"""Unit + property tests for CIGAR parsing, scoring and validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cigar import Cigar, CigarOp
from repro.core.penalties import AffinePenalties, EditPenalties
from repro.errors import CigarError


class TestCigarOp:
    def test_valid(self):
        op = CigarOp(3, "M")
        assert op.length == 3
        assert str(op) == "3M"

    def test_invalid_op(self):
        with pytest.raises(CigarError):
            CigarOp(1, "Z")

    def test_invalid_length(self):
        with pytest.raises(CigarError):
            CigarOp(0, "M")
        with pytest.raises(CigarError):
            CigarOp(-2, "X")

    def test_consumption_flags(self):
        assert CigarOp(1, "M").consumes_pattern and CigarOp(1, "M").consumes_text
        assert CigarOp(1, "X").consumes_pattern and CigarOp(1, "X").consumes_text
        assert not CigarOp(1, "I").consumes_pattern and CigarOp(1, "I").consumes_text
        assert CigarOp(1, "D").consumes_pattern and not CigarOp(1, "D").consumes_text


class TestParsing:
    def test_rle_roundtrip(self):
        c = Cigar.from_string("3M1X2I4D")
        assert str(c) == "3M1X2I4D"

    def test_expanded_parse(self):
        assert str(Cigar.from_string("MMMXII")) == "3M1X2I"

    def test_empty(self):
        c = Cigar.from_string("")
        assert len(c) == 0
        assert c.columns() == 0

    def test_adjacent_runs_merge(self):
        c = Cigar([CigarOp(2, "M"), CigarOp(3, "M"), CigarOp(1, "X")])
        assert str(c) == "5M1X"

    def test_malformed(self):
        for bad in ("3", "M3", "3Q", "3M4", "x3M", "3M 4X"):
            with pytest.raises(CigarError):
                Cigar.from_string(bad)

    def test_from_pair(self):
        c = Cigar.from_pair("ACGT", "AGGT")
        assert str(c) == "1M1X2M"

    def test_from_pair_length_mismatch(self):
        with pytest.raises(CigarError):
            Cigar.from_pair("AC", "A")

    def test_equality_and_hash(self):
        a = Cigar.from_string("2M1X")
        b = Cigar.from_string("MMX")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Cigar.from_string("3M")


class TestMeasurements:
    def test_lengths(self):
        c = Cigar.from_string("3M1X2I4D")
        assert c.columns() == 10
        assert c.pattern_length() == 8  # M+X+D
        assert c.text_length() == 6  # M+X+I

    def test_counts(self):
        c = Cigar.from_string("3M1X2I4D")
        assert c.counts() == {"M": 3, "X": 1, "I": 2, "D": 4}
        assert c.edit_distance() == 7

    def test_expanded(self):
        assert Cigar.from_string("2M1D").expanded() == "MMD"


class TestScoring:
    def test_affine_run_pays_one_opening(self):
        pen = AffinePenalties(4, 6, 2)
        assert Cigar.from_string("3I").score(pen) == 12
        assert Cigar.from_string("1I1D1I").score(pen) == 24  # three openings

    def test_edit_score_is_edit_distance(self):
        c = Cigar.from_string("5M2X1I3D")
        assert c.score(EditPenalties()) == c.edit_distance()

    def test_all_match_scores_zero(self):
        assert Cigar.from_string("100M").score(AffinePenalties()) == 0


class TestValidation:
    def test_valid_alignment(self):
        Cigar.from_string("2M1X1M").validate("ACGT", "ACCT")

    def test_wrong_pattern_length(self):
        with pytest.raises(CigarError):
            Cigar.from_string("3M").validate("ACGT", "ACG")

    def test_wrong_text_length(self):
        with pytest.raises(CigarError):
            Cigar.from_string("4M").validate("ACGT", "ACGTT")

    def test_match_on_unequal_chars(self):
        with pytest.raises(CigarError):
            Cigar.from_string("4M").validate("ACGT", "ACCT")

    def test_mismatch_on_equal_chars(self):
        with pytest.raises(CigarError):
            Cigar.from_string("1X3M").validate("ACGT", "ACGT")

    def test_indels(self):
        Cigar.from_string("2M2I2M").validate("ACGT", "ACTTGT")
        Cigar.from_string("2M2D2M").validate("ACTTGT", "ACGT")

    @pytest.mark.parametrize(
        "cigar,pattern,text,message",
        [
            (
                "5M",
                "ACGTA",
                "ACCTA",
                "M column pairs unequal chars at pattern[2]='G', text[2]='C'",
            ),
            (
                "3X",
                "ACG",
                "TCA",
                "X column pairs equal chars at pattern[1]='C', text[1]='C'",
            ),
            (
                "1M2I1D4M",
                "AGCATG",
                "ATTCAAG",
                "M column pairs unequal chars at pattern[4]='T', text[5]='A'",
            ),
            (
                "1M1D2I3X",
                "ACGTA",
                "AGGCTG",
                "X column pairs equal chars at pattern[3]='T', text[4]='T'",
            ),
        ],
        ids=["M-middle", "X-middle", "M-after-indels", "X-after-indels"],
    )
    def test_message_names_the_first_offending_column(
        self, cigar, pattern, text, message
    ):
        with pytest.raises(CigarError) as excinfo:
            Cigar.from_string(cigar).validate(pattern, text)
        assert str(excinfo.value) == message

    def test_apply_to_pattern_reconstructs_text(self):
        p, t = "ACGTACGT", "ACTTACG"
        c = Cigar.from_string("2M1X1M1M1M1M1D")
        c.validate(p, t)
        assert c.apply_to_pattern(p, t) == t


class TestPretty:
    def test_pretty_shape(self):
        p, t = "ACGT", "ACCT"
        out = Cigar.from_string("2M1X1M").pretty(p, t)
        lines = out.splitlines()
        assert lines[0] == "ACGT"
        assert lines[1] == "|| |"
        assert lines[2] == "ACCT"

    def test_pretty_with_gaps(self):
        out = Cigar.from_string("2M1I2M").pretty("ACGT", "ACTGT")
        assert "-" in out.splitlines()[0]


@given(
    ops=st.lists(
        st.tuples(st.integers(1, 9), st.sampled_from("MXID")), min_size=0, max_size=12
    )
)
def test_property_roundtrip_parse_format(ops):
    c = Cigar(CigarOp(n, o) for n, o in ops)
    assert Cigar.from_string(str(c)) == c
    assert Cigar.from_string(c.expanded()) == c
    assert c.columns() == sum(n for n, _ in ops)


class TestTransforms:
    def test_sam_spelling(self):
        assert Cigar.from_string("3M1X2I").sam() == "3=1X2I"
        assert Cigar.from_string("").sam() == ""

    def test_swapped_exchanges_gap_roles(self):
        c = Cigar.from_string("2M1I3M2D")
        s = c.swapped()
        assert str(s) == "2M1D3M2I"
        assert s.swapped() == c

    def test_reversed_is_involution(self):
        c = Cigar.from_string("2M1X1I4M")
        assert c.reversed().reversed() == c
        assert str(c.reversed()) == "4M1I1X2M"

    def test_transforms_against_the_aligner(self):
        """reversed()/swapped() produce valid alignments of the
        transformed sequences with identical scores."""
        from repro.core.aligner import WavefrontAligner
        from repro.core.penalties import AffinePenalties

        pen = AffinePenalties(4, 6, 2)
        p, t = "ACGTACGTAC", "ACGTTACGC"
        r = WavefrontAligner(pen).align(p, t)
        r.cigar.swapped().validate(t, p)
        assert r.cigar.swapped().score(pen) == r.score
        r.cigar.reversed().validate(p[::-1], t[::-1])
        assert r.cigar.reversed().score(pen) == r.score


@given(
    ops=st.lists(
        st.tuples(st.integers(1, 9), st.sampled_from("MXID")), min_size=0, max_size=12
    )
)
def test_property_transforms_preserve_columns(ops):
    c = Cigar(CigarOp(n, o) for n, o in ops)
    assert c.reversed().columns() == c.columns()
    assert c.swapped().columns() == c.columns()
    assert c.swapped().pattern_length() == c.text_length()
    assert c.swapped().text_length() == c.pattern_length()
    from repro.core.penalties import AffinePenalties

    pen = AffinePenalties(4, 6, 2)
    assert c.reversed().score(pen) == c.score(pen)
    assert c.swapped().score(pen) == c.score(pen)
