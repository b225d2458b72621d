"""Differential tests: the vectorized batch engine vs the scalar oracle.

The batch engine (:mod:`repro.core.wfa_batch`) is an accelerated
replica of :class:`~repro.core.wfa.WfaEngine`; the contract is
*bit-exact equality*, not approximate agreement — scores, CIGARs, the
full :class:`~repro.core.wavefront.WfaCounters` (including the
``wavefront_log`` the PIM timing model replays), error messages, and
every byte of the serve layer's responses must be unchanged when the
``engine="vector"`` knob is flipped.
"""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
import weakref

import pytest
from conftest import any_penalties, similar_pair
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    TwoPieceAffinePenalties,
    WavefrontAligner,
)
from repro.core.backtrace import backtrace
from repro.core.span import AlignmentSpan
from repro.core.wavefront import OFFSET_NULL
from repro.core import wfa_batch
from repro.core.wfa import WfaEngine
from repro.core.wfa_batch import BatchWfaEngine, align_batch
from repro.data.generator import ReadPairGenerator
from repro.errors import AlignmentError
from repro.pim.config import PimSystemConfig
from repro.pim.faults import DpuDeath, FaultPlan
from repro.pim.kernel import KernelConfig, KernelError
from repro.pim.system import PimSystem
from repro.serve import LoadgenConfig, ServiceConfig, build_service, run_load

all_penalties = st.one_of(
    any_penalties,
    st.just(TwoPieceAffinePenalties()),
    st.just(
        TwoPieceAffinePenalties(
            mismatch=5, gap_open1=4, gap_extend1=3, gap_open2=12, gap_extend2=1
        )
    ),
)

pair_batches = st.lists(
    similar_pair(max_len=24, max_edits=5), min_size=1, max_size=6
)


class TestDifferentialEquality:
    @given(pairs=pair_batches, pen=all_penalties)
    def test_full_mode_matches_scalar(self, pairs, pen):
        aligner = WavefrontAligner(penalties=pen)
        scalar = [aligner.align(p, t) for p, t in pairs]
        vector = align_batch(pairs, pen, validate=True)
        for s, v in zip(scalar, vector):
            assert s.score == v.score
            assert str(s.cigar) == str(v.cigar)
            assert s.counters == v.counters  # includes wavefront_log

    @given(pairs=pair_batches, pen=all_penalties)
    def test_score_only_matches_scalar(self, pairs, pen):
        aligner = WavefrontAligner(penalties=pen)
        scalar = [aligner.align(p, t, score_only=True) for p, t in pairs]
        vector = align_batch(pairs, pen, score_only=True)
        for s, v in zip(scalar, vector):
            assert s.score == v.score
            assert s.counters == v.counters  # low-memory accounting too

    @given(pair=similar_pair(max_len=40, max_edits=6), pen=all_penalties)
    def test_batch_of_one(self, pair, pen):
        aligner = WavefrontAligner(penalties=pen)
        s = aligner.align(*pair)
        (v,) = align_batch([pair], pen)
        assert (s.score, str(s.cigar), s.counters) == (
            v.score,
            str(v.cigar),
            v.counters,
        )

    def test_ragged_batch_with_empty_sequences(self):
        pairs = [
            ("", ""),
            ("", "ACGT"),
            ("ACGT", ""),
            ("A", "ACGTACGTACGT"),
            ("ACGTACGTACGTACGTACGT", "ACG"),
            ("ACGT", "ACGT"),
        ]
        pen = EditPenalties()
        aligner = WavefrontAligner(penalties=pen)
        scalar = [aligner.align(p, t) for p, t in pairs]
        vector = align_batch(pairs, pen, validate=True)
        for s, v in zip(scalar, vector):
            assert (s.score, str(s.cigar), s.counters) == (
                v.score,
                str(v.cigar),
                v.counters,
            )

    def test_empty_batch(self):
        assert align_batch([], EditPenalties()) == []


class TestFailureParity:
    def test_score_cap_message_and_index_match_scalar(self):
        pairs = [("AAAA", "AAAA"), ("AAAA", "TTTT"), ("ACGT", "ACGA")]
        aligner = WavefrontAligner(penalties=EditPenalties(), max_score=2)
        scalar_msg = None
        for p, t in pairs:
            try:
                aligner.align(p, t)
            except AlignmentError as exc:
                scalar_msg = str(exc)
                break
        with pytest.raises(AlignmentError) as excinfo:
            align_batch(pairs, EditPenalties(), max_score=2)
        assert str(excinfo.value) == scalar_msg

    def test_pairs_after_a_failure_still_complete(self):
        # The batch runs every pair to its own end; only the surfaced
        # exception follows scalar loop order.
        engine = BatchWfaEngine(
            [("AAAA", "TTTT"), ("ACGT", "ACGT")],
            EditPenalties(),
            max_score=2,
        )
        failed, ok = engine.run()
        assert failed.error is not None and failed.final_score is None
        assert ok.error is None and ok.final_score == 0

    def test_ends_free_span_rejected(self):
        with pytest.raises(AlignmentError, match="global spans only"):
            BatchWfaEngine(
                [("ACGT", "ACGT")],
                EditPenalties(),
                span=AlignmentSpan(text_begin_free=4),
            )


METRICS = pytest.mark.parametrize(
    "penalties",
    [
        EditPenalties(),
        LinearPenalties(),
        AffinePenalties(),
        TwoPieceAffinePenalties(),
    ],
    ids=["edit", "linear", "affine", "affine2p"],
)


class TestRelease:
    @METRICS
    def test_engine_is_freed_when_released(self, penalties):
        """No reference cycle: the batch arrays go as soon as the engine
        and its views do, tracebacks through the views included."""
        generated = ReadPairGenerator(length=40, seed=3).pairs(4)
        pairs = [(p.pattern, p.text) for p in generated]
        gc.disable()
        try:
            engine = BatchWfaEngine(pairs, penalties)
            views = engine.run()
            cigars = [backtrace(view) for view in views]
            ref = weakref.ref(engine)
            del engine, views
            assert ref() is None
        finally:
            gc.enable()
        assert len(cigars) == 4


class TestRowBackedTraceback:
    """A view's ``offset`` reads the batch arrays in place."""

    @staticmethod
    def run_both(penalties):
        generated = ReadPairGenerator(length=60, error_rate=0.06, seed=7).pairs(5)
        pairs = [(p.pattern, p.text) for p in generated]
        views = BatchWfaEngine(pairs, penalties).run()
        for pair, view in zip(generated, views):
            scalar = WfaEngine(pair.pattern, pair.text, penalties)
            scalar.run()
            yield scalar, view

    @METRICS
    def test_wavefronts_read_the_scalar_cells(self, penalties):
        """Every cell of every score ``0..final+1`` and component, on
        every diagonal from two below the lowest ``lo`` to two above the
        highest ``hi``, reads as the scalar engine's, ``OFFSET_NULL``
        included."""
        for scalar, view in self.run_both(penalties):
            log = scalar.counters.wavefront_log
            lo = min(entry[2] for entry in log)
            hi = max(entry[3] for entry in log)
            diagonals = range(lo - 2, hi + 3)
            reached = 0
            for score in range(view.final_score + 2):
                for comp in ("M", "I", "D", "I2", "D2"):
                    have = [view.offset(score, comp, k) for k in diagonals]
                    want = [scalar.offset(score, comp, k) for k in diagonals]
                    assert have == want, (score, comp)
                    assert all(type(v) is int for v in have)
                    reached += sum(v != OFFSET_NULL for v in want)
            assert view.offset(-1, "M", 0) == OFFSET_NULL
            assert reached > view.final_score  # not a table of NULLs

    @METRICS
    def test_cigar_run_lengths_are_exact_ints(self, penalties):
        for scalar, view in self.run_both(penalties):
            cigar = backtrace(view)
            assert str(cigar) == str(backtrace(scalar))
            assert all(type(op.length) is int for op in cigar.ops)


def assert_matches_scalar(pairs, penalties):
    """Scores, CIGARs and every counter equal the scalar engine's."""
    aligner = WavefrontAligner(penalties=penalties)
    vector = align_batch(pairs, penalties, validate=True)
    for (p, t), v in zip(pairs, vector):
        s = aligner.align(p, t)
        assert (s.score, str(s.cigar), s.counters) == (
            v.score,
            str(v.cigar),
            v.counters,
        ), (len(p), len(t))


def flip(seq: str, i: int) -> str:
    """``seq`` with the character at ``i`` changed."""
    i %= len(seq)
    other = "C" if seq[i] == "A" else "A"
    return seq[:i] + other + seq[i + 1 :]


def ragged_batch() -> list[tuple[str, str]]:
    """Pairs of 0-300 bp: empty sequences, a 1 bp pattern against 60 bp of
    text (its end diagonal stays right of ``[lo, hi]`` for many scores),
    identical pairs (done at score 0), edited pairs that finish at
    different scores, and two unrelated pairs that reach any modest cap."""
    rng = random.Random(24)

    def seq(n: int) -> str:
        return "".join(rng.choice("ACGT") for _ in range(n))

    def edit(s: str, edits: int) -> str:
        chars = list(s)
        for _ in range(edits):
            i = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars[i] = "A" if chars[i] != "A" else "C"
            elif op == 1:
                chars.insert(i, rng.choice("ACGT"))
            else:
                del chars[i]
        return "".join(chars)

    same = seq(300)
    pairs = [("", ""), ("", "ACGTA"), ("GATTACA", ""), ("C", seq(60))]
    pairs += [(same, same), (same[:77], same[:77])]
    for n, edits in ((40, 1), (120, 3), (200, 6), (300, 2), (90, 9), (150, 30)):
        p = seq(n)
        pairs.append((p, edit(p, edits)))
    pairs += [(seq(120), seq(110)), (seq(200), seq(200))]
    return pairs


class TestLiveSetAndBounds:
    """The live set, the score-cap floor, the end check on extended live
    rows and the stacked bounds, on one ragged batch per metric."""

    @pytest.mark.parametrize(
        "penalties,cap",
        [
            (EditPenalties(), 60),
            (LinearPenalties(), 140),
            (AffinePenalties(), 130),
            (TwoPieceAffinePenalties(), 100),
        ],
        ids=["edit", "linear", "affine", "affine2p"],
    )
    def test_ragged_batch_under_a_cap_matches_scalar(self, penalties, cap):
        pairs = ragged_batch()
        views = BatchWfaEngine(pairs, penalties, max_score=cap).run()
        finished, failed = set(), 0
        for (p, t), view in zip(pairs, views):
            scalar = WfaEngine(p, t, penalties, max_score=cap)
            try:
                scalar.run()
                error = None
            except AlignmentError as exc:
                error = str(exc)
            assert (view.final_score, view.error, view.counters) == (
                scalar.final_score,
                error,
                scalar.counters,
            ), (len(p), len(t))
            if error is None:
                assert str(backtrace(view)) == str(backtrace(scalar))
                # Every stored cell, exact NULLs included: a candidate
                # pruned on a diagonal with n + k < 0 must read NULL.
                for score, comp, lo, hi in scalar.counters.wavefront_log:
                    cells = range(lo, hi + 1)
                    assert [view.offset(score, comp, k) for k in cells] == [
                        scalar.offset(score, comp, k) for k in cells
                    ], (len(p), len(t), score, comp)
                finished.add(view.final_score)
            else:
                failed += 1
        assert failed >= 2 and len(finished) >= 6 and 0 in finished


class TestWordExtension:
    """Runs that cross word boundaries, outrun a gather window and stop
    exactly at either end, in batches of up to 1,500 bp."""

    LENGTHS = (7, 8, 9, 16, 17, 63, 64, 65, 255, 1000, 1024, 1500)

    @METRICS
    @pytest.mark.parametrize("gather", ["default", "3 words"])
    def test_ends_and_boundaries_match_scalar(self, penalties, gather, monkeypatch):
        if gather != "default":
            # One lane's window then holds three words, so long runs
            # take many gathers.
            monkeypatch.setattr(wfa_batch, "GATHER_WORDS", 3)
        rng = random.Random(11)
        pairs = []
        for n in self.LENGTHS:
            p = "".join(rng.choices("ACGT", k=n))
            pairs += [
                (p, p),
                (flip(p, 0), p),
                (p, flip(p, -1)),
                (p, p + rng.choice("ACGT")),
            ]
        assert_matches_scalar(pairs, penalties)

    @METRICS
    def test_ragged_batch_of_empty_and_long_sequences(self, penalties):
        rng = random.Random(12)
        long = "".join(rng.choices("ACGT", k=1200))
        pairs = [
            ("", ""),
            (long, long),
            ("", "G"),
            (long[:-1], long),
            ("T", ""),
            (flip(long, 600), long),
            ("ACGTACG", "ACGTACGT"),
        ]
        assert_matches_scalar(pairs, penalties)

    @pytest.mark.parametrize(
        "alphabet, per",
        [
            ("àáâãäåæçèéêëìíîïñòóôõöøùúûüýÿ", 8),
            ("漢字仮名交混文書読", 8),
            ("😀🎉🧬🔬🚀🌍🐍🦀", 8),
            ("".join(chr(0x100 + i) for i in range(255)), 4),
        ],
        ids=["latin-1", "cjk", "emoji", "255-symbols"],
    )
    def test_non_ascii_alphabets_match_scalar(self, alphabet, per):
        """Dense codes: 8 bits up to 254 distinct characters, 16 above."""
        rng = random.Random(13)
        every = "".join(rng.sample(alphabet, len(alphabet)))
        pairs = [(every, every), (every, flip(every, len(every) // 2))]
        for n in (5, 9, 40, 300):
            p = "".join(rng.choices(alphabet, k=n))
            t = list(p)
            for _ in range(n // 10 + 1):
                t[rng.randrange(n)] = rng.choice(alphabet)
            pairs += [(p, "".join(t)), (p, p), (p, flip(p, -1))]
        assert BatchWfaEngine(pairs, AffinePenalties())._per == per
        for penalties in (EditPenalties(), AffinePenalties()):
            assert_matches_scalar(pairs, penalties)

    def test_32_bit_codes_match_scalar(self):
        """More than 65,534 distinct characters take 32-bit codes."""
        symbols = [chr(0x100 + i) for i in range(66_000)]
        random.Random(14).shuffle(symbols)
        p = "".join(symbols)
        pairs = [(p, p), (p, p[:-1] + "A"), (p[:40], p[1:41])]
        assert BatchWfaEngine(pairs, EditPenalties())._per == 2
        assert_matches_scalar(pairs, EditPenalties())


class TestLowComplexityMemory:
    #: bound on the engine's tracemalloc peak on the poly-A batch; it reads
    #: about 2.8 MB, and about 7 MB if one gather may span every lane's row
    PEAK_BYTES = 4 << 20

    def test_poly_a_batch_is_exact_and_bounded(self):
        """52 poly-A pairs of 1000 bp, 20 random ``C`` substitutions per
        text: every diagonal runs far, so every lane reads on."""
        rng = random.Random(0)
        pairs = []
        for _ in range(52):
            text = ["A"] * 1000
            for pos in rng.sample(range(1000), 20):
                text[pos] = "C"
            pairs.append(("A" * 1000, "".join(text)))
        penalties = AffinePenalties()
        tracemalloc.start()
        try:
            views = BatchWfaEngine(pairs, penalties).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES
        for (p, t), view in zip(pairs, views):
            scalar = WfaEngine(p, t, penalties)
            scalar.run()
            assert (view.final_score, view.counters) == (
                scalar.final_score,
                scalar.counters,
            )
            assert str(backtrace(view)) == str(backtrace(scalar))


class TestEditPlaneMemory:
    #: bound on the engine's tracemalloc peak; it reads about 2.0 MB, and
    #: about 4.4 MB if each score kept its whole three-plane buffer
    #: alive instead of the maximum alone
    PEAK_BYTES = 3 << 20

    def test_edit_run_keeps_only_m(self):
        """32 pairs of 1000 bp at E=10% under edit distance."""
        pairs = [
            (p.pattern, p.text)
            for p in ReadPairGenerator(length=1000, error_rate=0.10, seed=3).pairs(32)
        ]
        tracemalloc.start()
        try:
            views = BatchWfaEngine(pairs, EditPenalties()).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES
        assert all(view.error is None for view in views)


def run_system(engine: str):
    cfg = PimSystemConfig(
        num_dpus=4, num_ranks=1, tasklets=2, num_simulated_dpus=4
    )
    kc = KernelConfig(
        penalties=EditPenalties(), max_read_len=64, max_edits=4, engine=engine
    )
    system = PimSystem(cfg, kc)
    pairs = ReadPairGenerator(length=48, error_rate=0.03, seed=21).pairs(32)
    return system.align(pairs, collect_results=True)


class TestKernelEngineKnob:
    def test_pim_system_results_identical(self):
        scalar = run_system("scalar")
        vector = run_system("vector")
        assert [(i, s, str(c)) for i, s, c in scalar.results] == [
            (i, s, str(c)) for i, s, c in vector.results
        ]

    def test_unknown_engine_rejected(self):
        with pytest.raises(KernelError, match="engine must be"):
            KernelConfig(penalties=EditPenalties(), engine="simd")


class TestServeByteIdentity:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_report_recovery_and_metrics_identical(self, workers):
        def replay(engine: str):
            service = build_service(
                num_dpus=2,
                tasklets=2,
                workers=workers,
                max_read_len=16,
                max_edits=3,
                config=ServiceConfig(
                    max_batch_pairs=16,
                    max_wait_s=1e-3,
                    max_queue_pairs=4096,
                    cache_pairs=8,
                ),
                fault_plan=FaultPlan(
                    deaths=(DpuDeath(dpu_id=1, attempts=(0,)),)
                ),
                engine=engine,
            )
            report = run_load(
                service,
                LoadgenConfig(requests=40, rate=10000.0, length=10, seed=5),
            )
            return (
                report.to_jsonl(),
                json.dumps(report.recovery, sort_keys=True),
                json.dumps(service.metrics_snapshot(), sort_keys=True),
            )

        scalar = replay("scalar")
        vector = replay("vector")
        assert scalar == vector
        # the injected DPU death must actually have exercised recovery
        assert json.loads(scalar[1])
