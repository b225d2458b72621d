"""The kernels' record path, pinned against records copied through WRAM.

Each tasklet fetches its input record with ``DmaEngine.read_large`` and
writes its result back with ``DmaEngine.write_large``.  Those transfers
hand the bytes straight between MRAM and the tasklet, the WFA kernel
checks a fetched record as bytes against the vector engine's view, and a
global alignment's region starts are written as ``(0, 0)``.  The
references here move every record the way a DPU program does: single
``read``/``write`` transfers through the tasklet's WRAM buffers, the
record read back out of WRAM and decoded with ``unpack_pair``, compared
with the view as strings, and the region starts summed from the CIGAR.
Both must leave identical tasklet stats (float DMA cycles compared
exactly), DMA counters, result-region bytes, trace events and fault-hook
ticks, also when the input records rot.
"""

import struct

import pytest

from repro.core.backtrace import backtrace
from repro.core.cigar import Cigar
from repro.core.penalties import AffinePenalties
from repro.core.span import AlignmentSpan
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import (
    AlignmentError,
    AllocationError,
    CorruptResultError,
    KernelError,
    LayoutError,
    TaskletStallError,
)
from repro.pim import kernel as kernel_module
from repro.pim import parallel as parallel_module
from repro.pim.config import DpuConfig, HostTransferConfig
from repro.pim.dma import DmaEngine, dma_pieces
from repro.pim.dpu import Dpu
from repro.pim.faults import FaultInjector, FaultPlan, TaskletStall
from repro.pim.kernel import KernelConfig, WfaDpuKernel
from repro.pim.kernel_banded import BandedDpuKernel, BandedKernelConfig
from repro.pim.layout import MramLayout
from repro.pim.trace import KernelTrace, TraceEvent
from repro.pim.transfer import HostTransferEngine

PEN = AffinePenalties(4, 6, 2)
TASKLETS = 3

#: (read length, kernel edit bound, pairs): one-piece input records at
#: 100 bp, two-piece ones (2048 + 8 bytes) at 1000 bp
SHAPES = {
    "100bp": (100, 4, 9),
    "1000bp": (1000, 20, 4),
}


class WramCopyDma(DmaEngine):
    """Record transfers as single transfers through the WRAM buffer."""

    def read_large(self, mram_addr, wram_addr, size):
        cycles = 0.0
        done = 0
        for piece in dma_pieces(size):
            cycles += self.read(mram_addr + done, wram_addr + done, piece)
            done += piece
        return cycles, self.wram.read(wram_addr, size)

    def write_large(self, wram_addr, mram_addr, data):
        self.wram.write(wram_addr, data)
        cycles = 0.0
        done = 0
        for piece in dma_pieces(len(data)):
            cycles += self.write(wram_addr + done, mram_addr + done, piece)
            done += piece
        return cycles


def wram_copy_dpu(config=None, dpu_id=0):
    dpu = Dpu(config or DpuConfig(), dpu_id=dpu_id)
    dpu.dma = WramCopyDma(dpu.mram, dpu.wram, dpu.config.timing)
    return dpu


class DecodingKernel(WfaDpuKernel):
    """The WFA kernel decoding every record and summing every CIGAR."""

    def _align_one(
        self, dpu, layout, ctx, index, plan, trace=None, views=None, results=None
    ):
        cfg = self.config
        stats = ctx.stats
        policy = plan.charges.policy
        size, pieces = plan.input_record
        cycles, record = dpu.dma.read_large(
            layout.input_addr(index), ctx.input_buffer, size
        )
        stats.add_dma(cycles, size, pieces)
        event = dict(tasklet_id=ctx.tasklet_id, pair_index=index, dpu_id=dpu.dpu_id)
        if trace is not None:
            trace.record(
                TraceEvent(phase="fetch", cycles=cycles, dma_bytes=size, **event)
            )
        pair = layout.unpack_pair(record)
        view = views.pop(index, None) if views is not None else None
        if view is not None and (view.pattern, view.text) != (pair.pattern, pair.text):
            view = None
        if view is not None:
            if view.error is not None:
                raise KernelError(
                    f"pair {index} exceeded the kernel score bound "
                    f"{cfg.max_score}: {view.error}"
                )
            engine, score = view, view.final_score
        else:
            engine = kernel_module.WfaEngine(
                pair.pattern,
                pair.text,
                cfg.penalties,
                memory_mode="full" if cfg.traceback else "low",
                heuristic=cfg.heuristic(),
                max_score=cfg.max_score,
                span=cfg.span,
            )
            try:
                score = engine.run()
            except AlignmentError as exc:
                raise KernelError(
                    f"pair {index} exceeded the kernel score bound "
                    f"{cfg.max_score}: {exc}"
                ) from exc
        cigar = backtrace(engine) if cfg.traceback else None
        counters = engine.counters
        instructions = self.cost_model.instructions(counters, pairs=1)
        stats.instructions += instructions
        stats.cells_computed += counters.cells_computed
        stats.extend_steps += counters.extend_steps
        if trace is not None:
            trace.record(
                TraceEvent(
                    phase="align",
                    cycles=instructions,
                    instructions=instructions,
                    detail=f"score={score} cells={counters.cells_computed}",
                    **event,
                )
            )
        mark = ctx.allocator.wram_mark()
        before = (stats.dma_cycles, stats.dma_bytes)
        try:
            self._charge_metadata(dpu, ctx, counters, policy, plan.charges)
        except AllocationError as exc:
            raise KernelError(
                f"metadata arena overflow on pair {index} (policy={policy!r}): {exc}"
            ) from exc
        finally:
            ctx.allocator.reset_metadata()
            ctx.allocator.wram_release(mark)
        if trace is not None:
            trace.record(
                TraceEvent(
                    phase="metadata",
                    cycles=stats.dma_cycles - before[0],
                    dma_bytes=stats.dma_bytes - before[1],
                    detail=policy,
                    **event,
                )
            )
        p_end = engine.end_offset - engine.end_k
        t_end = engine.end_offset
        p_start = p_end - cigar.pattern_length() if cigar is not None else 0
        t_start = t_end - cigar.text_length() if cigar is not None else 0
        out = layout.pack_result(score, cigar, p_start, t_start)
        size, pieces = plan.result_record
        cycles = dpu.dma.write_large(ctx.result_buffer, layout.result_addr(index), out)
        stats.add_dma(cycles, size, pieces)
        if trace is not None:
            trace.record(
                TraceEvent(phase="writeback", cycles=cycles, dma_bytes=size, **event)
            )
        stats.pairs_done += 1
        if results is not None:
            lengths = (len(pair.pattern), len(pair.text))
            results.append((index, (score, cigar, *lengths, p_start, t_start)))


def deal(count, tasklets=TASKLETS):
    """Pairs dealt round-robin over the tasklets, as the host does."""
    return [list(range(t, count, tasklets)) for t in range(tasklets)]


def shape(name, engine="vector", span=None):
    length, edits, count = SHAPES[name]
    kc = KernelConfig(
        penalties=PEN,
        max_read_len=length,
        max_edits=edits,
        engine=engine,
        span=span if span is not None else AlignmentSpan(),
    )
    pairs = ReadPairGenerator(length=length, error_rate=0.02, seed=length).pairs(count)
    layout = MramLayout.plan(
        num_pairs=count,
        max_pattern_len=kc.max_seq_len,
        max_text_len=kc.max_seq_len,
        max_cigar_ops=kc.max_cigar_ops,
        tasklets=TASKLETS,
        metadata_bytes_per_tasklet=kc.metadata_peak_bytes(),
    )
    return kc, pairs, layout


class Launch:
    """One kernel launch on a freshly pushed DPU, with everything it left."""

    def __init__(
        self, kernel, dpu, layout, pairs, rot=None, views=True, tasklets=TASKLETS
    ):
        HostTransferEngine(HostTransferConfig()).push_batch(dpu, layout, pairs)
        if rot is not None:
            rot(dpu, layout)
        self.ticks = []
        dpu.dma.fault_hook = lambda size: self.ticks.append((size, dpu.dma.transfers))
        self.trace = KernelTrace()
        assignments = deal(len(pairs), tasklets)
        wfa = isinstance(kernel, WfaDpuKernel)
        batch = kernel.batch_views(pairs) if views and wfa else None
        self.error = None
        self.stats, self.results = None, None
        try:
            if wfa:
                self.stats, collected = kernel.run(
                    dpu,
                    layout,
                    assignments,
                    collect_results=True,
                    trace=self.trace,
                    views=dict(enumerate(batch)) if batch is not None else None,
                )
                self.results = [(i, self._result(r)) for i, r in collected]
            else:
                self.stats = kernel.run(dpu, layout, assignments)
        except Exception as exc:  # compared, type and message, across paths
            self.error = exc
        self.transfers = dpu.dma.transfers
        self.bytes_moved = dpu.dma.bytes_moved
        self.results_region = dpu.mram.read(
            layout.output_base, layout.num_pairs * layout.result_record_size
        )

    @staticmethod
    def _result(r):
        if isinstance(r, tuple):  # DecodingKernel's own tuple
            return r
        return (
            r.score, r.cigar, r.pattern_len, r.text_len, r.pattern_start, r.text_start
        )

    def same_as(self, other):
        assert type(self.error) is type(other.error)
        assert str(self.error) == str(other.error)
        assert self.stats == other.stats
        assert self.transfers == other.transfers
        assert self.bytes_moved == other.bytes_moved
        assert self.results_region == other.results_region
        assert self.trace.events == other.trace.events
        assert self.ticks == other.ticks
        assert self.results == other.results


def both(kc, pairs, layout, rot=None, views=True):
    new = Launch(WfaDpuKernel(kc), Dpu(DpuConfig()), layout, pairs, rot, views)
    old = Launch(DecodingKernel(kc), wram_copy_dpu(), layout, pairs, rot, views)
    new.same_as(old)
    return new


@pytest.fixture
def scalar_runs(monkeypatch):
    """Pairs the kernel re-ran on the scalar engine, by pattern."""
    seen = []

    class Counted(kernel_module.WfaEngine):
        def __init__(self, pattern, *args, **kwargs):
            seen.append(pattern)
            super().__init__(pattern, *args, **kwargs)

    monkeypatch.setattr(kernel_module, "WfaEngine", Counted)
    return seen


def set_bytes(index, offset, data):
    """A rot that overwrites bytes of input record ``index`` in MRAM."""

    def rot(dpu, layout):
        dpu.mram.write(layout.input_addr(index) + offset, data)

    return rot


@pytest.mark.parametrize("name", sorted(SHAPES))
class TestSameAsWramCopies:
    def test_vector_views(self, name, scalar_runs):
        kc, pairs, layout = shape(name)
        if name == "1000bp":
            assert len(dma_pieces(layout.input_record_size)) == 2
        launch = both(kc, pairs, layout)
        assert launch.error is None and scalar_runs == []
        assert all((p, t) == (0, 0) for _i, (*_, p, t) in launch.results)

    def test_scalar_engine(self, name):
        kc, pairs, layout = shape(name, engine="scalar")
        both(kc, pairs, layout)

    def test_views_from_mram(self, name):
        kc, pairs, layout = shape(name)
        both(kc, pairs, layout, views=False)

    def test_rot_in_padding_keeps_the_view(self, name, scalar_runs):
        kc, pairs, layout = shape(name)
        plen = len(pairs[1].pattern)
        assert plen < layout.pattern_slot
        launch = both(kc, pairs, layout, rot=set_bytes(1, 8 + plen, b"\xff"))
        assert launch.error is None and scalar_runs == []

    def test_rot_in_a_sequence_reruns_the_scalar_engine(self, name, scalar_runs):
        kc, pairs, layout = shape(name)
        base = pairs[2].pattern[5]
        other = "A" if base != "A" else "C"
        launch = both(kc, pairs, layout, rot=set_bytes(2, 8 + 5, other.encode()))
        assert launch.error is None
        rotted = pairs[2].pattern[:5] + other + pairs[2].pattern[6:]
        # once on each path
        assert scalar_runs == [rotted, rotted]

    def test_length_word_past_its_slot(self, name):
        kc, pairs, layout = shape(name)
        word = struct.pack("<I", layout.pattern_slot + 1)
        launch = both(kc, pairs, layout, rot=set_bytes(1, 0, word))
        assert isinstance(launch.error, LayoutError)
        assert str(launch.error) == "input record lengths exceed their slots"

    def test_text_length_word_past_its_slot(self, name):
        kc, pairs, layout = shape(name)
        word = struct.pack("<I", layout.text_slot + 8)
        launch = both(kc, pairs, layout, rot=set_bytes(0, 4, word))
        assert isinstance(launch.error, LayoutError)

    @pytest.mark.parametrize("rotted", [False, True])
    def test_banded_kernel(self, name, rotted):
        length, _edits, count = SHAPES[name]
        config = BandedKernelConfig(penalties=PEN, max_read_len=length + 8, band=12)
        pairs = ReadPairGenerator(length=length, error_rate=0.02, seed=3).pairs(count)
        layout = MramLayout.plan(
            num_pairs=count,
            max_pattern_len=config.max_read_len,
            max_text_len=config.max_read_len,
            max_cigar_ops=2,
            tasklets=TASKLETS,
        )
        rot = set_bytes(count - 1, 4, struct.pack("<I", layout.text_slot + 8))
        rot = rot if rotted else None
        kernel = BandedDpuKernel(config)
        tasklets = min(TASKLETS, kernel.max_supported_tasklets(DpuConfig()))
        new = Launch(kernel, Dpu(DpuConfig()), layout, pairs, rot, tasklets=tasklets)
        old = Launch(kernel, wram_copy_dpu(), layout, pairs, rot, tasklets=tasklets)
        new.same_as(old)
        if rotted:
            assert isinstance(new.error, LayoutError)
        else:
            assert new.error is None
            fetch = len(dma_pieces(layout.input_record_size))
            assert len(new.ticks) == count * (fetch + 1)


def test_ends_free_span_sums_its_cigar():
    span = AlignmentSpan(text_begin_free=3, text_end_free=3)
    kc, pairs, layout = shape("100bp", engine="vector", span=span)
    pairs = [ReadPair(p.pattern[2:-1], p.text) for p in pairs]
    launch = both(kc, pairs, layout)
    assert any(p or t for _i, (*_, p, t) in launch.results)


class TestStallInsideATwoPieceFetch:
    def test_message_and_state_match(self):
        kc, pairs, layout = shape("1000bp")
        clean = Launch(DecodingKernel(kc), wram_copy_dpu(), layout, pairs)
        sizes = [size for size, _ in clean.ticks]
        # the second piece of the second pair's fetch
        second = [i for i in range(1, len(sizes)) if sizes[i - 1 : i + 1] == [2048, 8]]
        budget = second[1]

        def run(kernel, dpu):
            HostTransferEngine(HostTransferConfig()).push_batch(dpu, layout, pairs)
            stall = TaskletStall(dpu_id=0, dma_budget=budget)
            FaultPlan(stalls=(stall,)).injector(0).attach_dma(dpu)
            assignments = deal(len(pairs))
            views = dict(enumerate(kernel.batch_views(pairs)))
            with pytest.raises(TaskletStallError) as err:
                kernel.run(dpu, layout, assignments, views=views)
            region = dpu.mram.read(
                layout.output_base, layout.num_pairs * layout.result_record_size
            )
            return str(err.value), dpu.dma.transfers, dpu.dma.bytes_moved, region

        new = run(WfaDpuKernel(kc), Dpu(DpuConfig()))
        old = run(DecodingKernel(kc), wram_copy_dpu())
        assert new == old
        assert new[0] == (
            f"DPU 0: tasklet stalled: DMA transfer {budget + 1} exceeds budget "
            f"{budget} "
            "(attempt 0)"
        )
        assert new[1] == budget  # the first piece moved, the second never did


class TestCorruptInputUnderAFaultPlan:
    def test_length_rot_is_a_corrupt_result(self, monkeypatch):
        kc, pairs, layout = shape("100bp")

        def after_push(self, dpu, layout):
            word = struct.pack("<I", layout.pattern_slot + 1)
            dpu.mram.write(layout.input_addr(1), word)

        monkeypatch.setattr(FaultInjector, "after_push", after_push)
        job = parallel_module.DpuJob(
            dpu_id=0,
            layout=layout,
            dpu_config=DpuConfig(),
            transfer_config=HostTransferConfig(),
            kernel_config=kc,
            metadata_policy="mram",
            tasklets=TASKLETS,
            pairs=tuple(pairs),
            # a stall budget the launch never reaches puts an injector on the DPU
            fault_plan=FaultPlan(stalls=(TaskletStall(dpu_id=0, dma_budget=10**6),)),
        )

        def message():
            views = dict(enumerate(WfaDpuKernel(kc).batch_views(pairs)))
            with pytest.raises(CorruptResultError) as err:
                parallel_module.run_dpu_job(job, list(pairs), views)
            return str(err.value), len(views)

        new = message()
        monkeypatch.setattr(parallel_module, "WfaDpuKernel", DecodingKernel)
        monkeypatch.setattr(parallel_module, "Dpu", wram_copy_dpu)
        assert new == message()
        assert new[0] == (
            "DPU 0: kernel rejected its MRAM inputs: "
            "input record lengths exceed their slots"
        )


class TestRecordCodec:
    """The cached record structs pack what the plain formulation does."""

    @pytest.mark.parametrize("slots", [(8, 8), (104, 104), (1024, 1024), (16, 40)])
    def test_pack_pair(self, slots):
        layout = MramLayout(4, slots[0], slots[1], 3, 0, 1)
        for p, t in [("", ""), ("ACGT", "AC"), ("A" * slots[0], "T" * slots[1])]:
            expected = (
                len(p).to_bytes(4, "little")
                + len(t).to_bytes(4, "little")
                + p.encode().ljust(slots[0], b"\x00")
                + t.encode().ljust(slots[1], b"\x00")
            )
            record = layout.pack_pair(ReadPair(p, t))
            assert record == expected
            assert layout.holds(record, p, t)
            assert layout.unpack_pair(record) == ReadPair(p, t)

    def test_pack_result(self):
        layout = MramLayout(4, 8, 8, 5, 0, 1)
        for score, cigar, starts in [
            (0, Cigar.from_string("8M"), (0, 0)),
            (-1, Cigar.from_string("3M1X2I1D4M"), (2, 7)),
            (12, None, (0, 0)),
            (5, Cigar(), (1, 1)),
        ]:
            ops = cigar.ops if cigar is not None else ()
            expected = struct.pack(
                f"<iIII{len(ops)}I{layout.result_record_size - 16 - 4 * len(ops)}x",
                score,
                len(ops) | (0x8000_0000 if cigar is not None else 0),
                *starts,
                *[(op.length << 8) | ord(op.op) for op in ops],
            )
            assert layout.pack_result(score, cigar, *starts) == expected


class TestHolds:
    """``holds`` is true exactly when ``unpack_pair`` gives the pair."""

    LAYOUT = MramLayout(1, 8, 16, 3, 0, 1)

    def record(self):
        return bytearray(self.LAYOUT.pack_pair(ReadPair("ACG", "TTGCA")))

    def test_padding_is_not_compared(self):
        record = self.record()
        record[8 + 5] = 0xFF
        record[8 + 8 + 10] = 0x80
        assert self.LAYOUT.holds(bytes(record), "ACG", "TTGCA")

    @pytest.mark.parametrize("at", [0, 4, 3, 7, 8, 10, 16, 20])
    def test_any_read_byte_differs(self, at):
        record = self.record()
        record[at] ^= 0x04
        assert not self.LAYOUT.holds(bytes(record), "ACG", "TTGCA")

    def test_pairs_that_no_record_can_decode_to(self):
        record = bytes(self.record())
        assert not self.LAYOUT.holds(record, "ACGTACGTA", "TTGCA")  # past the slot
        assert not self.LAYOUT.holds(record, "ACé", "TTGCA")  # not ASCII
        assert not self.LAYOUT.holds(record[:-8], "ACG", "TTGCA")  # short record
        assert not self.LAYOUT.holds(record, "ACG", "TTGC")
