"""The kernel's closed-form metadata charge vs the per-transfer replay.

The reference below is the kernel's former metadata replay: every
wavefront allocated with one ``alloc`` call and every staging transfer
issued through ``DmaEngine.read``/``write``, scratch bytes and all.  The
closed-form charge (``BumpAllocator.reserve`` + a ``metadata_plan``
memoized per charge table, applied by ``DmaEngine.charge_staging``)
must match it counter for counter and float for float, and fail the
same way on the same pair: arena overflow, the stall watchdog (one hook
tick per transfer, in order) and memory bounds.  Every comparison runs
the closed form twice, cold (every memo cleared) and warm (the launch
plan and every charge a memo hit).
"""

from __future__ import annotations

import dataclasses
import functools
import random
from itertools import accumulate

import pytest

from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    TwoPieceAffinePenalties,
)
from repro.core.wfa import WfaEngine
from repro.data.generator import ReadPair, ReadPairGenerator
from repro.errors import (
    AlignmentFault,
    AllocationError,
    KernelError,
    MemoryFault,
    PimError,
    TaskletStallError,
)
from repro.pim import kernel as kernel_module
from repro.pim.allocator import BumpAllocator, TaskletAllocator
from repro.pim.config import DpuConfig, DpuTimingConfig, HostTransferConfig
from repro.pim.dma import DmaEngine, aligned_size, plan_staging
from repro.pim.dpu import Dpu
from repro.pim.faults import FaultPlan, TaskletStall
from repro.pim.kernel import KernelConfig, WfaDpuKernel
from repro.pim.layout import MramLayout
from repro.pim.memory import Mram, Wram
from repro.pim.trace import KernelTrace
from repro.pim.transfer import HostTransferEngine

PENALTIES = {
    "edit": EditPenalties(),
    "linear": LinearPenalties(),
    "affine": AffinePenalties(4, 6, 2),
    "affine2p": TwoPieceAffinePenalties(),
}


# -- the reference: the former transfer-by-transfer replay ---------------------


def reference_stage(dma, stage, mram_addr, nbytes, chunk, write):
    """Move one block between the staging buffer and MRAM, one DMA at a time.

    Whole blocks (``chunk=None``) go as ``read_large``/``write_large``
    split them: up to 2048 B per transfer, the WRAM address advancing
    with the MRAM one; chunks reuse one ``chunk``-byte buffer.
    """
    step = 2048 if chunk is None else chunk
    cycles = 0.0
    done = 0
    while done < nbytes:
        piece = min(step, nbytes - done)
        wram = stage + done if chunk is None else stage
        if write:
            cycles += dma.write(wram, mram_addr + done, piece)
        else:
            cycles += dma.read(mram_addr + done, wram, piece)
        done += piece
    return cycles


class TracksPair:
    """Remembers the pair being aligned, to name the pair a failure hits."""

    pair = None

    def _align_one(self, dpu, layout, ctx, index, *rest):
        self.pair = index
        return super()._align_one(dpu, layout, ctx, index, *rest)


class ClosedFormKernel(TracksPair, WfaDpuKernel):
    pass


class ReferenceKernel(TracksPair, WfaDpuKernel):
    """The kernel with its former per-transfer metadata replay."""

    def _charge_metadata(self, dpu, ctx, counters, metadata_policy, _charges):
        log = counters.wavefront_log
        if not log:
            return
        if metadata_policy == "wram":
            for _score, _comp, lo, hi in log:
                ctx.allocator.alloc_metadata(4 * (hi - lo + 1))
            return
        computed = {score for score, _c, _l, _h in log}
        pen = self.config.penalties
        if isinstance(pen, TwoPieceAffinePenalties):

            def reads_of(s, comp):
                if comp == "M":
                    return (
                        int(s + pen.mismatch in computed)
                        + int(s + pen.gap_open1 + pen.gap_extend1 in computed)
                        + int(s + pen.gap_open2 + pen.gap_extend2 in computed)
                    )
                if comp in ("I", "D"):
                    return int(s + pen.gap_extend1 in computed)
                return int(s + pen.gap_extend2 in computed)

        elif isinstance(pen, AffinePenalties):

            def reads_of(s, comp):
                if comp == "M":
                    return int(s + pen.mismatch in computed) + int(
                        s + pen.gap_open + pen.gap_extend in computed
                    )
                return int(s + pen.gap_extend in computed)

        elif isinstance(pen, LinearPenalties):

            def reads_of(s, comp):
                return int(s + pen.mismatch in computed) + int(
                    s + pen.indel in computed
                )

        else:

            def reads_of(s, comp):
                return int(s + 1 in computed)

        stage = ctx.staging_buffers[0] if ctx.staging_buffers else ctx.input_buffer
        chunk = self.config.staging_chunk_bytes
        for score, comp, lo, hi in log:
            nbytes = aligned_size(4 * (hi - lo + 1))
            alloc = ctx.allocator.alloc_metadata(nbytes)
            uses = 1 + reads_of(score, comp) + int(self.config.traceback)
            for use in range(uses):
                before = dpu.dma.transfers
                cycles = reference_stage(
                    dpu.dma, stage, alloc.addr, nbytes, chunk, write=use == 0
                )
                ctx.stats.add_dma(cycles, nbytes, dpu.dma.transfers - before)


def reference_dma_stage(dma, mram_addr, wram_addr, sizes, uses, chunk):
    """A staging plan's charge spelled out transfer by transfer; returns
    the cycles of every move, in issue order."""
    per_move = []
    for nbytes, count in zip(sizes, uses):
        for use in range(count):
            per_move.append(
                reference_stage(dma, wram_addr, mram_addr, nbytes, chunk, write=use == 0)
            )
        mram_addr += nbytes
    return per_move


def two_step_stage(dma, mram_addr, wram_addr, sizes, uses, chunk):
    """The closed form: plan the blocks, then charge the plan."""
    plan = plan_staging(sizes, uses, chunk, dma.timing)
    dma.charge_staging(plan, mram_addr, wram_addr)
    return list(plan.move_cycles)


# -- running both kernels ------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """Everything one kernel launch leaves behind that must agree."""

    error: tuple | None
    stats: list
    results: list
    dma: tuple
    allocators: list
    events: list
    output: bytes


def launch(
    kernel_cls,
    kc,
    pairs,
    policy,
    monkeypatch,
    tasklets=2,
    metadata_bytes=None,
    dma_budget=None,
    mram_bytes=DpuConfig().mram_bytes,
    wram_bytes=DpuConfig().wram_bytes,
    timing=DpuTimingConfig(),
    layout_tasklets=None,
):
    layout = plan_layout(kc, pairs, policy, layout_tasklets or tasklets, metadata_bytes)
    dpu = Dpu(DpuConfig(mram_bytes=mram_bytes, wram_bytes=wram_bytes, timing=timing))
    HostTransferEngine(HostTransferConfig()).push_batch(dpu, layout, pairs)
    if dma_budget is not None:
        plan = FaultPlan(stalls=(TaskletStall(dpu_id=0, dma_budget=dma_budget),))
        plan.injector(0).attach_dma(dpu)
    allocators = []

    class Recording(TaskletAllocator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            allocators.append(self)

    monkeypatch.setattr(kernel_module, "TaskletAllocator", Recording)
    kernel = kernel_cls(kc)
    trace = KernelTrace()
    assignments = [list(range(t, len(pairs), tasklets)) for t in range(tasklets)]
    stats, results, error = [], [], None
    try:
        stats, results = kernel.run(
            dpu, layout, assignments, policy, collect_results=True, trace=trace
        )
    except PimError as exc:  # compared against the reference's
        error = (type(exc), str(exc), kernel.pair)
    return Outcome(
        error=error,
        stats=stats,
        results=[
            (i, r.score, str(r.cigar), r.pattern_start, r.text_start)
            for i, r in results
        ],
        dma=(dpu.dma.transfers, dpu.dma.bytes_moved),
        allocators=[
            (arena.base, arena.capacity, arena.high_water, arena.allocations)
            for a in allocators
            for arena in (a.wram, a.mram)
        ],
        events=trace.events,
        output=dpu.mram.read(
            layout.output_base, len(pairs) * layout.result_record_size
        ),
    )


def plan_layout(kc, pairs, policy, tasklets=2, metadata_bytes=None):
    if metadata_bytes is None:
        metadata_bytes = kc.metadata_peak_bytes() if policy == "mram" else 0
    return MramLayout.plan(
        num_pairs=len(pairs),
        max_pattern_len=kc.max_seq_len,
        max_text_len=kc.max_seq_len,
        max_cigar_ops=kc.max_cigar_ops,
        tasklets=tasklets,
        metadata_bytes_per_tasklet=metadata_bytes,
    )


#: the kernel's memos: launch plans, charge tables, metadata charges
MEMOS = ("launch_plan", "charge_table", "metadata_plan")


def clear_memos():
    for name in MEMOS:
        getattr(kernel_module, name).cache_clear()


def memo_info():
    return {name: getattr(kernel_module, name).cache_info() for name in MEMOS}


def both(kc, pairs, policy, monkeypatch, **kwargs):
    """The reference launch, then the closed form twice: cold (every memo
    cleared, the launch and every charge planned afresh) and warm (the
    same launch again: its plan and every charge the cold run planned
    are memo hits, and nothing is planned)."""
    ref = launch(ReferenceKernel, kc, pairs, policy, monkeypatch, **kwargs)
    clear_memos()
    cold = launch(ClosedFormKernel, kc, pairs, policy, monkeypatch, **kwargs)
    before = memo_info()
    warm = launch(ClosedFormKernel, kc, pairs, policy, monkeypatch, **kwargs)
    if cold.error is None:
        after = memo_info()
        assert [after[name].misses for name in MEMOS] == [
            before[name].misses for name in MEMOS
        ]
        assert after["launch_plan"].hits == before["launch_plan"].hits + 1
        assert after["metadata_plan"].hits > before["metadata_plan"].hits
    return ref, cold, warm


def workload(n=6, length=24, error_rate=0.1, seed=3):
    return ReadPairGenerator(length=length, error_rate=error_rate, seed=seed).pairs(n)


# -- the differential grid -------------------------------------------------------


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("penalties", sorted(PENALTIES))
@pytest.mark.parametrize("traceback", [True, False])
@pytest.mark.parametrize("chunk", [None, 8, 64, 256])
@pytest.mark.parametrize("policy", ["mram", "wram"])
def test_closed_form_matches_per_transfer_replay(
    policy, chunk, traceback, penalties, engine, monkeypatch
):
    kc = KernelConfig(
        penalties=PENALTIES[penalties],
        max_read_len=24,
        max_edits=4,
        traceback=traceback,
        staging_chunk_bytes=chunk,
        engine=engine,
    )
    ref, cold, warm = both(kc, workload(), policy, monkeypatch)
    assert ref.error is None
    for new in (cold, warm):
        assert new == ref
        assert sum(s.dma_transfers for s in new.stats) == new.dma[0]


def test_multi_piece_whole_wavefronts(monkeypatch):
    """Wavefronts over 2048 B split into several transfers per use."""
    rng = random.Random(11)
    text = "".join(rng.choice("ACGT") for _ in range(300))
    pattern = text[:20] + text[280:]
    engine = WfaEngine(pattern, text, EditPenalties(), max_score=300)
    engine.run()
    widest = max(hi - lo + 1 for _s, _c, lo, hi in engine.counters.wavefront_log)
    assert 4 * widest > 2048
    kc = KernelConfig(penalties=EditPenalties(), max_read_len=300, max_edits=280)
    pairs = [ReadPair(pattern=pattern, text=text)]
    ref, cold, warm = both(kc, pairs, "mram", monkeypatch, tasklets=1)
    assert ref.error is None
    for new in (cold, warm):
        assert new == ref
        assert sum(s.dma_transfers for s in new.stats) == new.dma[0]


# -- the plan memo ------------------------------------------------------------------


def test_plans_are_never_shared_across_configurations(monkeypatch):
    """Kernels that differ only in the traceback flag, the penalties, the
    staging chunk (set, or picked because WRAM is short) or the DPU
    timing each get their own plans, even for equal wavefront logs: edit
    and gap-linear (1, 1) penalties log the same wavefronts but read
    each one back a different number of times."""
    base = KernelConfig(penalties=EditPenalties(), max_read_len=24, max_edits=4)
    slow = DpuTimingConfig(dma_setup_cycles=2 * DpuTimingConfig().dma_setup_cycles)
    # 200 B slices hold the fixed buffers but not three whole wavefronts
    short = {"wram_bytes": 400}
    assert WfaDpuKernel(base).plan_wram(DpuConfig(**short), 2, "mram").staging_chunk
    variants = [
        (base, {}),
        (dataclasses.replace(base, traceback=False), {}),
        (dataclasses.replace(base, penalties=LinearPenalties(1, 1)), {}),
        (dataclasses.replace(base, staging_chunk_bytes=16), {}),
        (base, short),
        (base, {"timing": slow}),
    ]
    pairs = workload()
    logs = set()
    for pair in pairs:
        engine = WfaEngine(pair.pattern, pair.text, base.penalties)
        engine.run()
        logs.add(tuple(engine.counters.wavefront_log))
    memo = kernel_module.metadata_plan
    clear_memos()
    for kc, dpu in variants:
        launch(ClosedFormKernel, kc, pairs, "mram", monkeypatch, **dpu)
    assert memo.cache_info().currsize == len(variants) * len(logs)
    assert kernel_module.charge_table.cache_info().currsize == len(variants)
    for kc, dpu in variants:  # every variant's plans are in the memo
        ref = launch(ReferenceKernel, kc, pairs, "mram", monkeypatch, **dpu)
        warm = launch(ClosedFormKernel, kc, pairs, "mram", monkeypatch, **dpu)
        assert ref.error is None and warm == ref
    assert memo.cache_info().currsize == len(variants) * len(logs)


def launch_variants():
    """One base launch, then launches that each change one input of its
    plan: the DPU's WRAM size, the tasklet count (with the layout's, and
    alone), the policy, the staging chunk, and the layout's pair count
    and metadata bytes.  Each changes some allocator's arena base or
    capacity, the stats or the output."""
    base = KernelConfig(penalties=AffinePenalties(4, 6, 2), max_read_len=24, max_edits=4)
    pairs = workload()
    return [
        (base, pairs, "mram", {}),
        (base, pairs, "mram", {"wram_bytes": 48 * 1024}),
        (base, pairs, "mram", {"tasklets": 3}),
        (base, pairs, "mram", {"tasklets": 1, "layout_tasklets": 2}),
        (base, pairs, "wram", {}),
        (dataclasses.replace(base, staging_chunk_bytes=16), pairs, "mram", {}),
        (base, pairs[:5], "mram", {}),
        (base, pairs, "mram", {"metadata_bytes": 2 * base.metadata_peak_bytes()}),
    ]


def cold_outcomes(variants, monkeypatch):
    outcomes = []
    for kc, pairs, policy, kwargs in variants:
        clear_memos()
        outcomes.append(launch(ClosedFormKernel, kc, pairs, policy, monkeypatch, **kwargs))
    return outcomes


def test_launch_plans_are_never_shared_across_configurations(monkeypatch):
    """Every launch with warm memos equals the same launch with cold ones,
    and each configuration keeps a plan of its own."""
    variants = launch_variants()
    cold = cold_outcomes(variants, monkeypatch)
    assert all(outcome.error is None for outcome in cold)
    assert len({repr(outcome) for outcome in cold}) == len(variants)
    clear_memos()
    for _ in range(2):  # the first pass plans every launch, the second reuses
        for (kc, pairs, policy, kwargs), want in zip(variants, cold):
            assert launch(ClosedFormKernel, kc, pairs, policy, monkeypatch, **kwargs) == want
    info = kernel_module.launch_plan.cache_info()
    assert (info.currsize, info.misses) == (len(variants), len(variants))


def test_memos_at_a_bound_of_one_stay_exact(monkeypatch):
    """With every memo holding one entry, launches that take turns over
    four configurations evict each other's plans, tables and charges,
    and every launch still equals its cold run."""
    for name in MEMOS:
        memo = getattr(kernel_module, name)
        monkeypatch.setattr(
            kernel_module, name, functools.lru_cache(maxsize=1)(memo.__wrapped__)
        )
    variants = launch_variants()[:4]
    cold = cold_outcomes(variants, monkeypatch)
    for _ in range(2):
        for (kc, pairs, policy, kwargs), want in zip(variants, cold):
            assert launch(ClosedFormKernel, kc, pairs, policy, monkeypatch, **kwargs) == want
    assert all(memo_info()[name].currsize == 1 for name in MEMOS)


def test_memo_holds_at_most_its_bound():
    memo = kernel_module.metadata_plan
    bound = kernel_module.METADATA_PLAN_CACHE
    assert memo.cache_info().maxsize == bound
    clear_memos()
    kc, timing = KernelConfig(penalties=EditPenalties()), DpuTimingConfig()
    table = kernel_module.charge_table(kc, "mram", None, timing)
    for final in range(bound + 8):
        log = tuple((s, "M", -s, s) for s in range(final + 1))
        memo(table, log)
        assert memo.cache_info().currsize == min(final + 1, bound)
    # launch plans: one per layout, every layout of a configuration
    # sharing its one charge table
    plans, bound = kernel_module.launch_plan, kernel_module.LAUNCH_PLAN_CACHE
    assert plans.cache_info().maxsize == bound
    assert kernel_module.charge_table.cache_info().maxsize == bound
    tables = set()
    for num_pairs in range(1, bound + 9):
        layout = plan_layout(kc, [None] * num_pairs, "mram")
        tables.add(plans(kc, DpuConfig(), 2, "mram", layout).charges)
        assert plans.cache_info().currsize == min(num_pairs, bound)
    assert tables == {table}


# -- the error paths ---------------------------------------------------------------


def total_transfers(kc, pairs, monkeypatch):
    ref = launch(ReferenceKernel, kc, pairs, "mram", monkeypatch)
    assert ref.error is None
    return ref.dma[0]


@pytest.mark.parametrize("chunk", [None, 16])
def test_stall_budget_sweep_fails_on_the_same_transfer(chunk, monkeypatch):
    kc = KernelConfig(
        penalties=AffinePenalties(4, 6, 2),
        max_read_len=12,
        max_edits=2,
        staging_chunk_bytes=chunk,
    )
    pairs = workload(n=2, length=12, error_rate=0.15, seed=5)
    total = total_transfers(kc, pairs, monkeypatch)
    for budget in range(total):
        ref, *news = both(kc, pairs, "mram", monkeypatch, dma_budget=budget)
        assert ref.error[0] is TaskletStallError
        assert f"DMA transfer {budget + 1} exceeds" in ref.error[1]
        for new in news:
            assert new.error == ref.error, budget
            assert new.events == ref.events, budget
    ref, *news = both(kc, pairs, "mram", monkeypatch, dma_budget=total)
    assert ref.error is None and news == [ref, ref]


def arena_bytes(kc, pairs):
    """``(need, short)``: the MRAM arena every pair's metadata fits exactly,
    and that arena one wavefront short (the largest pair's last)."""
    totals = []
    for pair in pairs:
        engine = WfaEngine(
            pair.pattern, pair.text, kc.penalties, max_score=kc.max_score
        )
        engine.run()
        log = engine.counters.wavefront_log
        sizes = [aligned_size(4 * (hi - lo + 1)) for _s, _c, lo, hi in log]
        totals.append((sum(sizes), sizes[-1]))
    need, last = max(totals)
    return need, need - last


def test_arena_overflow_raises_the_same_kernel_error(monkeypatch):
    kc = KernelConfig(penalties=AffinePenalties(4, 6, 2), max_read_len=24, max_edits=4)
    pairs = workload()
    need, short = arena_bytes(kc, pairs)
    ref, *news = both(kc, pairs, "mram", monkeypatch, metadata_bytes=short)
    assert ref.error[0] is KernelError
    assert f"metadata arena overflow on pair {ref.error[2]}" in ref.error[1]
    assert "mram arena exhausted" in ref.error[1]
    for new in news:
        assert new.error == ref.error
        assert new.events == ref.events
    ref, *news = both(kc, pairs, "mram", monkeypatch, metadata_bytes=need)
    assert ref.error is None and news == [ref, ref]  # an exact fit is no overflow


@pytest.mark.parametrize("chunk", [None, 8])
def test_overflow_and_stall_first_in_transfer_order_wins(chunk, monkeypatch):
    kc = KernelConfig(
        penalties=AffinePenalties(4, 6, 2),
        max_read_len=24,
        max_edits=4,
        staging_chunk_bytes=chunk,
    )
    pairs = workload()
    _, short = arena_bytes(kc, pairs)
    overflow = launch(
        ReferenceKernel, kc, pairs, "mram", monkeypatch, metadata_bytes=short
    )
    before = overflow.dma[0]  # transfers issued before the overflowing alloc
    ref, *news = both(
        kc, pairs, "mram", monkeypatch, metadata_bytes=short, dma_budget=before - 1
    )
    assert ref.error[0] is TaskletStallError
    assert ref.error[2] == overflow.error[2]
    assert [new.error for new in news] == [ref.error, ref.error]
    ref, *news = both(
        kc, pairs, "mram", monkeypatch, metadata_bytes=short, dma_budget=before
    )
    assert ref.error == overflow.error
    assert [new.error for new in news] == [ref.error, ref.error]


@pytest.mark.parametrize("chunk", [None, 8])
def test_mram_bound_fails_on_the_same_transfer(chunk, monkeypatch):
    """An MRAM bank that ends inside tasklet 1's metadata arena."""
    kc = KernelConfig(
        penalties=AffinePenalties(4, 6, 2),
        max_read_len=24,
        max_edits=4,
        staging_chunk_bytes=chunk,
    )
    pairs = workload()
    end = plan_layout(kc, pairs, "mram").metadata_addr(1) + 40
    ref, *news = both(
        kc, pairs, "mram", monkeypatch, mram_bytes=end, dma_budget=10**6
    )
    assert ref.error[0] is MemoryFault and ref.error[1].startswith("MRAM")
    assert ref.error[2] == 1  # tasklet 1's first pair
    for new in news:
        assert new.error == ref.error
        assert new.events == ref.events


# -- the building blocks against their one-at-a-time forms -------------------------


def test_reserve_matches_alloc_calls():
    rng = random.Random(2)
    for _ in range(300):
        capacity = rng.randrange(0, 400, 8)
        base = rng.randrange(0, 4096, 8)
        sizes = [8 * rng.randint(1, 12) for _ in range(rng.randint(1, 10))]
        fast = BumpAllocator(base, capacity, "mram")
        slow = BumpAllocator(base, capacity, "mram")
        head = rng.randrange(0, capacity + 1, 8)
        if head:
            fast.alloc(head)
            slow.alloc(head)
        fit = fast.reserve(list(accumulate(sizes)))
        error = None
        try:
            for size in sizes:
                slow.alloc(size)
        except AllocationError as exc:
            error = str(exc)
        assert (fast.cursor, fast.high_water, fast.allocations) == (
            slow.cursor,
            slow.high_water,
            slow.allocations,
        )
        if fit < len(sizes):
            assert str(fast.exhausted(sizes[fit])) == error
        else:
            assert error is None


def engine_pair(mram_bytes, wram_bytes):
    timing = DpuTimingConfig()
    return (
        DmaEngine(Mram(mram_bytes), Wram(wram_bytes), timing),
        DmaEngine(Mram(mram_bytes), Wram(wram_bytes), timing),
    )


def stall_after(limit, ticks):
    def hook(size):
        ticks.append(size)
        if len(ticks) > limit:
            raise TaskletStallError(f"stalled at transfer {len(ticks)}")

    return hook


def test_dma_stage_matches_transfer_by_transfer():
    rng = random.Random(7)
    for case in range(400):
        mram_bytes = 8 * rng.randint(64, 2048)
        wram_bytes = 8 * rng.randint(16, 1024)
        chunk = rng.choice([None, 8, 64, 256, 2048])
        sizes = [8 * rng.randint(1, 800) for _ in range(rng.randint(1, 5))]
        uses = [rng.randint(1, 4) for _ in sizes]
        # about half the cases stay in bounds; the rest aim at the ends
        if rng.random() < 0.5:
            mram_addr = rng.randrange(-8, mram_bytes, 8)
            wram_addr = rng.randrange(-8, wram_bytes, 8)
        else:
            mram_addr = rng.randrange(0, 64, 8)
            wram_addr = rng.randrange(0, 64, 8)
            mram_bytes = max(mram_bytes, mram_addr + sum(sizes))
            wram_bytes = max(wram_bytes, wram_addr + max(sizes))
        if rng.random() < 0.05:
            mram_addr += 4
        if rng.random() < 0.05:
            wram_addr += 4
        limit = rng.choice([None, rng.randrange(0, 20)])
        ref, new = engine_pair(mram_bytes, wram_bytes)
        ref_ticks, new_ticks = [], []
        if limit is not None:
            ref.fault_hook = stall_after(limit, ref_ticks)
            new.fault_hook = stall_after(limit, new_ticks)
        args = (mram_addr, wram_addr, sizes, uses, chunk)
        outcomes = []
        for dma, run in ((ref, reference_dma_stage), (new, two_step_stage)):
            try:
                per_use = run(dma, *args)
            except (AlignmentFault, MemoryFault, TaskletStallError) as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append((per_use, dma.transfers, dma.bytes_moved))
        assert outcomes[1] == outcomes[0], case
        assert new_ticks == ref_ticks, case
