"""The WFA DPU kernel: per-tasklet alignment loop on simulated hardware.

This mirrors the paper's kernel exactly (§I, last two paragraphs):

1. each tasklet owns a private slice of WRAM and a list of read pairs;
2. per pair, it DMAs the input record MRAM->WRAM, aligns with WFA, and
   DMAs the result record WRAM->MRAM;
3. WFA's malloc is replaced by the custom two-level allocator
   (:mod:`repro.pim.allocator`);
4. under the paper's ``"mram"`` metadata policy, wavefronts are allocated
   in MRAM and staged through small WRAM buffers on demand, whole where
   they fit the tasklet's slice and in chunks where they do not (so 64 KB
   of shared WRAM never caps the tasklet count); under the ``"wram"``
   ablation policy everything lives in WRAM and the supported tasklet
   count collapses.

Fidelity notes (see DESIGN.md §2):

* Sequence and result bytes genuinely flow through the simulated MRAM
  and its DMA engine — the host packs records into MRAM, each tasklet
  fetches its record with a validated, charged DMA
  (:meth:`~repro.pim.dma.DmaEngine.read_large`) and writes its result
  record back the same way (:meth:`~repro.pim.dma.DmaEngine.write_large`).
  The record transfers pass their bytes straight between MRAM and the
  tasklet rather than through the WRAM array, whose record buffers only
  the issuing tasklet reads, at once.  A pair's vector-engine view is
  used when the fetched record holds its sequences byte for byte
  (:meth:`~repro.pim.layout.MramLayout.holds`); a record that differs
  (injected bit rot) is decoded and aligned on the scalar engine.
* The WFA arithmetic itself runs on the host Python engine for speed;
  its *wavefront log* then drives the metadata accounting.  Each pair's
  wavefronts are reserved in the metadata arena in one step and their
  staging is validated and charged in closed form, so capacity,
  alignment, bounds, traffic volumes, cycle sums and fault-hook ticks
  are exactly those of the transfer-by-transfer DPU code.  Everything
  the charge derives from the log (sizes, their running sums, uses, DMA
  pieces, per-transfer and per-use cycles) is one immutable plan,
  memoized by :func:`metadata_plan` per log in the launch's
  :class:`ChargeTable` (kernel configuration, policy, staging chunk and
  DPU timing): a global alignment's log depends only on its final
  score, so a workload's pairs share a few dozen plans, and each pair
  pays only one hash of its log, one bisection against its arena, its
  address and bounds checks, fault-hook ticks and in-order float
  additions.  The staged bytes themselves are not copied: metadata
  buffer contents are scratch that no code reads.
* Everything else a launch derives from its configuration (the WRAM
  map, every tasklet's buffer and arena addresses, the fixed
  reservation, both record sizes and their DMA piece counts) is one
  immutable :class:`LaunchPlan`, memoized by :func:`launch_plan`, so a
  launch builds only what it mutates: one
  :class:`~repro.pim.tasklet.TaskletStats` per tasklet and, per busy
  tasklet, an allocator and a context.
* Instruction counts come from the operation counters via
  :class:`~repro.perf.costs.DpuCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, islice
from operator import add
from typing import Callable, Iterable, Iterator, Optional

from repro.core.aligner import AlignmentResult
from repro.core.backtrace import backtrace
from repro.core.heuristics import AdaptiveReduction
from repro.core.span import AlignmentSpan
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    Penalties,
    TwoPieceAffinePenalties,
)
from repro.core.wfa import WfaEngine
from repro.core.wfa_batch import BatchPairView, BatchWfaEngine
from repro.data.generator import ReadPair
from repro.errors import AllocationError, AlignmentError, KernelError
from repro.pim.allocator import TaskletAllocator
from repro.pim.config import DpuConfig, DpuTimingConfig
from repro.pim.dma import (
    DMA_ALIGN,
    DMA_MAX,
    DMA_MIN,
    StagingPlan,
    aligned_size,
    dma_pieces,
    plan_staging,
)
from repro.pim.dpu import Dpu
from repro.pim.layout import MramLayout
from repro.pim.tasklet import TaskletContext, TaskletStats
from repro.pim.trace import KernelTrace, TraceEvent
from repro.perf.costs import DpuCostModel

__all__ = ["KernelConfig", "WramPlan", "WfaDpuKernel", "max_supported_tasklets"]

#: host bytes one vector-engine run may hold: :meth:`WfaDpuKernel.batch_views`
#: puts at most ``BATCH_BUDGET_BYTES // metadata_peak_bytes()`` pairs in a
#: run (1176 at 100 bp / 4 edits, 52 at 1000 bp / 20 edits, affine), so
#: host memory follows read length, not the input size.
BATCH_BUDGET_BYTES = 16 << 20

#: metadata charges :func:`metadata_plan` keeps, least recently used out,
#: over all configurations.  Workloads repeat a few dozen wavefront logs
#: (7 to 23 distinct in the perfbench workloads, 125 in 576 pairs under
#: the adaptive heuristic), and a plan with its key (the log) takes
#: about 4 KB at 100 bp, 40 KB at 1000 bp.
METADATA_PLAN_CACHE = 256

#: launch plans :func:`launch_plan` and charge tables :func:`charge_table`
#: each keep, least recently used out.  A launch plan is per MRAM layout,
#: so per per-DPU batch capacity: the perfbench workloads use 2 or 3
#: plans and one table each.  A plan takes about 10 KB at 16 tasklets.
LAUNCH_PLAN_CACHE = 64


def per_edit_cost(penalties: Penalties) -> int:
    """Worst-case penalty of one edit operation under ``penalties``."""
    if isinstance(penalties, TwoPieceAffinePenalties):
        return max(penalties.mismatch, penalties.gap_cost(1))
    if isinstance(penalties, AffinePenalties):
        return max(penalties.mismatch, penalties.gap_open + penalties.gap_extend)
    if isinstance(penalties, LinearPenalties):
        return max(penalties.mismatch, penalties.indel)
    if isinstance(penalties, EditPenalties):
        return 1
    raise KernelError(f"unsupported penalty model: {penalties!r}")


def source_distances(penalties: Penalties) -> dict[str, tuple[int, ...]]:
    """Score distances at which each component's wavefront is read back.

    A wavefront of component ``c`` created at score ``s`` is a recurrence
    source for every computed score ``s + d``, ``d`` in the returned
    ``c`` entry: under affine penalties M is read as the mismatch source
    and as the gap-open source, I and D once as the gap-extend source.
    """
    if isinstance(penalties, TwoPieceAffinePenalties):
        m = (
            penalties.mismatch,
            penalties.gap_open1 + penalties.gap_extend1,
            penalties.gap_open2 + penalties.gap_extend2,
        )
        gap1, gap2 = (penalties.gap_extend1,), (penalties.gap_extend2,)
        return {"M": m, "I": gap1, "D": gap1, "I2": gap2, "D2": gap2}
    if isinstance(penalties, AffinePenalties):
        m = (penalties.mismatch, penalties.gap_open + penalties.gap_extend)
        gap = (penalties.gap_extend,)
        return {"M": m, "I": gap, "D": gap, "I2": gap, "D2": gap}
    if isinstance(penalties, LinearPenalties):
        every = (penalties.mismatch, penalties.indel)
    else:  # edit
        every = (1,)
    return dict.fromkeys(("M", "I", "D", "I2", "D2"), every)


@dataclass(frozen=True)
class KernelConfig:
    """Compile-time parameters of the DPU kernel.

    The kernel, like real DPU code, must size every buffer statically:
    ``max_read_len`` and ``max_edits`` bound the score (hence wavefront
    width, metadata footprint and CIGAR length) for admission planning.
    """

    penalties: Penalties = field(default_factory=AffinePenalties)
    max_read_len: int = 100
    max_edits: int = 4
    traceback: bool = True
    adaptive: bool = False
    #: WRAM staging granularity for MRAM-resident metadata.  ``None``
    #: lets :meth:`WfaDpuKernel.plan_wram` pick: whole wavefronts (buffers
    #: scale with the score bound, the paper's baseline design) wherever
    #: they fit the tasklet's slice, else the largest chunk that does,
    #: which admits long reads / high E at the requested tasklet count
    #: for a few more DMA transfers.  A fixed chunk size (multiple of 8,
    #: up to 2048) overrides the pick; the staging-chunk ablation sweeps it.
    staging_chunk_bytes: Optional[int] = None
    #: alignment span.  Defaults to global (the paper's mode).  Ends-free
    #: spans must be *bounded* (free allowances widen the score-0
    #: wavefront, hence every WRAM staging buffer) — unbounded semiglobal
    #: mapping belongs on the host or needs windowed candidates.
    span: AlignmentSpan = field(default_factory=AlignmentSpan)
    #: host-side alignment engine.  ``"scalar"`` runs the per-pair
    #: :class:`~repro.core.wfa.WfaEngine` (the differential oracle);
    #: ``"vector"`` batches pairs through the NumPy
    #: :class:`~repro.core.wfa_batch.BatchWfaEngine`
    #: (:meth:`WfaDpuKernel.batch_views`).  Purely a host
    #: simulation-speed knob: scores, CIGARs, counters, the wavefront
    #: log (hence DMA charging and the timing model), traces and fault
    #: behaviour are identical.  Configurations the batch engine cannot
    #: replicate exactly (ends-free spans, adaptive heuristic) silently
    #: fall back to the scalar path.
    engine: str = "scalar"

    def __post_init__(self) -> None:
        if self.engine not in ("scalar", "vector"):
            raise KernelError(
                f"engine must be 'scalar' or 'vector', got {self.engine!r}"
            )
        if self.max_read_len < 1:
            raise KernelError(f"max_read_len must be >= 1, got {self.max_read_len}")
        if self.max_edits < 0:
            raise KernelError(f"max_edits must be >= 0, got {self.max_edits}")
        if self.staging_chunk_bytes is not None:
            c = self.staging_chunk_bytes
            if c < 8 or c > 2048 or c % 8 != 0:
                raise KernelError(
                    f"staging_chunk_bytes must be a multiple of 8 in [8, 2048], "
                    f"got {c}"
                )
        span_width = self.span.pattern_begin_free + self.span.text_begin_free
        if span_width > 4 * self.max_seq_len:
            raise KernelError(
                "ends-free allowances too large for a static kernel plan: "
                f"begin-free width {span_width} exceeds 4x max_seq_len"
            )

    @property
    def max_score(self) -> int:
        """Upper bound on any in-budget pair's alignment penalty."""
        return max(1, self.max_edits * per_edit_cost(self.penalties))

    @property
    def max_seq_len(self) -> int:
        """Largest read either slot must hold: insertions lengthen reads."""
        return self.max_read_len + self.max_edits

    @property
    def max_wavefront_width(self) -> int:
        """Max diagonals per wavefront.

        The range grows by 2 per score on top of the score-0 seed width
        (1 for global; wider when begin-free spans seed extra diagonals).
        """
        seed_width = 1 + self.span.pattern_begin_free + self.span.text_begin_free
        return 2 * self.max_score + 2 + seed_width

    @property
    def max_cigar_ops(self) -> int:
        """Max RLE runs: d edits split match runs at most 2d+1 ways."""
        return 2 * self.max_edits + 3

    @property
    def wavefront_components(self) -> int:
        """Wavefront components per score (5/3/1 by metric)."""
        if isinstance(self.penalties, TwoPieceAffinePenalties):
            return 5
        if isinstance(self.penalties, AffinePenalties):
            return 3
        return 1

    def metadata_peak_bytes(self) -> int:
        """Worst-case packed metadata for one alignment (full memory mode).

        Score ``s`` allocates ``components`` wavefronts of at most
        ``2s + 3`` offsets (4 bytes each, every block rounded up to the
        8-byte DMA granularity); summing over all scores up to the bound
        gives the arena size both policies must admit.
        """
        comps = self.wavefront_components
        seed_width = 1 + self.span.pattern_begin_free + self.span.text_begin_free
        return sum(
            comps * aligned_size(4 * (2 * s + 2 + seed_width))
            for s in range(self.max_score + 1)
        )

    def heuristic(self) -> Optional[Callable]:
        return AdaptiveReduction() if self.adaptive else None


@dataclass(frozen=True)
class WramPlan:
    """Static WRAM map for one tasklet's slice."""

    slice_bytes: int
    input_off: int
    result_off: int
    staging_off: int  # base of the staging area ("mram" policy only)
    staging_buffers: int
    staging_buffer_bytes: int
    metadata_off: int  # base of the in-WRAM metadata arena ("wram" policy)
    metadata_bytes: int
    #: bytes per staging transfer; ``None`` stages whole wavefronts
    staging_chunk: Optional[int] = None

    @property
    def used_bytes(self) -> int:
        return max(
            self.staging_off + self.staging_buffers * self.staging_buffer_bytes,
            self.metadata_off + self.metadata_bytes,
        )


#: staged wavefronts resident simultaneously under the "mram" policy, by
#: component count: affine needs up to 4 sources (M_{s-x}, M_{s-o-e},
#: I_{s-e}, D_{s-e}) + 3 destinations; two-piece affine 7 sources + 5
#: destinations; single-component metrics 2 sources + 1 destination.
STAGING_BUFFERS_BY_COMPONENTS = {1: 3, 3: 7, 5: 12}


class WfaDpuKernel:
    """Executes the WFA alignment loop on a simulated DPU."""

    def __init__(
        self,
        config: KernelConfig,
        cost_model: Optional[DpuCostModel] = None,
    ) -> None:
        self.config = config
        self.cost_model = cost_model if cost_model is not None else DpuCostModel()

    # -- static planning ------------------------------------------------------

    def input_record_bytes(self) -> int:
        return 8 + 2 * aligned_size(self.config.max_seq_len)

    def result_record_bytes(self) -> int:
        return 8 + aligned_size(4 * self.config.max_cigar_ops)

    def plan_wram(
        self, dpu_config: DpuConfig, tasklets: int, metadata_policy: str
    ) -> WramPlan:
        """Divide WRAM among ``tasklets`` and map one slice.

        Under the ``"mram"`` policy with ``staging_chunk_bytes=None`` the
        planner picks the staging granularity: whole-wavefront buffers
        wherever they fit, else the largest chunk (a multiple of 8, at
        most 2048 B) that lets the slice hold every staging buffer.  The
        plan records the pick as ``staging_chunk``.

        Raises :class:`KernelError` when the per-tasklet slice cannot hold
        the kernel's buffers — the admission failure that caps the tasklet
        count (the paper's central WRAM-pressure problem).  The error
        names the need of the smallest plan the configuration allows.
        """
        if not 1 <= tasklets <= dpu_config.max_tasklets:
            raise KernelError(
                f"tasklets must be in [1, {dpu_config.max_tasklets}], got {tasklets}"
            )
        if metadata_policy not in ("mram", "wram"):
            raise KernelError(f"unknown metadata_policy {metadata_policy!r}")
        slice_bytes = (dpu_config.wram_bytes // tasklets) // 8 * 8

        input_off = 0
        result_off = input_off + aligned_size(self.input_record_bytes())
        after_result = result_off + aligned_size(self.result_record_bytes())
        chunk = None
        if metadata_policy == "mram":
            staging = STAGING_BUFFERS_BY_COMPONENTS[self.config.wavefront_components]
            chunk = self.config.staging_chunk_bytes
            whole = aligned_size(4 * self.config.max_wavefront_width)
            if chunk is None and after_result + staging * whole > slice_bytes:
                # Whole wavefronts do not fit: the largest chunk that does
                # (8 B when none does, so the error names the least need).
                room = (slice_bytes - after_result) // staging // DMA_ALIGN * DMA_ALIGN
                chunk = max(DMA_MIN, min(room, DMA_MAX))
            staging_buffer_bytes = whole if chunk is None else chunk
            metadata_bytes = 0
        else:
            staging = staging_buffer_bytes = 0
            metadata_bytes = aligned_size(self.config.metadata_peak_bytes())
        plan = WramPlan(
            slice_bytes=slice_bytes,
            input_off=input_off,
            result_off=result_off,
            staging_off=after_result,
            staging_buffers=staging,
            staging_buffer_bytes=staging_buffer_bytes,
            metadata_off=after_result,
            metadata_bytes=metadata_bytes,
            staging_chunk=chunk,
        )
        if plan.used_bytes > slice_bytes:
            chunked = f" with {chunk} B staging chunks" if chunk is not None else ""
            raise KernelError(
                f"WRAM slice of {slice_bytes} B ({dpu_config.wram_bytes} B / "
                f"{tasklets} tasklets) cannot hold kernel buffers "
                f"({plan.used_bytes} B needed{chunked}, "
                f"policy={metadata_policy!r}, max_score={self.config.max_score})"
            )
        return plan

    # -- host engine ------------------------------------------------------

    def batch_views(
        self, pairs: Iterable[ReadPair]
    ) -> Optional[Iterator[BatchPairView]]:
        """Views of ``pairs`` aligned on the vector engine, lazily, in order.

        The one place that decides whether the vector engine applies:
        ``engine="vector"`` with a global span and no adaptive heuristic.
        Otherwise returns ``None`` without consuming ``pairs``, and every
        pair aligns on the scalar engine.  The iterator runs the engine
        over :attr:`batch_run_pairs` pairs at a time, each run only once
        the previous one's views are all handed out, and keeps no view it
        has handed out: host memory holds at most the runs whose views
        are still alive.  A pair's results do not depend on which run it
        shares.
        """
        cfg = self.config
        if cfg.engine != "vector" or not cfg.span.is_global or cfg.adaptive:
            return None
        return self._chunked_views(iter(pairs))

    @property
    def batch_run_pairs(self) -> int:
        """Pairs in one vector-engine run of :meth:`batch_views`:
        ``BATCH_BUDGET_BYTES // metadata_peak_bytes()``, at least one."""
        return max(1, BATCH_BUDGET_BYTES // self.config.metadata_peak_bytes())

    def _chunked_views(self, pairs: Iterator[ReadPair]) -> Iterator[BatchPairView]:
        cfg = self.config
        cap = self.batch_run_pairs
        while chunk := [(p.pattern, p.text) for p in islice(pairs, cap)]:
            views = BatchWfaEngine(
                chunk,
                cfg.penalties,
                memory_mode="full" if cfg.traceback else "low",
                max_score=cfg.max_score,
                span=cfg.span,
            ).run()
            views.reverse()
            while views:
                yield views.pop()

    # -- execution ------------------------------------------------------

    def run(
        self,
        dpu: Dpu,
        layout: MramLayout,
        assignments: list[list[int]],
        metadata_policy: str = "mram",
        collect_results: bool = False,
        trace: Optional[KernelTrace] = None,
        views: Optional[dict[int, BatchPairView]] = None,
    ) -> tuple[list[TaskletStats], list[tuple[int, AlignmentResult]]]:
        """Run the kernel on one DPU.

        Args:
            dpu: the target DPU (its MRAM must already hold the header
                and input records).
            layout: the MRAM layout used by the host.
            assignments: ``assignments[t]`` lists the input-record indices
                tasklet ``t`` processes.
            metadata_policy: "mram" (paper) or "wram" (ablation).
            collect_results: additionally return the in-Python alignment
                results, for cross-checking against the MRAM records.
            trace: optional :class:`~repro.pim.trace.KernelTrace` that
                receives per-pair phase events (fetch/align/metadata/
                writeback) with their cycle and byte costs.
            views: vector-engine results by input-record index, from
                :meth:`batch_views` over the host's copy of the pairs.
                The kernel takes each view out of the dict as it aligns
                that pair, so the view dies with its pair.  ``None``
                runs :meth:`batch_views` over the records in MRAM.

        Returns:
            ``(tasklet_stats, results)`` where ``results`` is empty unless
            ``collect_results``.
        """
        plan = launch_plan(
            self.config, dpu.config, len(assignments), metadata_policy, layout
        )
        # Only tasklets with pairs get an allocator and a context; an
        # idle one reports empty stats.
        stats = []
        contexts = []
        for t, indices in enumerate(assignments):
            if not indices:
                stats.append(TaskletStats(tasklet_id=t))
                continue
            base, input_buffer, result_buffer, staging, mram_base = plan.tasklets[t]
            if mram_base is None:  # a tasklet the layout has no arena for
                layout.metadata_addr(t)  # raises its LayoutError
            alloc = TaskletAllocator(
                wram_base=base,
                wram_capacity=plan.wram.slice_bytes,
                mram_base=mram_base,
                mram_capacity=layout.metadata_bytes_per_tasklet,
                metadata_policy=metadata_policy,
                wram_reserved=plan.fixed,
            )
            ctx = TaskletContext(
                tasklet_id=t,
                allocator=alloc,
                input_buffer=input_buffer,
                result_buffer=result_buffer,
                staging_buffers=staging,
            )
            stats.append(ctx.stats)
            contexts.append((ctx, indices))

        if views is None:
            # Align the records in MRAM, read past the DMA engine so that
            # transfer charging and trace events stay with each pair's fetch.
            indices = [index for tasklet in assignments for index in tasklet]
            records = (
                dpu.mram.read(layout.input_addr(index), layout.input_record_size)
                for index in indices
            )
            views = dict(
                zip(indices, self.batch_views(map(layout.unpack_pair, records)) or ())
            )

        results: list[tuple[int, AlignmentResult]] = []
        collected = results if collect_results else None
        for ctx, indices in contexts:
            for index in indices:
                self._align_one(dpu, layout, ctx, index, plan, trace, views, collected)
        return stats, results

    # -- one pair ------------------------------------------------------

    def _align_one(
        self,
        dpu: Dpu,
        layout: MramLayout,
        ctx: TaskletContext,
        index: int,
        plan: LaunchPlan,
        trace: Optional[KernelTrace] = None,
        views: Optional[dict[int, BatchPairView]] = None,
        results: Optional[list[tuple[int, AlignmentResult]]] = None,
    ) -> None:
        """Align input record ``index`` on tasklet ``ctx``; appends
        ``(index, result)`` to ``results`` when given."""
        cfg = self.config
        stats = ctx.stats
        metadata_policy = plan.charges.policy
        # 1. Fetch the input record MRAM -> WRAM.
        size, pieces = plan.input_record
        cycles, record = dpu.dma.read_large(
            layout.input_addr(index), ctx.input_buffer, size
        )
        stats.add_dma(cycles, size, pieces)
        if trace is not None:
            trace.record(
                TraceEvent(
                    tasklet_id=ctx.tasklet_id,
                    pair_index=index,
                    phase="fetch",
                    cycles=cycles,
                    dma_bytes=size,
                    dpu_id=dpu.dpu_id,
                )
            )

        # 2. Align (functional engine; counters drive the cost replay).
        # A batch view is used only when the record the charged DMA
        # delivered holds its sequences byte for byte (fault hooks may
        # have corrupted MRAM).  Only a record that differs is decoded
        # (a malformed one fails here, its view left in ``views``) and
        # aligned on the scalar engine.  The view is taken out of
        # ``views`` so that it dies with this pair, and the batch arrays
        # with the last view.
        view = views.get(index) if views is not None else None
        if view is None or not layout.holds(record, view.pattern, view.text):
            pair = layout.unpack_pair(record)
            view = None
        if views is not None:
            views.pop(index, None)
        if view is not None:
            if view.error is not None:
                raise KernelError(
                    f"pair {index} exceeded the kernel score bound "
                    f"{cfg.max_score}: {view.error}"
                )
            engine = view
            score = view.final_score
        else:
            engine = WfaEngine(
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
                    tasklet_id=ctx.tasklet_id,
                    pair_index=index,
                    phase="align",
                    cycles=instructions,  # 1 instr/cycle at full pipeline
                    instructions=instructions,
                    detail=f"score={score} cells={counters.cells_computed}",
                    dpu_id=dpu.dpu_id,
                )
            )

        # 3. Charge metadata allocation/staging to the allocator+DMA.
        mark = ctx.allocator.wram_mark()
        dma_before = (stats.dma_cycles, stats.dma_bytes)
        try:
            self._charge_metadata(dpu, ctx, counters, metadata_policy, plan.charges)
        except AllocationError as exc:
            raise KernelError(
                f"metadata arena overflow on pair {index} "
                f"(policy={metadata_policy!r}): {exc}"
            ) from exc
        finally:
            ctx.allocator.reset_metadata()
            ctx.allocator.wram_release(mark)
        if trace is not None:
            trace.record(
                TraceEvent(
                    tasklet_id=ctx.tasklet_id,
                    pair_index=index,
                    phase="metadata",
                    cycles=stats.dma_cycles - dma_before[0],
                    dma_bytes=stats.dma_bytes - dma_before[1],
                    detail=metadata_policy,
                    dpu_id=dpu.dpu_id,
                )
            )

        # 4. Write the result record WRAM -> MRAM.  A global traceback
        # ends at the origin, so its region starts at (0, 0); an
        # ends-free one starts where its CIGAR, counted back from the
        # end point, does.
        p_end = engine.end_offset - engine.end_k
        t_end = engine.end_offset
        if cigar is None or cfg.span.is_global:
            p_start = t_start = 0
        else:
            p_start = p_end - cigar.pattern_length()
            t_start = t_end - cigar.text_length()
        size, pieces = plan.result_record
        cycles = dpu.dma.write_large(
            ctx.result_buffer,
            layout.result_addr(index),
            layout.pack_result(score, cigar, p_start, t_start),
        )
        stats.add_dma(cycles, size, pieces)
        if trace is not None:
            trace.record(
                TraceEvent(
                    tasklet_id=ctx.tasklet_id,
                    pair_index=index,
                    phase="writeback",
                    cycles=cycles,
                    dma_bytes=size,
                    dpu_id=dpu.dpu_id,
                )
            )
        stats.pairs_done += 1

        if results is not None:
            results.append(
                (
                    index,
                    AlignmentResult(
                        score=score,
                        cigar=cigar,
                        counters=counters,
                        penalties=cfg.penalties,
                        pattern_len=engine.n,
                        text_len=engine.m,
                        exact=not cfg.adaptive,
                        pattern_start=p_start,
                        pattern_end=p_end,
                        text_start=t_start,
                        text_end=t_end,
                    ),
                )
            )

    def _charge_metadata(
        self,
        dpu: Dpu,
        ctx: TaskletContext,
        counters,
        metadata_policy: str,
        charges: ChargeTable,
    ) -> None:
        """Charge the engine's wavefront allocations to the DPU, per pair.

        Every logged wavefront gets an 8-byte-aligned block in the
        tasklet's metadata arena, all reserved in one step.

        ``"wram"`` policy: the arena is the tasklet's WRAM slice (overflow
        = the paper's thread-count problem); cell accesses are plain WRAM
        load/stores already priced into the instruction costs — no DMA.

        ``"mram"`` policy: the arena is the tasklet's MRAM region and each
        block is staged through the WRAM staging buffer: DMA-written once
        at creation (stage-out) and DMA-read back once per later score
        that uses it as a recurrence source — M wavefronts twice under
        affine penalties (mismatch source and gap-open source), I/D
        once — plus once more during traceback.  The charge is the log's
        :func:`metadata_plan` in ``charges`` (the launch's table for
        ``metadata_policy``) applied at the arena's cursor
        (:meth:`~repro.pim.dma.DmaEngine.charge_staging`); a block that
        overflows the arena fails after the blocks before it were
        staged, as it would on the DPU, with the prefix planned on its own.
        """
        log = counters.wavefront_log
        if not log:
            return
        sizes, ends, staging = metadata_plan(charges, tuple(log))
        arena = ctx.allocator.metadata_arena
        base = arena.base + arena.cursor
        fit = arena.reserve(ends)
        if staging is not None and fit:
            if fit < len(sizes):
                staging = plan_staging(
                    sizes[:fit], staging.uses[:fit], staging.chunk, dpu.dma.timing
                )
            stage = ctx.staging_buffers[0] if ctx.staging_buffers else ctx.input_buffer
            dpu.dma.charge_staging(staging, base, stage)
            stats = ctx.stats
            # One addition per use, in use order, so the float total is
            # the one per-use charging produces.
            stats.dma_cycles = reduce(add, staging.move_cycles, stats.dma_cycles)
            stats.dma_bytes += staging.bytes_moved
            stats.dma_transfers += staging.transfers
        if fit < len(sizes):
            raise arena.exhausted(sizes[fit])


@dataclass(frozen=True)
class LaunchPlan:
    """What every launch of one configuration shares; see :func:`launch_plan`.

    Plain immutable data: a launch reads it and mutates only the stats,
    allocators and contexts it builds from it.
    """

    wram: WramPlan
    charges: ChargeTable
    #: WRAM bytes and blocks the fixed buffers (input record, result
    #: record, staging buffers) take at the base of every slice
    fixed: tuple[int, int]
    #: per tasklet ``(slice base, input buffer, result buffer, staging
    #: buffers, metadata arena MRAM base)``; the base is ``None`` for a
    #: tasklet past the layout's arenas
    tasklets: tuple[tuple[int, int, int, tuple[int, ...], Optional[int]], ...]
    #: ``(bytes, DMA pieces)`` of one input and of one result record
    input_record: tuple[int, int]
    result_record: tuple[int, int]


@lru_cache(maxsize=LAUNCH_PLAN_CACHE)
def launch_plan(
    config: KernelConfig,
    dpu_config: DpuConfig,
    tasklets: int,
    metadata_policy: str,
    layout: MramLayout,
) -> LaunchPlan:
    """The :class:`LaunchPlan` of a kernel launch on ``tasklets`` tasklets.

    :meth:`WfaDpuKernel.plan_wram` is the admission check and maps the
    WRAM slice; its :class:`KernelError`, and the one a layout with too
    few CIGAR runs raises, propagate uncached.  A pure function of its
    arguments, all immutable and compared whole; at most
    :data:`LAUNCH_PLAN_CACHE` are kept.
    """
    wram = WfaDpuKernel(config).plan_wram(dpu_config, tasklets, metadata_policy)
    if layout.max_cigar_ops < config.max_cigar_ops and config.traceback:
        raise KernelError("layout reserves fewer CIGAR runs than the kernel may emit")
    arena = layout.metadata_bytes_per_tasklet
    rows = []
    for t in range(tasklets):
        base = t * wram.slice_bytes
        staging = tuple(
            base + wram.staging_off + i * wram.staging_buffer_bytes
            for i in range(wram.staging_buffers)
        )
        if not arena:
            mram_base = layout.metadata_base
        else:
            mram_base = layout.metadata_addr(t) if t < layout.tasklets else None
        rows.append(
            (base, base + wram.input_off, base + wram.result_off, staging, mram_base)
        )
    return LaunchPlan(
        wram=wram,
        charges=charge_table(
            config, metadata_policy, wram.staging_chunk, dpu_config.timing
        ),
        # the input and result records, then the staging buffers: the
        # plan fits the slice, so each lands at its planned offset
        fixed=(
            wram.staging_off + wram.staging_buffers * wram.staging_buffer_bytes,
            2 + wram.staging_buffers,
        ),
        tasklets=tuple(rows),
        input_record=(
            layout.input_record_size,
            len(dma_pieces(layout.input_record_size)),
        ),
        result_record=(
            layout.result_record_size,
            len(dma_pieces(layout.result_record_size)),
        ),
    )


@dataclass(frozen=True, eq=False)
class ChargeTable:
    """Everything a metadata charge depends on besides the wavefront log.

    One table per configuration (see :func:`charge_table`), compared and
    hashed by identity, so :func:`metadata_plan` keyed by a table and a
    log hashes only the log, and two configurations never share a plan.
    """

    config: KernelConfig
    policy: str
    #: the WRAM plan's staging chunk (``None``: whole wavefronts)
    chunk: Optional[int]
    timing: DpuTimingConfig


@lru_cache(maxsize=LAUNCH_PLAN_CACHE)
def charge_table(
    config: KernelConfig,
    metadata_policy: str,
    chunk: Optional[int],
    timing: DpuTimingConfig,
) -> ChargeTable:
    """The :class:`ChargeTable` of one configuration; at most
    :data:`LAUNCH_PLAN_CACHE` are kept, so a configuration met again
    after its table was evicted gets a new one and plans its charges
    afresh."""
    return ChargeTable(config, metadata_policy, chunk, timing)


@lru_cache(maxsize=METADATA_PLAN_CACHE)
def metadata_plan(
    table: ChargeTable, log: tuple[tuple[int, str, int, int], ...]
) -> tuple[tuple[int, ...], tuple[int, ...], Optional[StagingPlan]]:
    """``(sizes, ends, staging)``: the metadata charge of one wavefront log.

    ``sizes`` are the log's 8-byte-aligned arena blocks and ``ends``
    their running sums (what
    :meth:`~repro.pim.allocator.BumpAllocator.reserve` books); ``staging``
    is their :class:`~repro.pim.dma.StagingPlan` under the ``"mram"``
    policy (with the table's staging chunk), ``None`` under ``"wram"``.
    A pure function of the table's configuration and the log, so a plan
    is reused only where it is the same charge; at most
    :data:`METADATA_PLAN_CACHE` are kept, over all tables.  The memo is
    per process rather than per kernel because every simulated DPU
    builds its own :class:`WfaDpuKernel`; purity makes sharing it safe.
    """
    sizes = tuple(aligned_size(4 * (hi - lo + 1)) for _s, _c, lo, hi in log)
    ends = tuple(accumulate(sizes))
    if table.policy != "mram":
        return sizes, ends, None
    config = table.config
    computed = {score for score, _c, _l, _h in log}
    fixed = 2 if config.traceback else 1  # stage-out, traceback
    sources = source_distances(config.penalties)
    uses = [
        fixed + sum(score + distance in computed for distance in sources[comp])
        for score, comp, _l, _h in log
    ]
    return sizes, ends, plan_staging(sizes, uses, table.chunk, table.timing)


def max_supported_tasklets(
    kernel: WfaDpuKernel, dpu_config: DpuConfig, metadata_policy: str
) -> int:
    """Largest tasklet count whose WRAM plan is admissible (0 if none).

    This is the quantitative form of the paper's design argument: under
    the ``"wram"`` policy the metadata arena eats the slice and few
    tasklets fit; under the ``"mram"`` policy all 24 usually do, long
    reads included, because the planner stages in chunks where whole
    wavefronts no longer fit (24 at 1000 bp / E=2%).  Only reads whose
    input and result records crowd the slice, or a fixed
    ``staging_chunk_bytes`` too large for it, lower the count.
    """
    best = 0
    for t in range(1, dpu_config.max_tasklets + 1):
        try:
            kernel.plan_wram(dpu_config, t, metadata_policy)
        except KernelError:
            continue
        best = t
    return best
