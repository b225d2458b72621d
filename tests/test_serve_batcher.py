"""Micro-batcher and service accounting tests.

Two layers:

* unit tests pinning the batcher's flush policy (size wins immediately,
  deadline flushes the stragglers, drain empties unconditionally) and
  the virtual clock's deterministic timer semantics;
* a stateful Hypothesis machine driving the *whole service* through
  arbitrary interleavings of submit / clock-advance / drain, holding
  the accounting invariant at every step::

      submitted == completed + rejected + in_flight

  where ``rejected`` counts admission rejections and fault-abandoned
  requests, and ``in_flight`` is the number of live, unresolved
  futures.  Nothing is lost, nothing is double-counted.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.data.generator import ReadPair
from repro.errors import ConfigError, Overloaded, ServeError
from repro.serve import (
    AlignRequest,
    BatchPolicy,
    MicroBatcher,
    ServiceConfig,
    VirtualClock,
    WorkItem,
    build_service,
)

PAIR = ReadPair(pattern="ACGTACGT", text="ACGTACGA")


def item(seq: int, arrival: float = 0.0) -> WorkItem:
    return WorkItem(
        seq=seq, request_seq=0, offset=0, pair=PAIR, arrival_s=arrival
    )


class TestVirtualClock:
    def test_timers_fire_in_deadline_then_registration_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(2.0, lambda: fired.append("b"))
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(2.0, lambda: fired.append("c"))
        clock.advance_to(5.0)
        assert fired == ["a", "b", "c"]
        assert clock.now() == 5.0

    def test_cancelled_timers_never_fire(self):
        clock = VirtualClock()
        fired = []
        timer = clock.call_at(1.0, lambda: fired.append("x"))
        timer.cancel()
        clock.advance(2.0)
        assert fired == []
        assert clock.next_timer() is None

    def test_callback_may_schedule_into_the_same_sweep(self):
        clock = VirtualClock()
        fired = []

        def first():
            fired.append(clock.now())
            clock.call_at(clock.now() + 1.0, lambda: fired.append(clock.now()))

        clock.call_at(1.0, first)
        clock.advance_to(3.0)
        assert fired == [1.0, 2.0]

    def test_backwards_advance_rejected(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ServeError):
            clock.advance_to(4.0)
        with pytest.raises(ServeError):
            clock.advance(-1.0)


class TestMicroBatcher:
    def test_size_trigger_flushes_immediately(self):
        b = MicroBatcher(BatchPolicy(max_batch_pairs=3, max_wait_s=1.0))
        assert b.add([item(0), item(1)], now=0.0) == []
        [batch] = b.add([item(2), item(3)], now=0.0)
        assert batch.reason == "size"
        assert [i.seq for i in batch.items] == [0, 1, 2]
        assert b.pending_pairs == 1

    def test_one_add_can_emit_multiple_full_batches(self):
        b = MicroBatcher(BatchPolicy(max_batch_pairs=2, max_wait_s=1.0))
        batches = b.add([item(i) for i in range(5)], now=0.0)
        assert [batch.reason for batch in batches] == ["size", "size"]
        assert [[i.seq for i in batch.items] for batch in batches] == [[0, 1], [2, 3]]
        assert b.pending_pairs == 1

    def test_deadline_follows_oldest_pending_pair(self):
        b = MicroBatcher(BatchPolicy(max_batch_pairs=100, max_wait_s=0.5))
        assert b.next_deadline() is None
        b.add([item(0, arrival=1.0)], now=1.0)
        b.add([item(1, arrival=1.3)], now=1.3)
        assert b.next_deadline() == 1.5
        assert b.take_due(now=1.4) == []
        [batch] = b.take_due(now=1.5)
        assert batch.reason == "deadline"
        assert batch.num_pairs == 2
        assert batch.wait_s == pytest.approx(0.5)
        assert b.next_deadline() is None

    def test_drain_flushes_everything(self):
        # size flushes keep pending < cap, so drain sees the remainder
        b = MicroBatcher(BatchPolicy(max_batch_pairs=2, max_wait_s=10.0))
        size_batches = b.add([item(i) for i in range(3)], now=0.0)
        assert [batch.num_pairs for batch in size_batches] == [2]
        batches = b.drain(now=0.0)
        assert [batch.num_pairs for batch in batches] == [1]
        assert all(batch.reason == "drain" for batch in batches)
        assert b.pending_pairs == 0
        assert b.drain(now=0.0) == []

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            BatchPolicy(max_batch_pairs=0)
        with pytest.raises(ConfigError):
            BatchPolicy(max_wait_s=-1.0)


# -- stateful service accounting --------------------------------------------

POOL = [
    ReadPair(pattern="ACGTACGTACGT", text="ACGTACGAACGT"),
    ReadPair(pattern="TTTTCCCCGGGG", text="TTTTCCCAGGGG"),
    ReadPair(pattern="AAAACCCC", text="AAAACCCC"),
    ReadPair(pattern="GATTACAGATTA", text="GATTACCGATTA"),
]


class ServiceAccountingMachine(RuleBasedStateMachine):
    """submit / advance / drain in any order; counts always add up."""

    def __init__(self):
        super().__init__()
        self.service = build_service(
            num_dpus=2,
            tasklets=2,
            workers=1,
            max_read_len=16,
            max_edits=3,
            config=ServiceConfig(
                max_batch_pairs=4,
                max_wait_s=1e-3,
                max_queue_pairs=12,
                cache_pairs=4,
            ),
            with_telemetry=False,
        )
        self.clock = self.service.clock
        self.live = []  # futures not yet observed as done
        self.submitted = 0

    @rule(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(POOL) - 1), min_size=1, max_size=3
        )
    )
    def submit(self, picks):
        request = AlignRequest(
            client="c0",
            request_id=f"r{self.submitted}",
            pairs=tuple(POOL[p] for p in picks),
        )
        self.submitted += 1
        try:
            self.live.append(self.service.submit(request))
        except Overloaded:
            pass

    @rule(steps=st.integers(min_value=0, max_value=4))
    def advance(self, steps):
        self.clock.advance(steps * 5e-4)

    @rule()
    def drain(self):
        self.service.drain()

    @invariant()
    def accounting_adds_up(self):
        stats = self.service.stats
        assert stats.submitted == self.submitted
        assert stats.submitted == stats.completed + stats.rejected + stats.in_flight
        assert stats.in_flight >= 0
        assert self.service.queue_pairs >= 0

    def teardown(self):
        self.service.drain()
        stats = self.service.stats
        assert stats.in_flight == 0
        assert stats.submitted == stats.completed + stats.rejected
        # every accepted future resolved exactly one way
        for future in self.live:
            assert future.done()
            if future.exception() is None:
                response = future.result()
                assert len(response.scores) == len(response.cigars)


ServiceAccountingMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestServiceAccounting = ServiceAccountingMachine.TestCase
