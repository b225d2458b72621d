"""One differential matrix through ``build_service`` against the scalar oracle.

Every serve-stack variant the system offers — host engine (scalar,
vector) × shard count (1, 2, 4) × network (none, a calm
:class:`~repro.pim.transport.NetworkFaultPlan`) × result cache (off, on)
— replays the same request trace, and every response must equal what
the scalar WFA oracle (:class:`~repro.core.wfa.WfaEngine` +
:func:`~repro.core.backtrace.backtrace`) computes for each pair.  Since
every cell equals the oracle, every cell equals every other: the
one-shard fleet is the unsharded scheduler, a calm plan is the direct
path, and the vector engine and the cache are invisible in answers.
"""

from __future__ import annotations

import pytest

from repro.core.backtrace import backtrace
from repro.core.penalties import AffinePenalties
from repro.core.wfa import WfaEngine
from repro.data.generator import ReadPairGenerator
from repro.pim.transport import LinkDrop, NetworkFaultPlan
from repro.serve import AlignRequest, ServiceConfig, build_service
from repro.serve.clock import VirtualClock

PENALTIES = AffinePenalties()
PAIRS = ReadPairGenerator(length=12, error_rate=0.1, seed=5).pairs(10)


def oracle(pair) -> tuple[int, str]:
    engine = WfaEngine(pair.pattern, pair.text, PENALTIES)
    score = engine.run()
    return score, str(backtrace(engine))


def calm_plan(shards: int) -> NetworkFaultPlan:
    """Every link named, nothing injected: the transport stays off."""
    return NetworkFaultPlan(
        seed=1, drops=tuple(LinkDrop(shard_id=s, p=0.0) for s in range(shards))
    )


@pytest.mark.parametrize("cache_pairs", [0, 16], ids=["nocache", "cache"])
@pytest.mark.parametrize("network", ["none", "calm"])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_every_response_matches_the_scalar_oracle(
    engine, shards, network, cache_pairs
):
    service = build_service(
        num_dpus=2,
        tasklets=2,
        max_read_len=16,
        max_edits=4,
        penalties=PENALTIES,
        # two-pair rounds stripe each eight-pair batch across the shards
        config=ServiceConfig(
            max_batch_pairs=8, cache_pairs=cache_pairs, pairs_per_round=2
        ),
        clock=VirtualClock(),
        engine=engine,
        shards=shards,
        net_plan=calm_plan(shards) if network == "calm" else None,
    )
    assert service.dispatcher.fleet.transport is None
    submitted = []
    for i in range(12):
        # pairs repeat across requests, so the cache serves hits
        request = AlignRequest(
            client=f"c{i % 2}",
            request_id=f"r{i}",
            pairs=(PAIRS[i % 10], PAIRS[(3 * i) % 10]),
        )
        service.clock.advance_to(i * 1e-4)
        submitted.append((request, service.submit(request)))
    service.drain()

    for request, future in submitted:
        response = future.result()
        assert list(zip(response.scores, response.cigars)) == [
            oracle(pair) for pair in request.pairs
        ], f"request {request.request_id} diverged from the oracle"
    if cache_pairs:
        assert any(any(f.result().cached) for _, f in submitted)
