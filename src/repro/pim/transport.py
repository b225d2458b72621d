"""Modeled coordinator<->shard transport with seeded network faults.

The fleet layer (:mod:`repro.pim.fleet`) federates shards the way the
authors' follow-up framework paper dispatches work across real PIM
ranks — but real ranks sit behind a *network*, and a coordinator that
keeps flaky ranks busy needs an explicit message-passing boundary to
hang its retries, timeouts, and work-stealing off.  This module is that
boundary, entirely on the modeled clock (nothing ever sleeps):

* typed :class:`Envelope`/:class:`Ack` records with **idempotency
  keys** (``"work/round-0003"``), so redelivery is safe by
  construction: the receiver dedups on key, and a duplicate arrival is
  absorbed and counted, never double-executed;
* a seeded, declarative :class:`NetworkFaultPlan` — per-link drop,
  duplicate, reorder, delay, and partition windows — in the same
  frozen-dataclass style as :class:`repro.pim.faults.FaultPlan`; every
  fault site derives its RNG arithmetically from
  ``(seed, shard, round, direction, attempt, site)``, so the same plan
  drops the same envelopes on every run;
* **at-least-once delivery**: a dropped or partition-blocked envelope
  is retransmitted after a modeled per-link timeout with bounded
  exponential backoff, up to ``max_redeliveries`` attempts — no pair is
  ever silently lost (exhaustion raises a typed
  :class:`~repro.errors.TransportError` instead);
* per-link :class:`~repro.pim.health.CircuitBreaker`\\ s fed by
  delivery outcomes, so a flaky link is quarantined out of
  steal-target selection and surfaces in
  :meth:`ShardTransport.link_healthy_fraction` (the serve dispatcher's
  degraded-network backpressure signal).

The *hedged re-dispatch* (work-stealing of in-flight rounds) lives in
:meth:`repro.pim.fleet.FleetCoordinator` — it owns the shards — but the
transport records the steal (``steal`` event, ``pim_net_steals_total``)
and absorbs the losing result of a steal race through the same dedup
path as any other duplicate.

Determinism contract: the transport is consulted **only** when the
plan actually injects faults (``NetworkFaultPlan.is_calm()`` is
``False``).  Under a calm plan the fleet takes its direct path
untouched — zero transport counters, events, or modeled seconds — which
is what keeps the calm-network transport path byte-identical to the
pre-transport fleet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "LinkDrop",
    "LinkDuplicate",
    "LinkDelay",
    "LinkReorder",
    "Partition",
    "NetworkFaultPlan",
    "TransportPolicy",
    "Envelope",
    "Ack",
    "Delivery",
    "ShardTransport",
    "TransportReport",
]

#: message directions over a coordinator<->shard link.
DIRECTIONS = ("work", "result")

_DIR_CODES = {"work": 1, "result": 2}
_SITE_CODES = {"drop": 1, "duplicate": 2, "delay": 3, "reorder": 4}


def _link_rand(
    seed: int, shard: int, round_index: int, direction: str, attempt: int, site: str
) -> float:
    """Seeded uniform [0, 1) for one fault site of one delivery attempt.

    Arithmetic mixing (never string hashing — a process-salted hash
    would desync across pool workers), same discipline as
    :class:`repro.pim.faults.FaultInjector`.
    """
    mix = (
        seed * 1_000_003
        + shard * 9_176
        + round_index * 131
        + _DIR_CODES[direction] * 53
        + attempt * 17
        + _SITE_CODES[site]
    )
    return random.Random(mix).random()


def _applies(fault_direction: str, direction: str) -> bool:
    return fault_direction in ("both", direction)


def _check_direction(direction: str, what: str) -> None:
    if direction not in DIRECTIONS + ("both",):
        raise ConfigError(
            f"{what} direction must be one of {DIRECTIONS + ('both',)}, "
            f"got {direction!r}"
        )


# -- the declarative plan ------------------------------------------------------


@dataclass(frozen=True)
class LinkDrop:
    """Envelopes on one shard's link are lost with probability ``p``."""

    shard_id: int
    p: float = 0.1
    direction: str = "both"

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 1:
            raise ConfigError(f"drop p must be in [0, 1], got {self.p}")
        _check_direction(self.direction, "drop")


@dataclass(frozen=True)
class LinkDuplicate:
    """Delivered envelopes arrive twice with probability ``p``.

    The duplicate copy is absorbed by receiver-side dedup on the
    idempotency key — it is counted, never re-executed.
    """

    shard_id: int
    p: float = 0.1
    direction: str = "both"

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 1:
            raise ConfigError(f"duplicate p must be in [0, 1], got {self.p}")
        _check_direction(self.direction, "duplicate")


@dataclass(frozen=True)
class LinkDelay:
    """Every delivery on one shard's link takes ``delay_s`` extra modeled
    seconds, plus a seeded jitter in ``[0, jitter_s)``."""

    shard_id: int
    delay_s: float = 0.001
    jitter_s: float = 0.0
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ConfigError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.jitter_s < 0:
            raise ConfigError(f"jitter_s must be >= 0, got {self.jitter_s}")
        _check_direction(self.direction, "delay")


@dataclass(frozen=True)
class LinkReorder:
    """With probability ``p`` an envelope is overtaken in flight and
    arrives ``penalty_s`` late.

    Modeled as a pure extra latency: the fleet executes rounds in global
    round order regardless of arrival interleaving, so overtaking can
    move time but never results.
    """

    shard_id: int
    p: float = 0.1
    penalty_s: float = 0.002
    direction: str = "both"

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 1:
            raise ConfigError(f"reorder p must be in [0, 1], got {self.p}")
        if self.penalty_s < 0:
            raise ConfigError(f"penalty_s must be >= 0, got {self.penalty_s}")
        _check_direction(self.direction, "reorder")


@dataclass(frozen=True)
class Partition:
    """A window of modeled time during which links are fully severed.

    ``shard_ids`` names the cut links; empty means *every* link (a
    coordinator-side partition).  Delivery attempts inside the window
    are blocked (``net_partition`` event) and retried after it heals.
    """

    start_s: float
    end_s: float
    shard_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigError(f"start_s must be >= 0, got {self.start_s}")
        if self.end_s <= self.start_s:
            raise ConfigError(
                f"end_s must be > start_s, got [{self.start_s}, {self.end_s}]"
            )

    def covers(self, shard: int, t_s: float) -> bool:
        if not self.start_s <= t_s < self.end_s:
            return False
        return not self.shard_ids or shard in self.shard_ids


@dataclass(frozen=True)
class NetworkFaultPlan:
    """Declarative, seeded description of every network fault a run sees."""

    seed: int = 0
    drops: tuple[LinkDrop, ...] = ()
    duplicates: tuple[LinkDuplicate, ...] = ()
    delays: tuple[LinkDelay, ...] = ()
    reorders: tuple[LinkReorder, ...] = ()
    partitions: tuple[Partition, ...] = ()

    def is_calm(self) -> bool:
        """True when the plan injects nothing — the fleet then bypasses
        the transport entirely (byte-identity with the direct path).

        Zero-effect entries count as nothing: a drop/duplicate/reorder
        at ``p=0``, a delay of zero seconds with zero jitter, and an
        empty partition window are all calm, so a sweep parameterized
        down to intensity zero takes the same direct path as no plan.
        """
        return not (
            any(d.p > 0.0 for d in self.drops)
            or any(d.p > 0.0 for d in self.duplicates)
            or any(d.delay_s > 0.0 or d.jitter_s > 0.0 for d in self.delays)
            or any(r.p > 0.0 for r in self.reorders)
            or any(w.end_s > w.start_s for w in self.partitions)
        )

    def partitioned_until(self, shard: int, t_s: float) -> Optional[float]:
        """End of the partition window covering ``(shard, t_s)``, if any."""
        until: Optional[float] = None
        for window in self.partitions:
            if window.covers(shard, t_s):
                if until is None or window.end_s > until:
                    until = window.end_s
        return until

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "drops": [
                {"shard_id": f.shard_id, "p": f.p, "direction": f.direction}
                for f in self.drops
            ],
            "duplicates": [
                {"shard_id": f.shard_id, "p": f.p, "direction": f.direction}
                for f in self.duplicates
            ],
            "delays": [
                {
                    "shard_id": f.shard_id,
                    "delay_s": f.delay_s,
                    "jitter_s": f.jitter_s,
                    "direction": f.direction,
                }
                for f in self.delays
            ],
            "reorders": [
                {
                    "shard_id": f.shard_id,
                    "p": f.p,
                    "penalty_s": f.penalty_s,
                    "direction": f.direction,
                }
                for f in self.reorders
            ],
            "partitions": [
                {
                    "start_s": w.start_s,
                    "end_s": w.end_s,
                    "shard_ids": list(w.shard_ids),
                }
                for w in self.partitions
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkFaultPlan":
        if not isinstance(doc, dict):
            raise ConfigError(f"network fault plan must be an object, got {doc!r}")
        unknown = set(doc) - {
            "seed",
            "drops",
            "duplicates",
            "delays",
            "reorders",
            "partitions",
        }
        if unknown:
            raise ConfigError(
                f"network fault plan has unknown keys {sorted(unknown)}"
            )
        try:
            return cls(
                seed=int(doc.get("seed", 0)),
                drops=tuple(
                    LinkDrop(
                        shard_id=int(f["shard_id"]),
                        p=float(f.get("p", 0.1)),
                        direction=str(f.get("direction", "both")),
                    )
                    for f in doc.get("drops", ())
                ),
                duplicates=tuple(
                    LinkDuplicate(
                        shard_id=int(f["shard_id"]),
                        p=float(f.get("p", 0.1)),
                        direction=str(f.get("direction", "both")),
                    )
                    for f in doc.get("duplicates", ())
                ),
                delays=tuple(
                    LinkDelay(
                        shard_id=int(f["shard_id"]),
                        delay_s=float(f.get("delay_s", 0.001)),
                        jitter_s=float(f.get("jitter_s", 0.0)),
                        direction=str(f.get("direction", "both")),
                    )
                    for f in doc.get("delays", ())
                ),
                reorders=tuple(
                    LinkReorder(
                        shard_id=int(f["shard_id"]),
                        p=float(f.get("p", 0.1)),
                        penalty_s=float(f.get("penalty_s", 0.002)),
                        direction=str(f.get("direction", "both")),
                    )
                    for f in doc.get("reorders", ())
                ),
                partitions=tuple(
                    Partition(
                        start_s=float(w["start_s"]),
                        end_s=float(w["end_s"]),
                        shard_ids=tuple(int(s) for s in w.get("shard_ids", ())),
                    )
                    for w in doc.get("partitions", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed network fault plan: {exc}") from exc


# -- delivery policy -----------------------------------------------------------


@dataclass(frozen=True)
class TransportPolicy:
    """How the coordinator times out, retries, and hedges deliveries.

    All durations are modeled seconds.  ``hedge=False`` (the default)
    is pure timeout-retry: a blocked link is retried with bounded
    backoff until it heals or ``max_redeliveries`` exhausts.  With
    ``hedge=True`` the coordinator additionally arms a hedge timer per
    round: if the round's work envelope is not acknowledged within
    ``hedge_timeout_s``, the in-flight round is *stolen* onto the next
    healthy shard while the original delivery keeps trying — the two
    results race, and the loser is absorbed by dedup.
    """

    link_timeout_s: float = 0.002
    backoff_base_s: float = 0.001
    backoff_factor: float = 2.0
    max_backoff_s: float = 0.01
    max_redeliveries: int = 64
    hedge: bool = False
    hedge_timeout_s: float = 0.01
    breaker_cooldown_s: float = 0.02

    def __post_init__(self) -> None:
        if self.link_timeout_s <= 0:
            raise ConfigError(
                f"link_timeout_s must be > 0, got {self.link_timeout_s}"
            )
        if self.backoff_base_s < 0:
            raise ConfigError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff_s < self.backoff_base_s:
            raise ConfigError(
                f"max_backoff_s must be >= backoff_base_s, got "
                f"{self.max_backoff_s} < {self.backoff_base_s}"
            )
        if self.max_redeliveries < 1:
            raise ConfigError(
                f"max_redeliveries must be >= 1, got {self.max_redeliveries}"
            )
        if self.hedge_timeout_s <= 0:
            raise ConfigError(
                f"hedge_timeout_s must be > 0, got {self.hedge_timeout_s}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ConfigError(
                f"breaker_cooldown_s must be > 0, got {self.breaker_cooldown_s}"
            )

    def backoff(self, attempt: int) -> float:
        """Bounded exponential backoff before retransmission ``attempt``."""
        return min(
            self.backoff_base_s * (self.backoff_factor**attempt),
            self.max_backoff_s,
        )


# -- wire records --------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """One typed message on a coordinator<->shard link.

    The ``key`` is the idempotency key — identical across every
    retransmission of the same logical message, which is what makes
    at-least-once delivery safe: the receiver executes the first
    arrival and absorbs the rest.
    """

    key: str
    direction: str
    round_index: int
    shard: int
    attempt: int
    sent_s: float

    @staticmethod
    def make_key(direction: str, round_index: int) -> str:
        return f"{direction}/round-{round_index:04d}"


@dataclass(frozen=True)
class Ack:
    """Receiver acknowledgement of one envelope (by idempotency key)."""

    key: str
    received_s: float
    duplicate: bool = False


@dataclass(frozen=True)
class Delivery:
    """Outcome of delivering one logical message over one link."""

    envelope: Envelope
    ack: Optional[Ack]
    ok: bool
    arrive_s: float
    attempts: int
    gave_up_s: float = 0.0


# -- per-run report ------------------------------------------------------------


@dataclass
class TransportReport:
    """What the network did to one fleet run (JSON-ready via to_dict).

    ``makespan_s`` is the networked analogue of the direct fleet's
    makespan: the latest result *receipt* at the coordinator, minus the
    run's start — network time is on the critical path, as it is on
    real rank deployments.
    """

    start_s: float = 0.0
    #: modeled coordinator receipt time of each round's surviving result
    receipts: dict[int, float] = field(default_factory=dict)
    #: which shard's result survived for each round
    survivors: dict[int, int] = field(default_factory=dict)
    #: per-shard modeled busy seconds (execution only, not wire time)
    shard_busy_s: dict[int, float] = field(default_factory=dict)
    drops: int = 0
    redeliveries: int = 0
    duplicates_absorbed: int = 0
    partition_blocked: int = 0
    steals: int = 0

    @property
    def makespan_s(self) -> float:
        if not self.receipts:
            return 0.0
        return max(self.receipts.values()) - self.start_s

    def to_dict(self) -> dict:
        return {
            "schema": "repro.pim.transport/v1",
            "makespan_s": self.makespan_s,
            "rounds": len(self.receipts),
            "survivors": {str(r): s for r, s in sorted(self.survivors.items())},
            "shard_busy_s": {
                str(k): v for k, v in sorted(self.shard_busy_s.items())
            },
            "drops": self.drops,
            "redeliveries": self.redeliveries,
            "duplicates_absorbed": self.duplicates_absorbed,
            "partition_blocked": self.partition_blocked,
            "steals": self.steals,
        }


# -- the transport -------------------------------------------------------------


class ShardTransport:
    """At-least-once delivery over faulty modeled links, with dedup.

    One instance per :class:`~repro.pim.fleet.FleetCoordinator`; link
    circuit breakers persist across runs (a flaky link stays
    quarantined between runs, exactly like a flaky DPU does), while the
    per-run :class:`TransportReport` and the receiver's dedup table
    reset on :meth:`begin_run`.
    """

    def __init__(
        self,
        shards: int,
        plan: NetworkFaultPlan,
        policy: Optional[TransportPolicy] = None,
        registry: Optional["MetricsRegistry"] = None,
        events: Optional["EventLog"] = None,
    ) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        named = [
            f.shard_id
            for f in (*plan.drops, *plan.duplicates, *plan.delays, *plan.reorders)
        ] + [s for window in plan.partitions for s in window.shard_ids]
        unknown = sorted({s for s in named if not 0 <= s < shards})
        if unknown:
            # a fault on a link the fleet does not have would switch the
            # transport on and then never fire
            raise ConfigError(
                f"network fault plan names shard links {unknown}, but the "
                f"fleet has shards 0..{shards - 1}"
            )
        self.shards = shards
        self.plan = plan
        self.policy = policy if policy is not None else TransportPolicy()
        self.events = events
        from repro.pim.health import CircuitBreaker, HealthPolicy

        breaker_policy = HealthPolicy(
            window=8,
            failure_threshold=3,
            cooldown_s=self.policy.breaker_cooldown_s,
        )
        self.links = {k: CircuitBreaker(breaker_policy) for k in range(shards)}
        self._seen: set[str] = set()
        self._runs = 0
        self._rng_salt = 0
        self.report = TransportReport()
        self._envelopes = self._drops = self._redeliveries = None
        self._duplicates = self._partition_blocked = self._steals = None
        if registry is not None:
            self._envelopes = registry.counter(
                "pim_net_envelopes_total",
                "transport envelopes delivered, by direction",
            )
            self._drops = registry.counter(
                "pim_net_drops_total", "envelopes lost on a link"
            )
            self._redeliveries = registry.counter(
                "pim_net_redeliveries_total",
                "retransmissions after modeled link timeouts",
            )
            self._duplicates = registry.counter(
                "pim_net_duplicates_absorbed_total",
                "duplicate arrivals absorbed by idempotency-key dedup",
            )
            self._partition_blocked = registry.counter(
                "pim_net_partition_blocked_total",
                "delivery attempts blocked by an active partition window",
            )
            self._steals = registry.counter(
                "pim_net_steals_total",
                "in-flight rounds hedged onto another shard",
            )

    # -- run lifecycle -----------------------------------------------------

    def begin_run(self, now: float) -> TransportReport:
        """Reset per-run state (report + dedup table); breakers persist.

        Round indices restart at 0 every run, so the fault RNG is salted
        with a per-run counter — without it, a long-lived transport (the
        serve path runs one ``fleet.run`` per batch) would replay the
        exact same drop/duplicate decisions for every batch.  The first
        run's salt is 0, so a single-run workload is byte-identical to a
        fresh transport and all pinned single-run behaviors hold.
        """
        self._seen = set()
        self._rng_salt = self._runs * 7_919_993
        self._runs += 1
        self.report = TransportReport(start_s=now)
        return self.report

    # -- link health ---------------------------------------------------------

    def link_ok(self, shard: int, now: float) -> bool:
        """Whether a link is eligible for new traffic (breaker not open)."""
        from repro.pim.health import OPEN

        return self.links[shard].state(now) != OPEN

    def link_healthy_fraction(self, now: float) -> float:
        """Fraction of links not currently quarantined — the degraded-
        network backpressure signal the serve dispatcher consumes."""
        ok = sum(1 for k in range(self.shards) if self.link_ok(k, now))
        return ok / self.shards

    def link_states(self, now: float) -> dict[int, str]:
        return {k: self.links[k].state(now) for k in range(self.shards)}

    # -- delivery ------------------------------------------------------------

    def deliver(
        self, direction: str, round_index: int, shard: int, t_send: float
    ) -> Delivery:
        """Deliver one logical message at-least-once over one link.

        Walks the modeled retransmission loop: a partition-blocked or
        dropped attempt waits out the link timeout plus bounded backoff
        and retries (``net_redeliver``), up to
        ``policy.max_redeliveries`` attempts.  Returns a failed
        :class:`Delivery` (``ok=False``) on exhaustion — the *caller*
        decides between stealing the round and raising
        :class:`~repro.errors.TransportError`, because only the caller
        knows whether another shard can take the work.
        """
        if direction not in DIRECTIONS:
            raise ConfigError(
                f"direction must be one of {DIRECTIONS}, got {direction!r}"
            )
        plan, policy = self.plan, self.policy
        key = Envelope.make_key(direction, round_index)
        t = t_send
        envelope = Envelope(key, direction, round_index, shard, 0, t_send)
        for attempt in range(policy.max_redeliveries):
            envelope = Envelope(key, direction, round_index, shard, attempt, t)
            until = plan.partitioned_until(shard, t)
            if until is not None:
                self.report.partition_blocked += 1
                if self._partition_blocked is not None:
                    self._partition_blocked.inc()
                if self.events is not None:
                    from repro.obs.events import NET_PARTITION

                    self.events.publish(
                        NET_PARTITION,
                        t,
                        round=round_index,
                        shard=shard,
                        direction=direction,
                        until_s=until,
                    )
                self.links[shard].record_failure(t)
                t = self._retransmit(envelope, t)
                continue
            if self._fires(shard, round_index, direction, attempt, "drop"):
                self.report.drops += 1
                if self._drops is not None:
                    self._drops.inc()
                if self.events is not None:
                    from repro.obs.events import NET_DROP

                    self.events.publish(
                        NET_DROP,
                        t,
                        round=round_index,
                        shard=shard,
                        direction=direction,
                        attempt=attempt,
                    )
                self.links[shard].record_failure(t)
                t = self._retransmit(envelope, t)
                continue
            arrive = t + self._latency(shard, round_index, direction, attempt)
            self.links[shard].record_success(arrive)
            if self._envelopes is not None:
                self._envelopes.inc(direction=direction)
            duplicate = key in self._seen
            self._seen.add(key)
            if duplicate:
                self._absorb_duplicate()
            if self._fires(shard, round_index, direction, attempt, "duplicate"):
                # the wire delivered a second copy; dedup absorbs it
                self._absorb_duplicate()
            return Delivery(
                envelope=envelope,
                ack=Ack(key=key, received_s=arrive, duplicate=duplicate),
                ok=True,
                arrive_s=arrive,
                attempts=attempt + 1,
            )
        return Delivery(
            envelope=envelope,
            ack=None,
            ok=False,
            arrive_s=t,
            attempts=policy.max_redeliveries,
            gave_up_s=t,
        )

    def _retransmit(self, envelope: Envelope, t: float) -> float:
        """Charge the timeout + backoff for one retransmission."""
        backoff = self.policy.backoff(envelope.attempt)
        self.report.redeliveries += 1
        if self._redeliveries is not None:
            self._redeliveries.inc()
        retry_at = t + self.policy.link_timeout_s + backoff
        if self.events is not None:
            from repro.obs.events import NET_REDELIVER

            self.events.publish(
                NET_REDELIVER,
                retry_at,
                round=envelope.round_index,
                shard=envelope.shard,
                direction=envelope.direction,
                attempt=envelope.attempt + 1,
                backoff_s=backoff,
            )
        return retry_at

    def _fires(
        self, shard: int, round_index: int, direction: str, attempt: int, site: str
    ) -> bool:
        faults = self.plan.drops if site == "drop" else self.plan.duplicates
        for f in faults:
            if f.shard_id == shard and _applies(f.direction, direction):
                roll = _link_rand(
                    self.plan.seed + self._rng_salt,
                    shard, round_index, direction, attempt, site,
                )
                if roll < f.p:
                    return True
        return False

    def _latency(
        self, shard: int, round_index: int, direction: str, attempt: int
    ) -> float:
        latency = 0.0
        for d in self.plan.delays:
            if d.shard_id == shard and _applies(d.direction, direction):
                jitter = 0.0
                if d.jitter_s:
                    jitter = d.jitter_s * _link_rand(
                        self.plan.seed + self._rng_salt,
                        shard, round_index, direction, attempt, "delay",
                    )
                latency += d.delay_s + jitter
        for ro in self.plan.reorders:
            if ro.shard_id == shard and _applies(ro.direction, direction):
                roll = _link_rand(
                    self.plan.seed + self._rng_salt,
                    shard, round_index, direction, attempt, "reorder",
                )
                if roll < ro.p:
                    latency += ro.penalty_s
        return latency

    # -- dedup + stealing ----------------------------------------------------

    def _absorb_duplicate(self) -> None:
        self.report.duplicates_absorbed += 1
        if self._duplicates is not None:
            self._duplicates.inc()

    def absorb_extra_result(self, round_index: int, shard: int) -> None:
        """A steal race produced a second result for ``round_index``;
        the loser is absorbed by dedup, never double-counted."""
        self._absorb_duplicate()

    def note_steal(
        self, round_index: int, from_shard: int, to_shard: int, t_s: float
    ) -> None:
        """Record a hedged re-dispatch of an in-flight round."""
        self.report.steals += 1
        if self._steals is not None:
            self._steals.inc()
        if self.events is not None:
            from repro.obs.events import STEAL

            self.events.publish(
                STEAL,
                t_s,
                round=round_index,
                from_shard=from_shard,
                to_shard=to_shard,
            )
