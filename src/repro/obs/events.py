"""Structured event log: the *why* behind the metric curves.

Counters say a run's healthy capacity dropped; they cannot say which
breaker opened, which launch the watchdog declared dead, or when the
serve layer started routing batches to the CPU.  The :class:`EventLog`
is the bounded, deterministic record of those decisions: the health,
resilience, scheduler, and serve layers publish **typed** events into
the log attached to a :class:`~repro.obs.telemetry.RunTelemetry`, and
the exporters render them as JSONL (schema ``repro.obs.events/v1``) and
as instant-event annotations on the Chrome trace — so a chaos drill's
trace shows *why* capacity dropped, not just that it did.

Determinism contract: events carry **modeled** timestamps (never wall
time) and a monotonically increasing sequence number assigned at
publish; every publisher sits on the host side of the host-parallel
split, so a ``workers=2`` run publishes the byte-identical event stream
a sequential run does (pinned in ``tests/test_obs_events.py``).

The log is bounded (``capacity`` events, oldest dropped first) so a
long-lived service cannot grow it without limit; drops are counted and
surfaced in the header rather than silent.

Event kinds (the closed vocabulary — publishing anything else raises a
typed :class:`~repro.errors.TelemetryError`):

===================  ====================================================
kind                 published by / meaning
===================  ====================================================
``breaker``          :class:`~repro.pim.health.FleetHealth` — a circuit
                     breaker changed state (attrs: ``dpu``, ``old``,
                     ``new``)
``watchdog``         :meth:`~repro.pim.scheduler.BatchScheduler.run` — a
                     launch was declared stalled by watchdog-deadline
                     expiry (attrs: ``dpu``, ``round``)
``journal_replay``   :meth:`~repro.pim.scheduler.BatchScheduler.run` on
                     a resumed fleet run — a journaled round was
                     spliced in instead of executed (attrs: ``round``,
                     ``pairs``)
``fallback``         :class:`~repro.serve.dispatcher.BatchDispatcher` —
                     CPU fallback engaged/disengaged (attrs: ``state``
                     ``"active"``/``"recovered"``, ``healthy_fraction``)
``slo_alert``        :mod:`repro.obs.slo` — a burn-rate alert fired or
                     resolved (attrs: ``state`` ``"fire"``/``"resolve"``,
                     ``window_s``, ``burn``)
``rebalance``        :class:`~repro.pim.fleet.FleetCoordinator` — the
                     active shard set changed and rounds were rebalanced
                     (attrs: ``active``, ``shards``, ``excluded``)
``campaign_cell``    :func:`~repro.qa.campaign.run_campaign` — one
                     ablation x fault-grid cell finished (attrs:
                     ``ablation``, ``fault_point``, ``oracle_agreement``,
                     ``total_seconds``)
``campaign_done``    campaign runner — the full grid completed (attrs:
                     ``cells``, ``ok``)
``net_drop``         :class:`~repro.pim.transport.ShardTransport` — a
                     transport envelope was lost on a link (attrs:
                     ``round``, ``shard``, ``direction``, ``attempt``)
``net_redeliver``    transport — an envelope was retransmitted after a
                     modeled link timeout (attrs: ``round``, ``shard``,
                     ``direction``, ``attempt``, ``backoff_s``)
``net_partition``    transport — a delivery attempt was blocked by an
                     active partition window (attrs: ``round``,
                     ``shard``, ``direction``, ``until_s``)
``steal``            transport/fleet — an in-flight round was hedged
                     onto another shard after its link timed out
                     (attrs: ``round``, ``from_shard``, ``to_shard``)
===================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Union

from repro.errors import ConfigError, TelemetryError

__all__ = [
    "Event",
    "EventLog",
    "EVENT_KINDS",
    "EVENTS_SCHEMA",
    "BREAKER",
    "WATCHDOG",
    "JOURNAL_REPLAY",
    "FALLBACK",
    "SLO_ALERT",
    "REBALANCE",
    "CAMPAIGN_CELL",
    "CAMPAIGN_DONE",
    "NET_DROP",
    "NET_REDELIVER",
    "NET_PARTITION",
    "STEAL",
    "validate_event_log",
]

#: schema tag stamped into the JSONL header.
EVENTS_SCHEMA = "repro.obs.events/v1"

BREAKER = "breaker"
WATCHDOG = "watchdog"
JOURNAL_REPLAY = "journal_replay"
FALLBACK = "fallback"
SLO_ALERT = "slo_alert"
REBALANCE = "rebalance"
CAMPAIGN_CELL = "campaign_cell"
CAMPAIGN_DONE = "campaign_done"
NET_DROP = "net_drop"
NET_REDELIVER = "net_redeliver"
NET_PARTITION = "net_partition"
STEAL = "steal"

#: the closed event vocabulary — the "typed" in "typed event log".
EVENT_KINDS = frozenset(
    {
        BREAKER,
        WATCHDOG,
        JOURNAL_REPLAY,
        FALLBACK,
        SLO_ALERT,
        REBALANCE,
        CAMPAIGN_CELL,
        CAMPAIGN_DONE,
        NET_DROP,
        NET_REDELIVER,
        NET_PARTITION,
        STEAL,
    }
)

#: attribute values may only be JSON scalars (schema stability).
_ATTR_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class Event:
    """One published event: modeled time, kind, sorted scalar attrs."""

    seq: int
    t_s: float
    kind: str
    attrs: tuple  # tuple[tuple[str, scalar], ...], sorted by key

    def to_dict(self) -> dict:
        return {
            "record": "event",
            "seq": self.seq,
            "t_s": self.t_s,
            "kind": self.kind,
            "attrs": {k: v for k, v in self.attrs},
        }


class EventLog:
    """Bounded, append-only, deterministic event record.

    ``publish`` validates the kind against :data:`EVENT_KINDS` and the
    attribute values against the JSON-scalar contract, assigns the next
    sequence number, and appends.  Past ``capacity`` events the oldest
    entry is dropped (and counted) — sequence numbers keep increasing,
    so a reader can tell a truncated log from a complete one.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: List[Event] = []
        self._next_seq = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    # -- publishing --------------------------------------------------------

    def publish(self, kind: str, t_s: float, **attrs: object) -> Event:
        """Append one typed event at modeled time ``t_s``."""
        if kind not in EVENT_KINDS:
            raise TelemetryError(
                f"unknown event kind {kind!r}; known kinds: "
                f"{sorted(EVENT_KINDS)}"
            )
        if t_s < 0:
            raise TelemetryError(f"event time must be >= 0, got {t_s}")
        for key, value in attrs.items():
            if not isinstance(value, _ATTR_TYPES):
                raise TelemetryError(
                    f"event attr {key!r} must be a JSON scalar, "
                    f"got {type(value).__name__}"
                )
        event = Event(
            seq=self._next_seq,
            t_s=float(t_s),
            kind=kind,
            attrs=tuple(sorted((str(k), v) for k, v in attrs.items())),
        )
        self._next_seq += 1
        self._events.append(event)
        if len(self._events) > self.capacity:
            self._events.pop(0)
            self.dropped += 1
        return event

    # -- queries -----------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Events in publish order, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        if kind not in EVENT_KINDS:
            raise TelemetryError(f"unknown event kind {kind!r}")
        return [e for e in self._events if e.kind == kind]

    def kinds_seen(self) -> dict:
        """Event count per kind (sorted, for summaries)."""
        out: dict = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return {k: out[k] for k in sorted(out)}

    # -- documents ---------------------------------------------------------

    def header(self) -> dict:
        return {
            "record": "header",
            "schema": EVENTS_SCHEMA,
            "capacity": self.capacity,
            "events": len(self._events),
            "dropped": self.dropped,
            "kinds": self.kinds_seen(),
        }

    def to_records(self) -> List[dict]:
        return [self.header()] + [e.to_dict() for e in self._events]

    def to_jsonl(self) -> str:
        return (
            "\n".join(json.dumps(r, sort_keys=True) for r in self.to_records())
            + "\n"
        )

    def write(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_jsonl(), encoding="utf-8")


def validate_event_log(
    source: Union[str, Iterable[Mapping]],
) -> dict:
    """Check an event-log JSONL document; returns its header.

    Verifies the header schema, that every event record carries a known
    kind, that sequence numbers strictly increase, and that timestamps
    are non-negative.  Accepts a path or pre-parsed records.
    """
    from pathlib import Path

    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        try:
            records = [json.loads(line) for line in text.splitlines() if line]
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"event log is not valid JSONL: {exc}") from exc
    else:
        records = list(source)
    if not records:
        raise TelemetryError("event log needs at least a header")
    header, *body = records
    if header.get("record") != "header" or header.get("schema") != EVENTS_SCHEMA:
        raise TelemetryError(
            f"bad header: expected schema {EVENTS_SCHEMA!r}, got {header!r}"
        )
    if header.get("events") != len(body):
        raise TelemetryError(
            f"header says {header.get('events')!r} events, found {len(body)}"
        )
    last_seq = -1
    for i, rec in enumerate(body):
        where = f"event[{i}]"
        if rec.get("record") != "event":
            raise TelemetryError(f"{where}: not an event record: {rec!r}")
        if rec.get("kind") not in EVENT_KINDS:
            raise TelemetryError(f"{where}: unknown kind {rec.get('kind')!r}")
        seq = rec.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            raise TelemetryError(
                f"{where}: seq {seq!r} does not increase past {last_seq}"
            )
        last_seq = seq
        t = rec.get("t_s")
        if not isinstance(t, (int, float)) or t < 0:
            raise TelemetryError(f"{where}: t_s must be a number >= 0")
        if not isinstance(rec.get("attrs"), dict):
            raise TelemetryError(f"{where}: attrs must be an object")
    return header
