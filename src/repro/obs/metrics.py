"""Run-level metrics: labeled counters, gauges, and histograms.

A dependency-free miniature of the Prometheus client-library data model,
sized for the simulator's needs:

* a :class:`MetricsRegistry` owns metric *families* (one per metric
  name); each family owns labeled *series* (one per distinct label set);
* rendering is deterministic — families sort by name, series by label
  items — so text and JSON output are directly comparable across runs
  and usable as golden test fixtures;
* a registry can :meth:`~MetricsRegistry.snapshot` itself into plain
  picklable data and :meth:`~MetricsRegistry.merge_snapshot` another
  registry's snapshot back in.  Merging is commutative and associative
  for counters and histograms (sums) and uses ``max`` for gauges, so
  folding snapshots in *any* order yields the same registry — the
  property a fleet's shard-pool workers and federated shard registries
  rely on.

Nothing here reads a clock; time belongs to
:class:`repro.obs.profiler.Profiler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.errors import CardinalityError, TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_MAX_SERIES_PER_FAMILY",
]

#: log-spaced bucket bounds suited to modeled section times (seconds).
DEFAULT_SECONDS_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0
)

#: default label-cardinality cap per family: generous enough for the
#: fleet-scale labels we legitimately use (per-DPU, per-section, per
#: breaker state — a 2560-DPU fleet stays well under it only via the
#: histogram/summary path, so per-DPU *label* use still fits), but a
#: hard stop against per-request label mistakes.
DEFAULT_MAX_SERIES_PER_FAMILY = 4096

_NAME_OK = set("abcdefghijklmnopqrstuvwxyz_:0123456789")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(
        c not in _NAME_OK for c in name.lower()
    ) or name != name.lower():
        raise TelemetryError(
            f"metric name must be lower_snake_case identifier, got {name!r}"
        )
    return name


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable, sorted form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(v: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


class Counter:
    """Monotonically increasing sum (one labeled series)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-set value (one labeled series); merges via ``max``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Cumulative-bucket histogram (one labeled series)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        """Counts as Prometheus renders them: cumulative per ``le``."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


@dataclass
class MetricFamily:
    """All series of one metric name."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str = ""
    buckets: Optional[tuple[float, ...]] = None  # histograms only
    series: dict = field(default_factory=dict)  # label key -> metric object
    #: label-cardinality cap; creating a series past it raises
    #: :class:`~repro.errors.CardinalityError` instead of growing forever.
    max_series: int = DEFAULT_MAX_SERIES_PER_FAMILY

    def labels(self, **labels: object):
        """The series for ``labels`` (created on first use)."""
        key = _label_key(labels)
        metric = self.series.get(key)
        if metric is None:
            if len(self.series) >= self.max_series:
                raise CardinalityError(
                    f"metric {self.name!r} would exceed its label-cardinality "
                    f"cap of {self.max_series} series; a label is probably "
                    f"carrying unbounded values (offending label set: "
                    f"{dict(key)!r})"
                )
            if self.kind == "counter":
                metric = Counter()
            elif self.kind == "gauge":
                metric = Gauge()
            else:
                metric = Histogram(self.buckets or DEFAULT_SECONDS_BUCKETS)
            self.series[key] = metric
        return metric

    # convenience for the common no-label case -------------------------------
    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)

    def set(self, value: float, **labels: object) -> None:
        self.labels(**labels).set(value)

    def observe(self, value: float, **labels: object) -> None:
        self.labels(**labels).observe(value)

    def value(self, **labels: object) -> float:
        """Current value of one series (0 if the series never existed)."""
        metric = self.series.get(_label_key(labels))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            return metric.sum
        return metric.value


class MetricsRegistry:
    """Ordered collection of metric families with deterministic output.

    ``max_series_per_family`` is the label-cardinality guard: every
    family registered through this registry refuses (with a typed
    :class:`~repro.errors.CardinalityError`) to create more distinct
    label sets than the cap, so a per-request label mistake fails fast
    instead of silently turning the registry into a memory leak.
    """

    def __init__(
        self, max_series_per_family: int = DEFAULT_MAX_SERIES_PER_FAMILY
    ) -> None:
        if max_series_per_family < 1:
            raise TelemetryError(
                f"max_series_per_family must be >= 1, "
                f"got {max_series_per_family}"
            )
        self._families: dict[str, MetricFamily] = {}
        self.max_series_per_family = max_series_per_family

    # -- registration --------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        _check_name(name)
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise TelemetryError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"cannot re-register as {kind}"
                )
            return fam
        fam = MetricFamily(
            name=name,
            kind=kind,
            help=help,
            buckets=tuple(buckets) if buckets is not None else None,
            max_series=self.max_series_per_family,
        )
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._register(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._register(name, "gauge", help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> MetricFamily:
        return self._register(name, "histogram", help, buckets=buckets)

    def families(self) -> Iterable[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """Plain picklable data capturing every family and series.

        The format is stable (sorted names / labels) so two registries
        with the same contents produce byte-identical snapshots.
        """
        doc: dict = {"schema": "repro.obs.metrics/v1", "families": []}
        for fam in self.families():
            entry: dict = {
                "name": fam.name,
                "kind": fam.kind,
                "help": fam.help,
                "series": [],
            }
            if fam.kind == "histogram":
                entry["buckets"] = list(fam.buckets or DEFAULT_SECONDS_BUCKETS)
            for key in sorted(fam.series):
                metric = fam.series[key]
                s: dict = {"labels": {k: v for k, v in key}}
                if isinstance(metric, Histogram):
                    s["counts"] = list(metric.counts)
                    s["sum"] = metric.sum
                    s["count"] = metric.count
                else:
                    s["value"] = metric.value
                entry["series"].append(s)
            doc["families"].append(entry)
        return doc

    def merge_snapshot(self, snap: Mapping) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram cells add; gauges keep the max of the two
        values (the only order-independent choice for a "level" metric).
        """
        if snap.get("schema") != "repro.obs.metrics/v1":
            raise TelemetryError(
                f"unknown metrics snapshot schema: {snap.get('schema')!r}"
            )
        for entry in snap["families"]:
            fam = self._register(
                entry["name"],
                entry["kind"],
                entry.get("help", ""),
                buckets=entry.get("buckets"),
            )
            for s in entry["series"]:
                metric = fam.labels(**s["labels"])
                if fam.kind == "histogram":
                    counts = s["counts"]
                    if len(counts) != len(metric.counts):
                        raise TelemetryError(
                            f"histogram {fam.name!r}: bucket count mismatch "
                            f"({len(counts)} vs {len(metric.counts)})"
                        )
                    for i, c in enumerate(counts):
                        metric.counts[i] += c
                    metric.sum += s["sum"]
                    metric.count += s["count"]
                elif fam.kind == "counter":
                    metric.value += s["value"]
                else:  # gauge
                    metric.value = max(metric.value, s["value"])

    def diff(self, before: Mapping) -> dict:
        """What changed since a :meth:`snapshot` — snapshot-shaped delta.

        Counters and histogram cells subtract the earlier values (a
        series absent from ``before`` counts from zero); gauges report
        their *current* value, because a level has no meaningful delta.
        Series and families untouched since ``before`` are omitted, so
        the result is exactly the attribution a bench scenario wants:
        "these counters, moved by this much, during this scenario".
        """
        if before.get("schema") != "repro.obs.metrics/v1":
            raise TelemetryError(
                f"unknown metrics snapshot schema: {before.get('schema')!r}"
            )
        prior: dict = {}
        for entry in before["families"]:
            fam_map = prior.setdefault(entry["name"], {})
            for s in entry["series"]:
                fam_map[_label_key(s["labels"])] = s
        doc: dict = {"schema": "repro.obs.metrics/v1", "families": []}
        for fam in self.families():
            fam_prior = prior.get(fam.name, {})
            entry: dict = {
                "name": fam.name,
                "kind": fam.kind,
                "help": fam.help,
                "series": [],
            }
            if fam.kind == "histogram":
                entry["buckets"] = list(fam.buckets or DEFAULT_SECONDS_BUCKETS)
            for key in sorted(fam.series):
                metric = fam.series[key]
                old = fam_prior.get(key)
                s: dict = {"labels": {k: v for k, v in key}}
                if isinstance(metric, Histogram):
                    old_counts = old["counts"] if old else [0] * len(metric.counts)
                    if len(old_counts) != len(metric.counts):
                        raise TelemetryError(
                            f"histogram {fam.name!r}: bucket count mismatch "
                            f"({len(old_counts)} vs {len(metric.counts)})"
                        )
                    counts = [c - o for c, o in zip(metric.counts, old_counts)]
                    s["counts"] = counts
                    s["sum"] = metric.sum - (old["sum"] if old else 0.0)
                    s["count"] = metric.count - (old["count"] if old else 0)
                    if s["count"] == 0 and not any(counts) and s["sum"] == 0.0:
                        continue
                elif fam.kind == "counter":
                    s["value"] = metric.value - (old["value"] if old else 0.0)
                    if s["value"] == 0.0:
                        continue
                else:  # gauge: a level, not a rate — report where it sits now
                    s["value"] = metric.value
                    if old is not None and old["value"] == metric.value:
                        continue
                entry["series"].append(s)
            if entry["series"]:
                doc["families"].append(entry)
        return doc

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
        if not key:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in key)
        return "{" + inner + "}"

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, deterministically ordered."""
        lines: list[str] = []
        for fam in self.families():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for key in sorted(fam.series):
                metric = fam.series[key]
                if isinstance(metric, Histogram):
                    cumulative = metric.cumulative()
                    bounds = list(metric.buckets) + [float("inf")]
                    for bound, c in zip(bounds, cumulative):
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        bkey = key + (("le", le),)
                        lines.append(
                            f"{fam.name}_bucket{self._render_labels(bkey)} {c}"
                        )
                    lines.append(
                        f"{fam.name}_sum{self._render_labels(key)} "
                        f"{_format_value(metric.sum)}"
                    )
                    lines.append(
                        f"{fam.name}_count{self._render_labels(key)} {metric.count}"
                    )
                else:
                    lines.append(
                        f"{fam.name}{self._render_labels(key)} "
                        f"{_format_value(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-ready rendering (same stable layout as :meth:`snapshot`)."""
        return self.snapshot()
