"""Perf ledger: registered bench scenarios, schema-versioned records,
and a regression gate.

The repo's perf claims are registered scenarios here, gated against a
committed baseline so that a change cannot silently give back a number
an earlier change won.  This module has three parts:

* **scenarios** — benchmark functions registered with the
  :func:`scenario` decorator.  Each runs a pinned-seed workload on the
  **modeled clock** and returns a :class:`ScenarioResult`; gated metrics
  (pairs/sec, modeled seconds, latency percentiles) are pure functions
  of the configuration, so they are bit-stable across machines, worker
  counts, and CPU load.  Wall-clock observations (engine speedups, pool
  scaling) ride along in the non-gated ``info`` dict.
* **ledger** — ``repro bench run`` appends one ``repro.obs.bench/v1``
  record per scenario to ``BENCH_ledger.json`` at the repo root: the
  scenario name, its config and config fingerprint, the gated metrics,
  per-scenario counter attribution (via
  :meth:`~repro.obs.metrics.MetricsRegistry.diff`), plus git-rev and
  host facts for provenance (never gated).
* **gate** — ``repro bench compare`` diffs the latest record per
  scenario against a committed baseline and exits non-zero when a
  gated metric regresses past its threshold (default: >10% modeled
  throughput drop, >10% modeled p99 growth), when a baseline scenario
  is missing from the ledger, or when config fingerprints disagree
  (comparing different configurations is not a regression signal, it
  is a category error — :class:`~repro.errors.LedgerError`).

See ``docs/perf-ledger.md`` for the record schema and a walkthrough of
adding a scenario.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import LedgerError

__all__ = [
    "LEDGER_SCHEMA",
    "ScenarioResult",
    "scenario",
    "scenario_names",
    "run_scenarios",
    "config_fingerprint",
    "make_record",
    "validate_record",
    "load_ledger",
    "append_records",
    "latest_by_scenario",
    "compare",
    "GateFailure",
]

#: schema tag stamped into every ledger record.
LEDGER_SCHEMA = "repro.obs.bench/v1"

#: profiles a scenario must support: ``quick`` is CI-safe on one CPU
#: (seconds, not minutes), ``full`` is the overnight shape.
PROFILES = ("quick", "full")

#: record fields the regression gate reads (everything else — git rev,
#: host facts, wall-clock info — is provenance, never gated).
GATED_FIELDS = (
    "pairs_per_second",
    "total_seconds",
    "kernel_seconds",
    "latency_p50_s",
    "latency_p90_s",
    "latency_p99_s",
)

_REQUIRED_KEYS = frozenset(
    {"schema", "scenario", "profile", "config", "config_fingerprint"}
    | set(GATED_FIELDS)
    | {"git_rev", "host", "counters", "info"}
)


@dataclass
class ScenarioResult:
    """One scenario run's measurements, pre-provenance.

    ``pairs_per_second`` and the modeled seconds are **modeled-clock**
    quantities (deterministic, gated); ``info`` holds wall-clock
    observations and any scenario-specific extras (reported, not
    gated); ``counters`` is the per-scenario counter attribution the
    registry diff produced.
    """

    scenario: str
    config: dict
    pairs_per_second: float
    total_seconds: float
    kernel_seconds: float
    latency_p50_s: float
    latency_p90_s: float
    latency_p99_s: float
    info: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


_SCENARIOS: Dict[str, Callable[[str], ScenarioResult]] = {}


def scenario(name: str):
    """Register a bench scenario under ``name``.

    The decorated function takes one argument — the profile, ``"quick"``
    or ``"full"`` — and returns a :class:`ScenarioResult`.
    """

    def wrap(fn: Callable[[str], ScenarioResult]):
        if name in _SCENARIOS:
            raise LedgerError(f"scenario {name!r} registered twice")
        _SCENARIOS[name] = fn
        return fn

    return wrap


def scenario_names() -> List[str]:
    """Registered scenario names, sorted (importing the catalog)."""
    import repro.obs.scenarios  # noqa: F401 — registration side effect

    return sorted(_SCENARIOS)


def config_fingerprint(config: Mapping) -> str:
    """sha256 over the canonical JSON of a scenario config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def counters_from_diff(diff_doc: Mapping) -> dict:
    """Flatten a registry diff into ``{counter_name: total}``.

    Only counter families survive (gauges are levels, histograms are
    distributions — neither sums meaningfully into one attribution
    number); series of one family sum across label sets.
    """
    out: dict = {}
    for fam in diff_doc.get("families", ()):
        if fam.get("kind") != "counter":
            continue
        total = sum(s.get("value", 0.0) for s in fam.get("series", ()))
        if total:
            out[fam["name"]] = total
    return {k: out[k] for k in sorted(out)}


def _git_rev() -> str:
    """Short commit hash, with ``-dirty`` when tracked files differ from it."""
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # pragma: no cover
        pass
    return "unknown"


def _host_facts() -> dict:
    import os

    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def make_record(result: ScenarioResult, profile: str) -> dict:
    """Stamp a scenario result into a full ``repro.obs.bench/v1`` record."""
    return {
        "schema": LEDGER_SCHEMA,
        "scenario": result.scenario,
        "profile": profile,
        "config": result.config,
        "config_fingerprint": config_fingerprint(result.config),
        "pairs_per_second": result.pairs_per_second,
        "total_seconds": result.total_seconds,
        "kernel_seconds": result.kernel_seconds,
        "latency_p50_s": result.latency_p50_s,
        "latency_p90_s": result.latency_p90_s,
        "latency_p99_s": result.latency_p99_s,
        "counters": result.counters,
        "info": result.info,
        "git_rev": _git_rev(),
        "host": _host_facts(),
    }


def validate_record(record: Mapping) -> None:
    """Schema-check one ledger record; raises :class:`LedgerError`."""
    if not isinstance(record, Mapping):
        raise LedgerError(f"ledger record must be an object, got {record!r}")
    if record.get("schema") != LEDGER_SCHEMA:
        raise LedgerError(
            f"unknown ledger schema {record.get('schema')!r} "
            f"(expected {LEDGER_SCHEMA!r})"
        )
    missing = _REQUIRED_KEYS - set(record.keys())
    if missing:
        raise LedgerError(
            f"ledger record for {record.get('scenario')!r} missing keys "
            f"{sorted(missing)}"
        )
    if record.get("profile") not in PROFILES:
        raise LedgerError(
            f"ledger record profile must be one of {PROFILES}, "
            f"got {record.get('profile')!r}"
        )
    for key in GATED_FIELDS:
        value = record[key]
        if not isinstance(value, (int, float)) or value < 0:
            raise LedgerError(
                f"{record['scenario']}: {key} must be a number >= 0, "
                f"got {value!r}"
            )
    if record["config_fingerprint"] != config_fingerprint(record["config"]):
        raise LedgerError(
            f"{record['scenario']}: config_fingerprint does not match the "
            f"embedded config (expected "
            f"{config_fingerprint(record['config'])!r})"
        )


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    profile: str = "quick",
    progress: Optional[Callable[[str], None]] = None,
) -> List[dict]:
    """Run scenarios and return their stamped ledger records."""
    if profile not in PROFILES:
        raise LedgerError(f"profile must be one of {PROFILES}, got {profile!r}")
    available = scenario_names()
    chosen = list(names) if names else available
    unknown = sorted(set(chosen) - set(available))
    if unknown:
        raise LedgerError(
            f"unknown scenario(s) {unknown}; registered: {available}"
        )
    records = []
    for name in chosen:
        if progress is not None:
            progress(name)
        result = _SCENARIOS[name](profile)
        if result.scenario != name:
            raise LedgerError(
                f"scenario {name!r} returned a result labeled "
                f"{result.scenario!r}"
            )
        record = make_record(result, profile)
        validate_record(record)
        records.append(record)
    return records


# -- ledger file -----------------------------------------------------------


def load_ledger(path: Union[str, Path]) -> List[dict]:
    """Read and schema-validate a ledger (or baseline) JSON file."""
    p = Path(path)
    if not p.exists():
        return []
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LedgerError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise LedgerError(f"{p} must hold a JSON list of ledger records")
    for record in data:
        validate_record(record)
    return data


def append_records(path: Union[str, Path], records: Sequence[Mapping]) -> int:
    """Append records to a ledger file; returns its new length."""
    existing = load_ledger(path)
    for record in records:
        validate_record(record)
    existing.extend(dict(r) for r in records)
    Path(path).write_text(
        json.dumps(existing, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(existing)


def latest_by_scenario(records: Sequence[Mapping]) -> Dict[str, dict]:
    """The last-appended record per scenario name."""
    out: Dict[str, dict] = {}
    for record in records:
        out[record["scenario"]] = dict(record)
    return out


# -- the regression gate ---------------------------------------------------


@dataclass(frozen=True)
class GateFailure:
    """One named regression: scenario, metric, and the numbers."""

    scenario: str
    metric: str
    baseline: float
    current: float
    threshold: float

    def __str__(self) -> str:
        direction = (
            "dropped" if self.metric == "pairs_per_second" else "grew"
        )
        return (
            f"{self.scenario}: {self.metric} {direction} past the "
            f"{self.threshold:.0%} threshold "
            f"(baseline {self.baseline:.6g} -> current {self.current:.6g})"
        )


def compare(
    ledger: Sequence[Mapping],
    baseline: Sequence[Mapping],
    max_throughput_drop: float = 0.10,
    max_latency_rise: float = 0.10,
) -> List[GateFailure]:
    """Gate the latest ledger records against a baseline.

    For every baseline scenario: the ledger must hold a record for it,
    with the same config fingerprint (:class:`LedgerError` otherwise —
    different configs are incomparable, not regressed), and the gated
    metrics must not regress past the thresholds:

    * ``pairs_per_second`` must not drop more than ``max_throughput_drop``;
    * ``total_seconds``, ``kernel_seconds``, and the latency
      percentiles must not grow more than ``max_latency_rise``.

    Returns the (possibly empty) failure list, most-regressed first.
    """
    if not 0 <= max_throughput_drop < 1:
        raise LedgerError(
            f"max_throughput_drop must be in [0, 1), got {max_throughput_drop}"
        )
    if max_latency_rise < 0:
        raise LedgerError(
            f"max_latency_rise must be >= 0, got {max_latency_rise}"
        )
    current = latest_by_scenario(ledger)
    failures: List[GateFailure] = []
    for name, base in sorted(latest_by_scenario(baseline).items()):
        latest = current.get(name)
        if latest is None:
            raise LedgerError(
                f"baseline scenario {name!r} has no record in the ledger — "
                f"run `repro bench run` first"
            )
        if latest["config_fingerprint"] != base["config_fingerprint"]:
            raise LedgerError(
                f"{name}: config fingerprint {latest['config_fingerprint']} "
                f"does not match the baseline's "
                f"{base['config_fingerprint']} — the scenario configuration "
                f"changed; refresh the baseline instead of comparing"
            )
        # throughput: lower is worse
        if base["pairs_per_second"] > 0:
            drop = 1.0 - latest["pairs_per_second"] / base["pairs_per_second"]
            if drop > max_throughput_drop:
                failures.append(
                    GateFailure(
                        scenario=name,
                        metric="pairs_per_second",
                        baseline=base["pairs_per_second"],
                        current=latest["pairs_per_second"],
                        threshold=max_throughput_drop,
                    )
                )
        # modeled seconds: higher is worse
        for metric in (
            "total_seconds",
            "kernel_seconds",
            "latency_p50_s",
            "latency_p90_s",
            "latency_p99_s",
        ):
            if base[metric] <= 0:
                continue
            rise = latest[metric] / base[metric] - 1.0
            if rise > max_latency_rise:
                failures.append(
                    GateFailure(
                        scenario=name,
                        metric=metric,
                        baseline=base[metric],
                        current=latest[metric],
                        threshold=max_latency_rise,
                    )
                )
    failures.sort(
        key=lambda f: (
            -abs(
                (f.current - f.baseline) / f.baseline if f.baseline else 0.0
            ),
            f.scenario,
            f.metric,
        )
    )
    return failures
