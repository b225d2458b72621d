"""Write-ahead journal + checkpoint for crash-resumable batch runs.

A host crash mid-batch today loses every completed round; at the
paper's scale (millions of pairs over thousands of DPUs) that is hours
of modeled device time.  This module gives fleet runs
(:class:`~repro.pim.fleet.FleetCoordinator`) durable, resumable rounds:

* each shard's :class:`~repro.pim.scheduler.BatchScheduler` opens a
  :class:`RunJournal` before its first round
  (:meth:`~repro.pim.scheduler.BatchScheduler.open_journal`) and its
  round step appends one record per completed round — admitted-workload
  fingerprint, per-round placement, the full gathered result set
  (digest-keyed by the workload), and the round's recovery outcome;
* a crashed run is resumed with
  :meth:`~repro.pim.fleet.FleetCoordinator.resume_run`, which replays
  the journaled rounds *idempotently* (no device work, no re-shifting,
  no double-counted recovery) and executes only the incomplete
  remainder — the final :class:`~repro.pim.fleet.FleetRun` is
  byte-identical to an uninterrupted run's, a guarantee the test suite
  pins at ``workers=0`` and ``workers=2``.  A one-shard run journals to
  one file; a multi-shard run to one file per shard plus a manifest.

File format (``repro.pim.journal/v1``): JSONL.  Line 1 is the header —
schema tag plus a :func:`workload_fingerprint` of everything that
determines the run's outcome (pair digest, round size, system shape,
fault plan, retry policy, health policy).  Each subsequent line is one
``{"type": "round", "index": k, "start": ..., "size": ..., "result": ...}``
record carrying a fully serialized :class:`~repro.pim.system.PimRunResult`
(floats round-trip exactly through JSON's shortest-repr encoding, so
replayed timings are bit-equal).  Appends are atomic at record
granularity: the journal rewrites to a temp file in the same directory
and ``os.replace``\\ s it over the old one, so a crash leaves either the
old or the new journal, never a torn line — and a torn final line from
some other writer is tolerated (ignored) at load.

Resume refuses to mix workloads: a journal whose fingerprint does not
match the offered workload/configuration raises
:class:`~repro.errors.JournalError` instead of silently splicing
results from a different run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.core.cigar import Cigar
from repro.errors import JournalError
from repro.pim.dpu import DpuKernelStats
from repro.pim.faults import FaultPlan, RecoveryReport, RetryPolicy
from repro.pim.system import PimRunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.generator import ReadPair
    from repro.pim.health import HealthPolicy

__all__ = [
    "JOURNAL_SCHEMA",
    "RunJournal",
    "workload_fingerprint",
    "result_to_dict",
    "result_from_dict",
]

JOURNAL_SCHEMA = "repro.pim.journal/v1"


def workload_fingerprint(
    pairs: "list[ReadPair]",
    pairs_per_round: int,
    num_dpus: int,
    tasklets: int,
    metadata_policy: str,
    collect_results: bool,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    health_policy: Optional["HealthPolicy"] = None,
) -> dict:
    """Digest of everything that determines a journaled run's outcome.

    Two runs with equal fingerprints are guaranteed to produce
    byte-identical rounds (the simulator is deterministic in these
    inputs), which is exactly the property resume relies on when it
    splices journaled rounds into a fresh run.  ``workers`` is
    deliberately absent: parallel and sequential execution are
    result-identical, so a run journaled at ``workers=2`` may resume at
    ``workers=0`` and vice versa.  ``shards`` is absent for the same
    reason — placement never changes results — and lives in the fleet
    manifest (``repro.pim.fleet/v1``) instead, where
    :meth:`~repro.pim.fleet.FleetCoordinator.resume_run` checks it
    explicitly; a fleet run journaled at any worker count resumes at
    any other.
    """
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(pair.pattern.encode())
        digest.update(b"\t")
        digest.update(pair.text.encode())
        digest.update(b"\n")
    doc = {
        "pairs_digest": digest.hexdigest(),
        "num_pairs": len(pairs),
        "pairs_per_round": pairs_per_round,
        "num_dpus": num_dpus,
        "tasklets": tasklets,
        "metadata_policy": metadata_policy,
        "collect_results": bool(collect_results),
        "fault_plan": fault_plan.to_dict() if fault_plan is not None else None,
        "retry_policy": asdict(retry_policy) if retry_policy is not None else None,
        "health_policy": asdict(health_policy) if health_policy is not None else None,
    }
    # Normalise through JSON so a fingerprint loaded back from a journal
    # compares equal to a freshly computed one (tuples become lists).
    return json.loads(json.dumps(doc))


# -- PimRunResult serialization ------------------------------------------------


def result_to_dict(run: PimRunResult) -> dict:
    """JSON-ready round checkpoint; inverse of :func:`result_from_dict`.

    List orderings are preserved verbatim (``results`` arrives in the
    deterministic dpu-then-local merge order; ``regions`` keeps dict
    insertion order) so the reconstruction is byte-identical, not just
    set-equal.
    """
    return {
        "num_pairs": run.num_pairs,
        "pairs_simulated": run.pairs_simulated,
        "tasklets": run.tasklets,
        "metadata_policy": run.metadata_policy,
        "kernel_seconds": run.kernel_seconds,
        "transfer_in_seconds": run.transfer_in_seconds,
        "transfer_out_seconds": run.transfer_out_seconds,
        "launch_seconds": run.launch_seconds,
        "bytes_in": run.bytes_in,
        "bytes_out": run.bytes_out,
        "per_dpu": [asdict(s) for s in run.per_dpu],
        "results": [
            [index, score, None if cigar is None else str(cigar)]
            for index, score, cigar in run.results
        ],
        "regions": [[index, p, t] for index, (p, t) in run.regions.items()],
        "scale_factor": run.scale_factor,
        "recovery": run.recovery.to_dict() if run.recovery is not None else None,
        "active_dpus": None if run.active_dpus is None else list(run.active_dpus),
    }


def result_from_dict(data: dict) -> PimRunResult:
    """Rebuild a round's :class:`PimRunResult` from its journal record."""
    try:
        return PimRunResult(
            num_pairs=int(data["num_pairs"]),
            pairs_simulated=int(data["pairs_simulated"]),
            tasklets=int(data["tasklets"]),
            metadata_policy=str(data["metadata_policy"]),
            kernel_seconds=float(data["kernel_seconds"]),
            transfer_in_seconds=float(data["transfer_in_seconds"]),
            transfer_out_seconds=float(data["transfer_out_seconds"]),
            launch_seconds=float(data["launch_seconds"]),
            bytes_in=int(data["bytes_in"]),
            bytes_out=int(data["bytes_out"]),
            per_dpu=[DpuKernelStats(**s) for s in data["per_dpu"]],
            results=[
                (
                    int(index),
                    int(score),
                    None if cigar is None else Cigar.from_string(cigar),
                )
                for index, score, cigar in data["results"]
            ],
            regions={
                int(index): (int(p), int(t)) for index, p, t in data["regions"]
            },
            scale_factor=float(data["scale_factor"]),
            recovery=(
                RecoveryReport.from_dict(data["recovery"])
                if data["recovery"] is not None
                else None
            ),
            active_dpus=(
                None
                if data["active_dpus"] is None
                else tuple(int(d) for d in data["active_dpus"])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"malformed round record: {exc}") from exc


# -- the journal file ----------------------------------------------------------


class RunJournal:
    """One run's JSONL journal: a header line plus per-round records.

    The whole journal is kept in memory (a run has at most a few dozen
    rounds) and rewritten atomically on every append: serialize to a
    temp file alongside the target, ``os.replace`` over it.  Loading
    tolerates a torn trailing line (dropped with the partial round it
    described) but raises :class:`~repro.errors.JournalError` for a
    missing/foreign header or records that do not parse.
    """

    def __init__(self, path: Union[str, Path], header: dict) -> None:
        self.path = Path(path)
        self.header = header
        self._records: list[dict] = []

    # -- constructors -----------------------------------------------------

    @classmethod
    def create(cls, path: Union[str, Path], fingerprint: dict) -> "RunJournal":
        """Start a fresh journal (truncating any previous file at ``path``)."""
        journal = cls(path, {"schema": JOURNAL_SCHEMA, "fingerprint": fingerprint})
        journal._write()
        return journal

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunJournal":
        """Load an existing journal, dropping a torn trailing line."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc
        lines = text.splitlines()
        if not lines:
            raise JournalError(f"journal {path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise JournalError(f"journal {path} has a malformed header") from exc
        if not isinstance(header, dict) or header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {path} is not a {JOURNAL_SCHEMA} document "
                f"(got {header.get('schema') if isinstance(header, dict) else header!r})"
            )
        journal = cls(path, header)
        for n, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if n == len(lines):
                    break  # torn trailing line: the crash interrupted a write
                raise JournalError(f"journal {path}: malformed record at line {n}")
            if not isinstance(record, dict) or record.get("type") != "round":
                raise JournalError(
                    f"journal {path}: unexpected record at line {n}"
                )
            journal._records.append(record)
        return journal

    # -- contents ---------------------------------------------------------

    @property
    def fingerprint(self) -> dict:
        return self.header.get("fingerprint", {})

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def rounds(self) -> dict[int, dict]:
        """Completed rounds by index (first record per index wins, so a
        replayed-and-reappended round can never diverge)."""
        out: dict[int, dict] = {}
        for record in self._records:
            index = int(record["index"])
            if index not in out:
                out[index] = record
        return out

    def append_round(
        self, index: int, start: int, size: int, result: PimRunResult
    ) -> None:
        """Durably record one completed round (atomic rewrite)."""
        self._records.append(
            {
                "type": "round",
                "index": index,
                "start": start,
                "size": size,
                "result": result_to_dict(result),
            }
        )
        self._write()

    def validate_fingerprint(self, expected: dict) -> None:
        """Refuse to resume against a different workload/configuration."""
        if self.fingerprint != expected:
            mismatched = sorted(
                key
                for key in set(self.fingerprint) | set(expected)
                if self.fingerprint.get(key) != expected.get(key)
            )
            raise JournalError(
                "journal fingerprint does not match the offered workload/"
                f"configuration (differs in: {', '.join(mismatched) or 'shape'})"
            )

    # -- disk -------------------------------------------------------------

    def _write(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(self.header, sort_keys=True)]
        lines += [json.dumps(r, sort_keys=True) for r in self._records]
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
