"""Seeded QA trial runner with a machine-checkable JSONL report.

``run_qa`` pushes one seeded corpus through the PIM system under every
configured penalty model, checks each kernel answer against the
differential oracle (:mod:`repro.qa.oracle`), greedily shrinks any
disagreement to a minimal reproduction (:mod:`repro.qa.shrink`), and
emits a JSONL report:

* line 1 — a ``header`` record: schema tag + the full run config;
* one ``case`` record per (penalty model, corpus case) verdict;
* last line — a ``summary`` record with the aggregate counts (and the
  fault-recovery summaries, when the run executed under a
  :class:`~repro.pim.faults.FaultPlan`).

``validate_qa_report`` re-checks a written report's schema and internal
consistency, so CI can gate on reports produced elsewhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.cigar import Cigar
from repro.core.penalties import (
    AffinePenalties,
    EditPenalties,
    LinearPenalties,
    Penalties,
)
from repro.data.generator import ReadPair
from repro.errors import QaError
from repro.pim.config import PimSystemConfig
from repro.pim.faults import FaultPlan, RetryPolicy
from repro.pim.fleet import FleetCoordinator
from repro.pim.kernel import KernelConfig
from repro.pim.system import PimSystem
from repro.qa.corpus import CorpusConfig, generate_corpus
from repro.qa.oracle import OracleVerdict, check_case
from repro.qa.shrink import shrink_case

__all__ = [
    "QaConfig",
    "QaReport",
    "run_qa",
    "validate_qa_report",
    "penalty_name",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "repro.qa.report/v1"

#: the default differential sweep: the three penalty models the kernel
#: supports on every code path (two-piece affine rides the same machinery
#: as affine and has its own golden tests).
DEFAULT_PENALTY_MODELS: tuple[Penalties, ...] = (
    EditPenalties(),
    LinearPenalties(mismatch=2, indel=3),
    AffinePenalties(mismatch=4, gap_open=6, gap_extend=2),
)


def penalty_name(penalties: Penalties) -> str:
    """Stable human/report name for a penalty model."""
    if isinstance(penalties, EditPenalties):
        return "edit"
    if isinstance(penalties, AffinePenalties):
        return (
            f"affine({penalties.mismatch},{penalties.gap_open},"
            f"{penalties.gap_extend})"
        )
    if isinstance(penalties, LinearPenalties):
        return f"linear({penalties.mismatch},{penalties.indel})"
    return type(penalties).__name__


@dataclass(frozen=True)
class QaConfig:
    """One ``repro qa`` run, fully determined by its fields."""

    trials: int = 200
    seed: int = 42
    max_len: int = 32
    max_edits: int = 4
    num_dpus: int = 4
    tasklets: int = 4
    workers: int = 1
    #: shards of the :class:`~repro.pim.fleet.FleetCoordinator` the sweep
    #: runs through (``num_dpus`` DPUs per shard,
    #: ``fault_domain="uniform"``); > 1 stripes at least two rounds per
    #: shard, so the differential oracle exercises round striping.
    shards: int = 1
    penalty_models: tuple[Penalties, ...] = DEFAULT_PENALTY_MODELS
    shrink: bool = True
    #: optional fault plan: the whole sweep then runs through the
    #: recovery layer, and the oracle must *still* agree on every pair.
    fault_plan: Optional[FaultPlan] = None
    retry_policy: Optional[RetryPolicy] = None

    def validate(self) -> None:
        if self.trials < 1:
            raise QaError(f"trials must be >= 1, got {self.trials}")
        if self.num_dpus < 1:
            raise QaError(f"num_dpus must be >= 1, got {self.num_dpus}")
        if self.shards < 1:
            raise QaError(f"shards must be >= 1, got {self.shards}")
        if not self.penalty_models:
            raise QaError("need at least one penalty model")
        self.corpus_config().validate()

    def corpus_config(self) -> CorpusConfig:
        return CorpusConfig(max_len=self.max_len, max_edits=self.max_edits)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "max_len": self.max_len,
            "max_edits": self.max_edits,
            "num_dpus": self.num_dpus,
            "tasklets": self.tasklets,
            "workers": self.workers,
            "shards": self.shards,
            "penalty_models": [penalty_name(p) for p in self.penalty_models],
            "shrink": self.shrink,
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.to_dict()
            ),
        }


@dataclass
class QaReport:
    """Everything ``run_qa`` learned, ready for JSONL serialization."""

    config: QaConfig
    #: penalty-model name -> verdicts, in corpus order
    verdicts: dict[str, list[OracleVerdict]] = field(default_factory=dict)
    #: minimal reproductions of disagreements: (model, pattern, text)
    shrunk: list[dict] = field(default_factory=list)
    #: penalty-model name -> recovery-report dict (fault runs only)
    recovery: dict[str, dict] = field(default_factory=dict)

    @property
    def cases_checked(self) -> int:
        return sum(len(v) for v in self.verdicts.values())

    @property
    def disagreements(self) -> list[OracleVerdict]:
        return [v for vs in self.verdicts.values() for v in vs if not v.ok]

    @property
    def all_ok(self) -> bool:
        return not self.disagreements

    def to_lines(self) -> list[dict]:
        lines: list[dict] = [
            {
                "record": "header",
                "schema": REPORT_SCHEMA,
                "config": self.config.to_dict(),
            }
        ]
        for model, verdicts in self.verdicts.items():
            for verdict in verdicts:
                lines.append(
                    {"record": "case", "penalties": model, **verdict.to_dict()}
                )
        lines.append(
            {
                "record": "summary",
                "trials": self.config.trials,
                "cases_checked": self.cases_checked,
                "disagreements": len(self.disagreements),
                "ok": self.all_ok,
                "shrunk": self.shrunk,
                "recovery": self.recovery or None,
            }
        )
        return lines

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        return path

    def summary(self) -> str:
        status = "OK" if self.all_ok else "DISAGREEMENTS"
        return (
            f"qa: {self.cases_checked} checks over {self.config.trials} cases "
            f"x {len(self.verdicts)} penalty models -> "
            f"{len(self.disagreements)} disagreement(s) [{status}]"
        )


def _single_pair_system(config: QaConfig, penalties: Penalties) -> PimSystem:
    """A minimal 1-DPU system for shrink-predicate reproductions."""
    return PimSystem(
        PimSystemConfig(
            num_dpus=1, num_ranks=1, tasklets=1, num_simulated_dpus=1
        ),
        kernel_config=KernelConfig(
            penalties=penalties,
            max_read_len=max(config.max_len, 1),
            max_edits=config.max_edits,
        ),
    )


def _kernel_answer(
    system: PimSystem, pattern: str, text: str
) -> tuple[Optional[int], Optional[Cigar]]:
    run = system.align([ReadPair(pattern, text)], collect_results=True)
    if not run.results:
        return None, None
    _, score, cigar = run.results[0]
    return score, cigar


def run_qa(config: Optional[QaConfig] = None) -> QaReport:
    """Run the seeded differential sweep; see the module docstring."""
    cfg = config if config is not None else QaConfig()
    cfg.validate()
    corpus = generate_corpus(cfg.trials, cfg.seed, cfg.corpus_config())
    report = QaReport(config=cfg)

    for penalties in cfg.penalty_models:
        model = penalty_name(penalties)
        pairs = [ReadPair(c.pattern, c.text) for c in corpus]
        system_config = PimSystemConfig(
            num_dpus=cfg.num_dpus,
            num_ranks=1,
            tasklets=cfg.tasklets,
            num_simulated_dpus=cfg.num_dpus,
            workers=cfg.workers,
        )
        kernel_config = KernelConfig(
            penalties=penalties,
            max_read_len=cfg.max_len,
            max_edits=cfg.max_edits,
        )
        run = FleetCoordinator(
            system_config,
            kernel_config,
            shards=cfg.shards,
            fault_domain="uniform",
        ).run(
            pairs,
            # one MRAM-sized round on one shard; otherwise at least two
            # rounds per shard, so the sweep exercises round striping
            # rather than shard 0 alone
            pairs_per_round=(
                max(1, math.ceil(cfg.trials / (2 * cfg.shards)))
                if cfg.shards > 1
                else None
            ),
            collect_results=True,
            fault_plan=cfg.fault_plan,
            retry_policy=cfg.retry_policy,
        )
        recovery = run.recovery
        by_index = {index: (score, cigar) for index, score, cigar in run.results()}
        verdicts = [
            check_case(
                case,
                by_index.get(case.index, (None, None))[0],
                by_index.get(case.index, (None, None))[1],
                penalties,
            )
            for case in corpus
        ]
        report.verdicts[model] = verdicts
        if recovery is not None:
            report.recovery[model] = recovery.to_dict()

        if cfg.shrink:
            repro_system = _single_pair_system(cfg, penalties)

            def still_fails(pattern: str, text: str) -> bool:
                score, cigar = _kernel_answer(repro_system, pattern, text)
                probe = check_case(
                    type(corpus[0])(index=0, kind="shrink", pattern=pattern, text=text),
                    score,
                    cigar,
                    penalties,
                )
                return not probe.ok

            for verdict in verdicts:
                if verdict.ok:
                    continue
                # The batch failure may not reproduce on a lone kernel
                # call (e.g. a fault-plan abandonment): record it
                # unshrunk rather than crash the sweep.
                if not still_fails(verdict.case.pattern, verdict.case.text):
                    report.shrunk.append(
                        {
                            "penalties": model,
                            "index": verdict.case.index,
                            "pattern": verdict.case.pattern,
                            "text": verdict.case.text,
                            "minimal": False,
                        }
                    )
                    continue
                pattern, text = shrink_case(
                    verdict.case.pattern, verdict.case.text, still_fails
                )
                report.shrunk.append(
                    {
                        "penalties": model,
                        "index": verdict.case.index,
                        "pattern": pattern,
                        "text": text,
                        "minimal": True,
                    }
                )
    return report


_CASE_KEYS = {
    "record",
    "penalties",
    "index",
    "kind",
    "pattern",
    "text",
    "pim_score",
    "pim_cigar",
    "expected_score",
    "ok",
    "failures",
}


def validate_qa_report(source: Union[str, Path, list[dict]]) -> dict:
    """Check a JSONL report's schema and consistency; return the summary.

    Accepts a path or pre-parsed records.  Raises :class:`QaError` on a
    missing/foreign schema tag, malformed case records, or summary
    counts that disagree with the case lines — the checks CI needs to
    trust a report it did not produce.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        try:
            records = [json.loads(line) for line in text.splitlines() if line]
        except json.JSONDecodeError as exc:
            raise QaError(f"report is not valid JSONL: {exc}") from exc
    else:
        records = list(source)

    if len(records) < 2:
        raise QaError("report needs at least a header and a summary record")
    header, *body, summary = records
    if header.get("record") != "header" or header.get("schema") != REPORT_SCHEMA:
        raise QaError(
            f"bad header: expected schema {REPORT_SCHEMA!r}, got {header!r}"
        )
    if summary.get("record") != "summary":
        raise QaError("last record must be the summary")

    disagreements = 0
    for record in body:
        if record.get("record") != "case":
            raise QaError(f"unexpected record between header and summary: {record!r}")
        missing = _CASE_KEYS - record.keys()
        if missing:
            raise QaError(f"case record missing keys {sorted(missing)}: {record!r}")
        if bool(record["failures"]) == bool(record["ok"]):
            raise QaError(f"case ok/failures fields disagree: {record!r}")
        disagreements += 0 if record["ok"] else 1

    if summary.get("cases_checked") != len(body):
        raise QaError(
            f"summary counts {summary.get('cases_checked')} cases, "
            f"report has {len(body)}"
        )
    if summary.get("disagreements") != disagreements:
        raise QaError(
            f"summary claims {summary.get('disagreements')} disagreements, "
            f"case records show {disagreements}"
        )
    if summary.get("ok") != (disagreements == 0):
        raise QaError("summary ok flag disagrees with its disagreement count")
    return summary
