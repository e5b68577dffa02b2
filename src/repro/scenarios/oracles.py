"""Graded oracles: PASS/FAIL/SKIP verdicts with scores, not asserts.

Each oracle inspects one replay's fault reports against a scenario's
:class:`~repro.scenarios.base.Expectation` and returns an
:class:`OracleOutcome` carrying a grade, a score in ``[0, 1]`` (or
``None`` when undefined), the raw confusion counts, and an
operator-readable detail line.  FAIL is the only losing grade; SKIP
records that an oracle does not apply (e.g. localization for a no-op
control) without polluting the catalog score.

The three graders mirror the SREGym oracle family:

:class:`DetectionOracle`
    Did a fault report fire inside the injection window — and only
    there?  Precision is report-level, recall instance-level (see
    :class:`repro.evaluation.common.DetectionCounts`).
:class:`LocalizationOracle`
    Did Algorithm 3 name each fault's own cause first on that fault's
    pages, and the expected service / operation?  Scored as the
    fraction of expected facts confirmed.
:class:`FalsePositiveOracle`
    For no-op controls: any report at all is a false positive, and
    precision over zero reports is *undefined* (0/0 → ``None``), never
    a crash.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.reports import FaultReport
from repro.evaluation.common import DetectionCounts, safe_ratio
from repro.scenarios.base import CapturedRun, Expectation, Scenario

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass
class OracleOutcome:
    """One oracle's graded verdict for one replay."""

    oracle: str
    grade: str                       # PASS | FAIL | SKIP
    score: Optional[float] = None    # [0, 1] or None when undefined
    detail: str = ""
    counts: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether this outcome keeps the scenario passing."""
        return self.grade != FAIL

    def as_dict(self) -> Dict[str, object]:
        """JSON-stable rendering."""
        return {
            "oracle": self.oracle,
            "grade": self.grade,
            "score": None if self.score is None else round(self.score, 6),
            "detail": self.detail,
            "counts": self.counts,
        }


@dataclass
class GradingContext:
    """Everything an oracle may look at for one replay."""

    scenario: Scenario
    captured: CapturedRun
    expectation: Expectation
    reports: List[FaultReport]


class Oracle(abc.ABC):
    """One graded check over a replay's report stream."""

    name: str = "oracle"

    @abc.abstractmethod
    def grade(self, ctx: GradingContext) -> OracleOutcome:
        """Produce the verdict for ``ctx``."""


def attributed_reports(ctx: GradingContext) -> List[FaultReport]:
    """Reports explained by at least one injected fault spec."""
    specs = ctx.expectation.faults
    return [r for r in ctx.reports
            if any(spec.attributes(r) for spec in specs)]


def detection_counts(ctx: GradingContext) -> DetectionCounts:
    """Confusion counts for one replay (shared by oracle + scorecard)."""
    specs = ctx.expectation.faults
    attributed = attributed_reports(ctx)
    instances = sum(spec.count for spec in specs)
    detected = 0
    for spec in specs:
        hits = sum(1 for r in ctx.reports if spec.attributes(r))
        detected += min(spec.count, hits)
    return DetectionCounts(
        true_reports=len(attributed),
        false_reports=len(ctx.reports) - len(attributed),
        instances=instances,
        detected_instances=detected,
    )


class DetectionOracle(Oracle):
    """Did reports fire in the injection window — and only there?"""

    name = "detection"

    def grade(self, ctx: GradingContext) -> OracleOutcome:
        counts = detection_counts(ctx)
        exp = ctx.expectation
        precision, recall = counts.precision, counts.recall
        problems: List[str] = []
        if recall is None:
            problems.append("no fault instances declared")
        elif recall < exp.min_recall:
            problems.append(
                f"recall {recall:.3f} < floor {exp.min_recall:.3f}"
            )
        if precision is None:
            problems.append("no reports at all")
        elif precision < exp.min_precision:
            problems.append(
                f"precision {precision:.3f} < floor {exp.min_precision:.3f}"
            )
        grade = FAIL if problems else PASS
        detail = (
            f"{counts.true_reports} attributed / "
            f"{counts.false_reports} stray reports; "
            f"{counts.detected_instances}/{counts.instances} instances "
            "detected"
        )
        if problems:
            detail += " — " + "; ".join(problems)
        return OracleOutcome(
            oracle=self.name, grade=grade, score=counts.f1,
            detail=detail, counts=dict(counts.as_dict()),
        )


class LocalizationOracle(Oracle):
    """Did Algorithm 3 name each fault's own cause first, and the
    expected service / operation?"""

    name = "localization"

    def grade(self, ctx: GradingContext) -> OracleOutcome:
        exp = ctx.expectation
        causes = [(spec, spec.cause) for spec in exp.faults
                  if spec.cause is not None]
        if exp.localization is None and not causes:
            return OracleOutcome(
                oracle=self.name, grade=SKIP,
                detail="scenario declares no localization contract",
            )
        attributed = attributed_reports(ctx)
        if not attributed:
            return OracleOutcome(
                oracle=self.name, grade=FAIL, score=0.0,
                detail="no attributed reports to localize against",
            )

        checks: List[str] = []
        failed: List[str] = []

        # Confirmed only as the first finding of its own fault's page.
        for spec, cause in causes:
            where = cause.node or "any node"
            label = f"cause {cause.kind}/{cause.subject}@{where}"
            checks.append(label)
            if not any(cause.leads(r) for r in attributed
                       if spec.attributes(r)):
                failed.append(label)

        loc = exp.localization
        if loc and loc.services:
            label = "services " + "|".join(loc.services)
            checks.append(label)
            if not all(r.implicates_service(*loc.services)
                       for r in attributed):
                failed.append(label)

        if loc and loc.operation is not None:
            with_truth = [r for r in attributed if r.fault_event.op_id]
            label = f"operation {loc.operation}"
            checks.append(label)
            if with_truth:
                rate = sum(
                    1 for r in with_truth
                    if loc.operation in r.detection.operations
                ) / len(with_truth)
            else:
                rate = 0.0
            if rate < loc.min_operation_rate:
                failed.append(f"{label} (hit rate {rate:.2f} < "
                              f"{loc.min_operation_rate:.2f})")

        score = safe_ratio(len(checks) - len(failed), len(checks))
        grade = FAIL if failed else PASS
        detail = (f"{len(checks) - len(failed)}/{len(checks)} "
                  "localization facts confirmed")
        if failed:
            detail += " — missing: " + "; ".join(failed)
        return OracleOutcome(
            oracle=self.name, grade=grade, score=score, detail=detail,
            counts={"checks": len(checks), "failed": len(failed)},
        )


class FalsePositiveOracle(Oracle):
    """For controls: zero reports expected; 0/0 precision is undefined."""

    name = "false-positives"

    def grade(self, ctx: GradingContext) -> OracleOutcome:
        false_reports = len(ctx.reports)
        # Every control report is spurious: precision = 0/N, or the
        # undefined 0/0 when the run is (correctly) silent.
        precision = safe_ratio(0, false_reports)
        grade = PASS if false_reports == 0 else FAIL
        detail = (
            "silent run: precision undefined (0/0), as it should be"
            if false_reports == 0
            else f"{false_reports} spurious report(s) on a no-op run"
        )
        return OracleOutcome(
            oracle=self.name, grade=grade,
            score=1.0 if false_reports == 0 else 0.0,
            detail=detail,
            counts={"false_reports": false_reports,
                    "precision": precision},
        )


def oracles_for(scenario: Scenario) -> List[Oracle]:
    """The oracle battery a scenario is graded with."""
    if scenario.is_control:
        return [FalsePositiveOracle()]
    return [DetectionOracle(), LocalizationOracle()]
