"""Fault reports: what GRETEL hands the operator.

Reports are emitted by the analyzer's publish step
(:class:`repro.core.pipeline.graph.AnalysisPipeline`, stage name
``publish``), which also fans them out to listeners registered via
``on_report``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.openstack.wire import WireEvent
from repro.core.detector import DetectionResult
from repro.core.latency import PerformanceAnomaly

#: Report signature: (kind, fault seq, matched operations, θ, causes).
ReportSignature = Tuple[str, int, Tuple[str, ...], float,
                        Tuple[Tuple[str, str, str], ...]]


@dataclass(frozen=True)
class RootCauseFinding:
    """One root-cause hypothesis produced by Algorithm 3."""

    node: str
    kind: str          # "resource" | "software"
    subject: str       # metric name or process name
    detail: str
    value: float = 0.0

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject} on {self.node}: {self.detail}"


@dataclass
class FaultReport:
    """One complete fault diagnosis."""

    ts: float
    kind: str                          # "operational" | "performance"
    fault_event: WireEvent
    detection: DetectionResult
    root_causes: List[RootCauseFinding] = field(default_factory=list)
    performance: Optional[PerformanceAnomaly] = None
    analysis_seconds: float = 0.0      # wall-clock analysis cost
    #: Simulated-time delay between the fault and snapshot completion
    #: (the α/2 future-fill the paper bounds at <2 s under 400 ops).
    report_delay: float = 0.0

    @property
    def operations(self) -> List[str]:
        """The high-level administrative operations implicated."""
        return self.detection.operations

    @property
    def theta(self) -> float:
        """Detection precision for this fault."""
        return self.detection.theta

    # -- verdict extraction (used by oracle graders) -----------------------

    def within(self, start: float, end: Optional[float] = None,
               slack: float = 0.0) -> bool:
        """Whether the offending wire event falls in ``[start, end+slack]``.

        Timing is judged on the fault *event* (``ts_response``), not the
        report timestamp: the report lands after the snapshot's α/2
        future-fill, which would smear every injection window by the
        fill delay.  ``end=None`` leaves the window open-ended.
        """
        ts = self.fault_event.ts_response
        if ts < start:
            return False
        return end is None or ts <= end + slack

    def implicates_service(self, *services: str) -> bool:
        """Whether the offending event targets one of ``services``."""
        return self.fault_event.dst_service in services

    def has_root_cause(self, kind: str, subject: str,
                       node: Optional[str] = None) -> bool:
        """Whether Algorithm 3 produced a matching finding.

        ``kind`` and ``subject`` must match exactly; ``node=None``
        accepts the finding on any node.
        """
        return any(
            cause.kind == kind and cause.subject == subject
            and (node is None or cause.node == node)
            for cause in self.root_causes
        )

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable rendering (``--format json`` surfaces).

        Carries the operator-actionable content — fault event,
        matched operations, θ, root causes — not the detection
        internals (matched fingerprints, context-buffer events).
        """
        return {
            "ts": self.ts,
            "kind": self.kind,
            "fault_event": self.fault_event.to_dict(),
            "operations": list(self.operations),
            "theta": self.theta,
            "candidates": self.detection.candidates,
            "beta_used": self.detection.beta_used,
            "root_causes": [asdict(c) for c in self.root_causes],
            "analysis_seconds": self.analysis_seconds,
            "report_delay": self.report_delay,
        }

    def summary(self) -> str:
        """A one-paragraph operator-facing summary."""
        ops = ", ".join(self.operations) or "<no operation matched>"
        causes = "; ".join(str(c) for c in self.root_causes) or "none found"
        fault = self.fault_event
        return (
            f"{self.kind} fault at t={self.ts:.3f}: "
            f"{fault.method} {fault.name} "
            f"({fault.src_service}->{fault.dst_service}) status={fault.status}. "
            f"Operation(s): {ops}. Root cause(s): {causes}."
        )


def report_order_key(report: FaultReport) -> Tuple[int, int, float]:
    """Deterministic merge order: (event sequence, fault id).

    The fault id breaks ties between an operational and a performance
    report anchored on the same wire event: operational first, then by
    report timestamp.
    """
    return (report.fault_event.seq,
            0 if report.kind == "operational" else 1,
            report.ts)


def report_signature(report: FaultReport) -> ReportSignature:
    """Order-independent identity of one report, for set comparison.

    Captures everything an operator acts on — fault kind and wire
    event, the matched operation set, the detection precision θ and
    the root-cause findings — while ignoring wall-clock measurement
    fields (``analysis_seconds``) that legitimately differ between
    runs.
    """
    return (
        report.kind,
        report.fault_event.seq,
        tuple(report.detection.operations),
        round(report.detection.theta, 12),
        tuple(sorted((c.node, c.kind, c.subject)
                     for c in report.root_causes)),
    )
