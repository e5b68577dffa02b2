"""Structured findings and the lint report container.

Every analyzer pass emits :class:`Finding` objects; the engine folds
them into a :class:`LintReport` whose exit-code policy is the CI
contract: **errors always gate**, warnings gate only under
``--strict``, info findings never gate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


class Severity(enum.IntEnum):
    """Finding severity; the integer order drives sorting and gating."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name used in rendered output and JSON."""
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by an analyzer pass.

    Attributes
    ----------
    rule:
        Stable rule identifier (``AMB002``, ``SYM001``, ...), documented
        in ``docs/linting.md``.
    severity:
        Gating class of the finding.
    pass_name:
        The pass that produced it (``ambiguity``, ``integrity``, ...).
    location:
        Where the problem lives: ``fingerprint:<operation>``,
        ``config.<field>``, ``catalog`` or ``symbol-table``.
    message:
        One-line human-readable statement of the defect.
    witness:
        Concrete evidence — decoded API names, operation names, or
        offending values — kept short and human-readable.
    fix_hint:
        What to do about it.
    """

    rule: str
    severity: Severity
    pass_name: str
    location: str
    message: str
    witness: Tuple[str, ...] = ()
    fix_hint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "rule": self.rule,
            "severity": self.severity.label,
            "pass": self.pass_name,
            "location": self.location,
            "message": self.message,
            "witness": list(self.witness),
            "fix_hint": self.fix_hint,
        }


@dataclass
class LintReport:
    """All findings from one lint run, plus run metadata."""

    findings: List[Finding] = field(default_factory=list)
    passes: Tuple[str, ...] = ()
    #: Library/catalog size facts recorded at lint time.
    stats: Dict[str, int] = field(default_factory=dict)
    #: Pre-cap finding count per rule (the engine may cap the rendered
    #: list; these counts are always exact).
    rule_counts: Dict[str, int] = field(default_factory=dict)

    def by_severity(self, severity: Severity) -> List[Finding]:
        """All findings of exactly ``severity``."""
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        """Findings that always gate."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        """Findings that gate under ``--strict``."""
        return self.by_severity(Severity.WARNING)

    @property
    def max_severity(self) -> Optional[Severity]:
        """Highest severity present, or ``None`` for a clean report."""
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)

    def exit_code(self, strict: bool = False) -> int:
        """CI gate: 1 on errors (or warnings when ``strict``), else 0."""
        threshold = Severity.WARNING if strict else Severity.ERROR
        severity = self.max_severity
        if severity is not None and severity >= threshold:
            return 1
        return 0

    def counts(self) -> Dict[str, int]:
        """Finding count per severity label (zero-filled)."""
        result = {severity.label: 0 for severity in Severity}
        for finding in self.findings:
            result[finding.severity.label] += 1
        return result

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (what ``--format json`` prints)."""
        return {
            "passes": list(self.passes),
            "stats": dict(self.stats),
            "rule_counts": dict(self.rule_counts),
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Severity-descending, then rule id, then location: stable output."""
    return sorted(
        findings,
        key=lambda f: (-int(f.severity), f.rule, f.location, f.message),
    )
