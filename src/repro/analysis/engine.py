"""Lint engine: pass registry, per-rule capping, report assembly."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import (
    ambiguity,
    configlint,
    discriminability,
    integrity,
    truncation,
)
from repro.analysis.context import LintContext
from repro.analysis.findings import Finding, LintReport, sort_findings

#: Rendered findings are capped per rule; exact counts survive in
#: ``LintReport.rule_counts``.
MAX_FINDINGS_PER_RULE = 25

#: All passes, in execution order.  Names are the CLI ``--passes`` vocabulary.
PASSES: Dict[str, Callable[[LintContext], List[Finding]]] = {
    ambiguity.PASS_NAME: ambiguity.run,
    truncation.PASS_NAME: truncation.run,
    integrity.PASS_NAME: integrity.run,
    configlint.PASS_NAME: configlint.run,
    discriminability.PASS_NAME: discriminability.run,
}


def _cap_per_rule(
    findings: Sequence[Finding], limit: int
) -> List[Finding]:
    """Keep at most ``limit`` findings per rule, adding an overflow note."""
    kept: List[Finding] = []
    per_rule: Dict[str, int] = {}
    overflow: Dict[str, Finding] = {}
    for finding in findings:
        count = per_rule.get(finding.rule, 0)
        per_rule[finding.rule] = count + 1
        if count < limit:
            kept.append(finding)
        elif finding.rule not in overflow:
            overflow[finding.rule] = finding
    for rule, example in overflow.items():
        suppressed = per_rule[rule] - limit
        kept.append(Finding(
            rule=rule,
            severity=example.severity,
            pass_name=example.pass_name,
            location="(aggregate)",
            message=(
                f"{suppressed} additional {rule} finding(s) suppressed; "
                "exact counts are in the report's rule_counts"
            ),
        ))
    return kept


def run_lint(
    ctx: LintContext, passes: Optional[Sequence[str]] = None
) -> LintReport:
    """Run the requested passes (default: all registered) and build a
    report.

    Raises ``KeyError`` naming the offending pass if ``passes``
    contains an unknown name.
    """
    if passes is None:
        selected = list(PASSES)
    else:
        unknown = [name for name in passes if name not in PASSES]
        if unknown:
            raise KeyError(
                f"unknown lint pass(es) {', '.join(sorted(unknown))!s}; "
                f"choose from: {', '.join(PASSES)}"
            )
        # Preserve registry order regardless of request order.
        selected = [name for name in PASSES if name in set(passes)]

    findings: List[Finding] = []
    for name in selected:
        findings.extend(PASSES[name](ctx))

    rule_counts: Dict[str, int] = {}
    for finding in findings:
        rule_counts[finding.rule] = rule_counts.get(finding.rule, 0) + 1

    capped = _cap_per_rule(
        sort_findings(findings), MAX_FINDINGS_PER_RULE
    )
    used_symbols = {
        symbol for fingerprint in ctx.library for symbol in fingerprint.symbols
    }
    return LintReport(
        findings=sort_findings(capped),
        passes=tuple(selected),
        stats={
            "fingerprints": len(ctx.library),
            "catalog_apis": len(ctx.catalog),
            "symbols_used": len(used_symbols),
            "fp_max": ctx.library.fp_max,
            "alpha": ctx.config.sliding_window_size(ctx.library.fp_max),
        },
        rule_counts=dict(sorted(rule_counts.items())),
    )
