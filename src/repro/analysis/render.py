"""Text and JSON rendering of lint reports."""

from __future__ import annotations

import json

from repro.analysis.findings import LintReport


def render_json(report: LintReport) -> str:
    """Stable, pretty-printed JSON of :meth:`LintReport.to_dict`."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def render_text(report: LintReport) -> str:
    """Human-readable report: summary, findings grouped by pass, totals."""
    lines = []
    stats = report.stats
    lines.append(
        "repro lint: {fingerprints} fingerprints, {catalog_apis} catalog "
        "APIs, {symbols_used} symbols used, FP_max={fp_max}, "
        "alpha={alpha}".format(
            fingerprints=stats.get("fingerprints", 0),
            catalog_apis=stats.get("catalog_apis", 0),
            symbols_used=stats.get("symbols_used", 0),
            fp_max=stats.get("fp_max", 0),
            alpha=stats.get("alpha", 0),
        )
    )
    lines.append("passes: " + ", ".join(report.passes))
    lines.append("")

    current_pass = None
    for finding in report.findings:
        if finding.pass_name != current_pass:
            if current_pass is not None:
                lines.append("")
            current_pass = finding.pass_name
            lines.append(f"[{current_pass}]")
        lines.append(
            f"  {finding.severity.label.upper():7s} {finding.rule}  "
            f"{finding.location}"
        )
        lines.append(f"          {finding.message}")
        for item in finding.witness:
            lines.append(f"            - {item}")
        if finding.fix_hint:
            lines.append(f"          fix: {finding.fix_hint}")
    if report.findings:
        lines.append("")

    counts = report.counts()
    lines.append(
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info"
    )
    if report.rule_counts:
        lines.append(
            "rules: " + ", ".join(
                f"{rule}={count}" for rule, count in report.rule_counts.items()
            )
        )
    return "\n".join(lines)
