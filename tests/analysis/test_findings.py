"""Findings/report layer: severity ordering, gating, JSON document."""

import json

from hypothesis import given, strategies as st

from repro.analysis.findings import Finding, LintReport, Severity, sort_findings
from repro.analysis.render import render_json


def _finding(rule="AMB001", severity=Severity.WARNING, **kwargs):
    defaults = dict(
        pass_name="ambiguity", location="fingerprint:op",
        message="msg", witness=("a", "b"), fix_hint="do x",
    )
    defaults.update(kwargs)
    return Finding(rule=rule, severity=severity, **defaults)


def test_severity_order_and_labels():
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    assert Severity.ERROR.label == "error"


def test_exit_code_gating():
    clean = LintReport()
    assert clean.exit_code() == 0
    assert clean.exit_code(strict=True) == 0
    assert clean.max_severity is None

    info = LintReport(findings=[_finding(severity=Severity.INFO)])
    assert info.exit_code() == 0
    assert info.exit_code(strict=True) == 0

    warn = LintReport(findings=[_finding(severity=Severity.WARNING)])
    assert warn.exit_code() == 0
    assert warn.exit_code(strict=True) == 1

    err = LintReport(findings=[_finding(severity=Severity.ERROR)])
    assert err.exit_code() == 1
    assert err.exit_code(strict=True) == 1


def test_counts_and_accessors():
    report = LintReport(findings=[
        _finding(severity=Severity.ERROR),
        _finding(severity=Severity.WARNING),
        _finding(severity=Severity.WARNING),
    ])
    assert report.counts() == {"error": 1, "warning": 2, "info": 0}
    assert len(report.errors) == 1
    assert len(report.warnings) == 2


def test_sort_findings_severity_first():
    ordered = sort_findings([
        _finding(rule="ZZZ9", severity=Severity.INFO),
        _finding(rule="AAA1", severity=Severity.ERROR),
        _finding(rule="MMM5", severity=Severity.WARNING),
    ])
    assert [f.severity for f in ordered] == [
        Severity.ERROR, Severity.WARNING, Severity.INFO,
    ]


def test_report_round_trip():
    """The rendered JSON parses back to exactly :meth:`to_dict`."""
    report = LintReport(
        findings=[_finding(), _finding(rule="SYM001", severity=Severity.ERROR)],
        passes=("ambiguity", "integrity"),
        stats={"fingerprints": 2},
        rule_counts={"AMB001": 1, "SYM001": 1},
    )
    data = json.loads(render_json(report))
    assert data == report.to_dict()
    assert set(data) == {
        "passes", "stats", "rule_counts", "counts", "findings",
    }
    assert data["passes"] == ["ambiguity", "integrity"]
    assert data["counts"] == {"error": 1, "warning": 1, "info": 0}
    # Rendering keeps the report's own finding order.
    assert [f["rule"] for f in data["findings"]] == ["AMB001", "SYM001"]


_label = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=20,
)


@given(
    rule=_label,
    severity=st.sampled_from(list(Severity)),
    message=_label,
    witness=st.lists(_label, max_size=4),
)
def test_finding_round_trip_property(rule, severity, message, witness):
    finding = Finding(
        rule=rule, severity=severity, pass_name="p", location="l",
        message=message, witness=tuple(witness),
    )
    data = json.loads(json.dumps(finding.to_dict()))
    assert data == {
        "rule": rule,
        "severity": severity.label,
        "pass": "p",
        "location": "l",
        "message": message,
        "witness": witness,
        "fix_hint": "",
    }
