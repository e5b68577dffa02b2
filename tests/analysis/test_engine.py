"""Engine: pass selection, capping, and the seed-library gate."""

import json

import pytest

from repro.analysis import LintContext, engine, run_lint
from repro.analysis.engine import PASSES
from repro.analysis.render import render_json, render_text
from repro.analysis.findings import Severity
from repro.openstack.catalog import default_catalog


def test_registry_lists_every_pass():
    assert list(PASSES) == [
        "ambiguity", "truncation", "integrity", "noise-config",
        "discriminability",
    ]


def test_unknown_pass_rejected(make_fingerprint, make_context,
                               state_change_keys):
    ctx = make_context([make_fingerprint("op", state_change_keys[:3])])
    with pytest.raises(KeyError):
        run_lint(ctx, passes=["ambiguity", "bogus"])


def test_pass_subset_runs_in_registry_order(
    make_fingerprint, make_context, state_change_keys
):
    ctx = make_context([make_fingerprint("op", state_change_keys[:3])])
    report = run_lint(ctx, passes=["integrity", "ambiguity"])
    assert report.passes == ("ambiguity", "integrity")
    assert all(f.pass_name in ("ambiguity", "integrity")
               for f in report.findings)


def test_per_rule_capping_preserves_exact_counts(
    make_fingerprint, make_context, read_keys, state_change_keys,
    monkeypatch,
):
    # 10 distinct shapes, each with a degenerate truncation → 10 TRN001.
    fps = [
        make_fingerprint(f"op-{i}", [read_keys[i], state_change_keys[i]])
        for i in range(10)
    ]
    monkeypatch.setattr(engine, "MAX_FINDINGS_PER_RULE", 3)
    report = run_lint(make_context(fps), passes=["truncation"])
    assert report.rule_counts["TRN001"] == 10
    rendered = [f for f in report.findings if f.rule == "TRN001"]
    # 3 kept + 1 aggregate overflow note.
    assert len(rendered) == 4
    assert any(f.location == "(aggregate)" for f in rendered)


def test_report_stats_recorded(make_fingerprint, make_context,
                               state_change_keys):
    ctx = make_context([make_fingerprint("op", state_change_keys[:3])])
    report = run_lint(ctx)
    assert report.stats["fingerprints"] == 1
    assert report.stats["catalog_apis"] == len(default_catalog())
    assert report.stats["symbols_used"] == 3
    assert report.stats["fp_max"] == 3


def test_renderers_on_synthetic_report(make_fingerprint, make_context,
                                       state_change_keys):
    ctx = make_context([make_fingerprint("op", state_change_keys[:3])])
    report = run_lint(ctx)
    text = render_text(report)
    assert "repro lint:" in text
    assert "error(s)" in text
    data = json.loads(render_json(report))
    assert data == report.to_dict()
    assert data["passes"] == list(PASSES)
    assert data["stats"]["fingerprints"] == 1
    assert sum(data["counts"].values()) == len(data["findings"])
    for finding in data["findings"]:
        assert set(finding) == {
            "rule", "severity", "pass", "location", "message", "witness",
            "fix_hint",
        }
        assert finding["pass"] in PASSES


def test_seed_library_lints_clean(full_character):
    """The gate the CI step enforces: the shipped library has no errors."""
    library = full_character.library
    from repro.evaluation.common import default_suite

    groups = {
        test.test_id: test.template.name
        for test in default_suite().tests
    }
    ctx = LintContext(
        library=library, symbols=library.symbols,
        catalog=default_catalog(), operation_groups=groups,
    )
    report = run_lint(ctx)
    assert report.passes == tuple(PASSES)
    assert report.errors == []
    assert report.exit_code() == 0
    # The known cross-template ambiguity of the generated suite is
    # reported (keypair lifecycle vs keypair queries, image
    # download vs upload) — the pass sees real overlap, not silence.
    assert report.rule_counts.get("AMB001", 0) >= 1
    assert Severity.WARNING in {f.severity for f in report.findings}
