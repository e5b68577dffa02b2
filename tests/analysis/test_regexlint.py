"""Regex pass: star pathologies."""

from repro.analysis import regexlint
from repro.core.fingerprint import Fingerprint


def _rules(findings):
    return [f.rule for f in findings]


def test_adjacent_identical_starred_reads_flagged(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    # write, read, read(same), write — the noise filter would have
    # collapsed the read run, so its survival is a generation bug.
    keys = [state_change_keys[0], read_keys[0], read_keys[0],
            state_change_keys[1]]
    findings = regexlint.run(make_context([make_fingerprint("op", keys)]))
    assert "RGX001" in _rules(findings)


def test_distinct_adjacent_reads_not_flagged(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    keys = [state_change_keys[0], read_keys[0], read_keys[1]]
    findings = regexlint.run(make_context([make_fingerprint("op", keys)]))
    assert "RGX001" not in _rules(findings)


def test_pure_read_fingerprint_is_vacuous_warning(
    make_fingerprint, make_context, read_keys
):
    findings = regexlint.run(
        make_context([make_fingerprint("op", read_keys[:3])])
    )
    vacuous = [f for f in findings if f.rule == "RGX002"]
    assert len(vacuous) == 1
    assert vacuous[0].severity.label == "warning"


def test_no_reads_means_strict_equals_relaxed(
    make_fingerprint, make_context, state_change_keys
):
    findings = regexlint.run(
        make_context([make_fingerprint("op", state_change_keys[:3])])
    )
    assert "RGX003" in _rules(findings)
    assert "RGX002" not in _rules(findings)


def test_long_star_run_reported(
    make_fingerprint, make_context, state_change_keys, read_keys,
    monkeypatch,
):
    keys = [state_change_keys[0]] + read_keys[:12] + [state_change_keys[1]]
    monkeypatch.setattr(regexlint, "STAR_RUN_THRESHOLD", 12)
    findings = regexlint.run(make_context([make_fingerprint("op", keys)]))
    assert "RGX005" in _rules(findings)


def test_vacuous_empty_fingerprint_ignored(make_context):
    # Degenerate empty-symbols fingerprint must not crash the pass.
    empty = Fingerprint("op-empty", "", ())
    findings = regexlint.run(make_context([empty]))
    assert "RGX002" not in _rules(findings)
