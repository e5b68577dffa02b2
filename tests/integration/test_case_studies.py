"""End-to-end reproduction of the paper's case studies (§3.1, §7.2).

These run against the full 1200-operation fingerprint library (session
fixture, disk-cached) and assert the paper's narrative outcomes.
"""

import pytest

from repro.evaluation import case_studies


@pytest.fixture(scope="module")
def character(full_character):
    return full_character


def test_vm_create_no_compute(character):
    result = case_studies.vm_create_no_compute(character)
    assert result.diagnosis_correct, result.narrative
    # The dashboard error matches the paper's text verbatim.
    assert any("No valid host was found" in r.fault_event.body
               for r in result.reports)


def test_failed_image_upload(character):
    result = case_studies.failed_image_upload(character)
    assert result.diagnosis_correct, result.narrative
    report = next(r for r in result.reports if r.fault_event.status == 413)
    # The offending API is Glance's image-data PUT, as in §7.2.1.
    assert report.fault_event.name == "/v2/images/{id}/file"
    assert report.fault_event.method == "PUT"


def test_linuxbridge_failure(character):
    result = case_studies.linuxbridge_failure(character)
    assert result.diagnosis_correct, result.narrative
    causes = [c for r in result.reports for c in r.root_causes]
    assert any(c.subject == "neutron-plugin-linuxbridge-agent" for c in causes)
    # No resource anomalies: the diagnosis is purely software (§7.2.3).
    assert all(c.kind == "software" for c in causes)


def test_ntp_failure(character):
    result = case_studies.ntp_failure(character)
    assert result.diagnosis_correct, result.narrative
    causes = [c for r in result.reports for c in r.root_causes]
    ntp = [c for c in causes if c.subject == "ntp"]
    assert ntp and all(c.node == "cinder-node" for c in ntp)
