"""Root-cause case studies (§3.1 and §7.2).

Each function reproduces one of the paper's scenarios end to end —
fault injection, workload, detection, root cause — and returns a
:class:`CaseStudyResult` with the checks the paper's narrative makes.

=====================  ==========================================
Function               Paper scenario
=====================  ==========================================
``vm_create_no_compute``   §3.1.1 — "No valid host", all
                           nova-compute services down
``failed_image_upload``    §7.2.1 — 413 from Glance, low disk
``neutron_api_latency``    §7.2.2 / §3.1.2 — CPU surge on Neutron
``linuxbridge_failure``    §7.2.3 — L2 agent crash on the host
``ntp_failure``            §7.2.4 — 401 from Keystone, NTP dead
=====================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.characterize import CharacterizationResult
from repro.core.reports import FaultReport
from repro.evaluation.common import (
    default_characterization,
    default_suite,
    make_monitored_analyzer,
)
from repro.workloads.runner import WorkloadRunner


@dataclass
class CaseStudyResult:
    """Outcome of one scenario."""

    name: str
    reports: List[FaultReport]
    #: The check the paper's narrative makes for this scenario.
    diagnosis_correct: bool
    narrative: str
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line PASS/FAIL rendering of the scenario."""
        status = "PASS" if self.diagnosis_correct else "FAIL"
        return f"[{status}] {self.name}: {self.narrative}"


def _find_test(prefix: str):
    suite = default_suite()
    return next(t for t in suite.tests if t.name.startswith(prefix))


def _has_cause(reports: List[FaultReport], kind: str, subject: str,
               node: Optional[str] = None) -> bool:
    return any(r.has_root_cause(kind, subject, node) for r in reports)


def vm_create_no_compute(
    character: Optional[CharacterizationResult] = None, *, seed: int = 101,
) -> CaseStudyResult:
    """§3.1.1: every nova-compute is down; dashboard shows
    "No valid host was found"; GRETEL should localize the dead
    compute services."""
    character = character or default_characterization()
    cloud, plane, analyzer = make_monitored_analyzer(character, seed=seed)
    downed = cloud.faults.crash_everywhere("nova-compute")
    test = _find_test("compute.boot_server")
    WorkloadRunner(cloud).run_isolated(test, settle=2.0)
    analyzer.flush()

    reports = analyzer.operational_reports
    saw_error = any("No valid host" in r.fault_event.body for r in reports)
    vm_create_identified = any(
        all(character.library.get(op).category == "compute"
            for op in r.detection.operations) and r.detection.matched
        for r in reports
    )
    cause_found = _has_cause(reports, "software", "nova-compute")
    correct = saw_error and vm_create_identified and cause_found
    return CaseStudyResult(
        name="vm_create_no_compute",
        reports=reports,
        diagnosis_correct=correct,
        narrative=(
            f"'No valid host' seen={saw_error}; VM-create operation "
            f"identified={vm_create_identified}; dead nova-compute "
            f"found={cause_found} (downed on {downed})"
        ),
        details={"downed_nodes": downed},
    )


def failed_image_upload(
    character: Optional[CharacterizationResult] = None, *, seed: int = 102,
) -> CaseStudyResult:
    """§7.2.1: Glance node low on disk; upload fails 413; GRETEL
    narrows to the image-upload operation and flags the disk."""
    character = character or default_characterization()
    cloud, plane, analyzer = make_monitored_analyzer(character, seed=seed)
    cloud.faults.fill_disk("glance-node", leave_free_gb=6.0)
    suite = default_suite()
    test = next(
        t for t in suite.tests
        if t.name.startswith("image.upload") and t.variant.get("size_gb") == 2.0
    )
    WorkloadRunner(cloud).run_isolated(test, settle=2.0)
    analyzer.flush()

    reports = analyzer.operational_reports
    saw_413 = any(r.fault_event.status == 413 for r in reports)
    image_op = any(
        r.detection.matched and all(
            character.library.get(op).category == "image"
            for op in r.detection.operations
        )
        for r in reports
    )
    disk_found = _has_cause(reports, "resource", "disk", "glance-node")
    correct = saw_413 and image_op and disk_found
    return CaseStudyResult(
        name="failed_image_upload",
        reports=reports,
        diagnosis_correct=correct,
        narrative=(
            f"413 'Request Entity Too Large' seen={saw_413}; image "
            f"operation identified={image_op}; low disk on glance-node "
            f"found={disk_found}"
        ),
    )


def neutron_api_latency(
    character: Optional[CharacterizationResult] = None, *, seed: int = 103,
) -> CaseStudyResult:
    """§7.2.2 / §3.1.2: CPU surge on the Neutron server inflates port
    API latencies; GRETEL reports a performance fault with the CPU as
    root cause.

    Sized for the mechanism, not the figure: 60 concurrent operations
    for 30 simulated seconds is the smallest run measured that raises
    a level-shift alarm inside the surge window and names the CPU
    (CHANGES.md, PR 18, has the table).  The paper-scale run is
    ``repro evaluate fig6``.
    """
    from repro.evaluation import fig6

    result = fig6.run(character, concurrency=60, duration=30.0, seed=seed)
    correct = bool(result.alarms) and result.cpu_root_cause_found
    return CaseStudyResult(
        name="neutron_api_latency",
        reports=result.reports,
        diagnosis_correct=correct,
        narrative=(
            f"LS alarms={len(result.alarms)} "
            f"({result.alarms_in_window} in surge window); CPU root cause "
            f"on neutron-ctl found={result.cpu_root_cause_found}"
        ),
        details={
            "alarms": result.alarms,
            "alarms_in_window": result.alarms_in_window,
        },
    )


def linuxbridge_failure(
    character: Optional[CharacterizationResult] = None, *, seed: int = 104,
) -> CaseStudyResult:
    """§7.2.3: the Linux bridge agent crashed on the hypervisors; VM
    create fails with "No valid host" though nova-compute is up;
    GRETEL finds the dead agent."""
    character = character or default_characterization()
    cloud, plane, analyzer = make_monitored_analyzer(character, seed=seed)
    downed = cloud.faults.crash_everywhere("neutron-plugin-linuxbridge-agent")
    test = _find_test("compute.boot_server")
    WorkloadRunner(cloud).run_isolated(test, settle=2.0)
    analyzer.flush()

    reports = analyzer.operational_reports
    saw_error = any("No valid host" in r.fault_event.body for r in reports)
    nova_compute_up = all(
        cloud.processes.is_alive(node, "nova-compute") for node in downed
    )
    agent_found = _has_cause(
        reports, "software", "neutron-plugin-linuxbridge-agent"
    )
    correct = saw_error and nova_compute_up and agent_found
    return CaseStudyResult(
        name="linuxbridge_failure",
        reports=reports,
        diagnosis_correct=correct,
        narrative=(
            f"'No valid host' seen={saw_error}; nova-compute still "
            f"up={nova_compute_up}; crashed linuxbridge agent "
            f"found={agent_found}"
        ),
    )


def ntp_failure(
    character: Optional[CharacterizationResult] = None, *, seed: int = 105,
) -> CaseStudyResult:
    """§7.2.4: NTP stopped on the Cinder node; `cinder list` fails with
    a Keystone connection error; the wire shows 401 Unauthorized from
    Keystone to Cinder; GRETEL finds the stopped NTP agent."""
    character = character or default_characterization()
    cloud, plane, analyzer = make_monitored_analyzer(character, seed=seed)
    cloud.faults.crash_process("cinder-node", "ntp")
    test = _find_test("storage.queries")
    outcome = WorkloadRunner(cloud).run_isolated(test, settle=2.0)
    analyzer.flush()

    reports = analyzer.operational_reports
    saw_401 = any(
        r.fault_event.status == 401
        and r.fault_event.src_service == "cinder"
        and r.fault_event.dst_service == "keystone"
        for r in reports
    )
    client_error = not outcome.ok and "Keystone" in (outcome.error or "")
    ntp_found = _has_cause(reports, "software", "ntp", "cinder-node")
    correct = saw_401 and client_error and ntp_found
    return CaseStudyResult(
        name="ntp_failure",
        reports=reports,
        diagnosis_correct=correct,
        narrative=(
            f"401 Keystone->Cinder seen={saw_401}; client saw Keystone "
            f"connection error={client_error}; stopped NTP on "
            f"cinder-node found={ntp_found}"
        ),
    )


ALL_CASE_STUDIES = (
    vm_create_no_compute,
    failed_image_upload,
    neutron_api_latency,
    linuxbridge_failure,
    ntp_failure,
)
