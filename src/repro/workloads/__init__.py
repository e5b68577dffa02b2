"""Workloads: administrative operations and the Tempest-like suite.

The paper fingerprints OpenStack operations by executing the Tempest
integration suite (1645 tests, 1200 runnable on its setup) in
isolation, then evaluates precision by running randomly-mixed tests
concurrently with injected faults.  This package provides:

* :mod:`repro.workloads.toolkit` — a typed client for scripting
  administrative operations against the simulated cloud;
* :mod:`repro.workloads.templates` — parameterized operation templates
  per category (Compute / Image / Network / Storage / Misc);
* :mod:`repro.workloads.tempest` — the generated 1200-test suite with
  the paper's category mix (Table 1);
* :mod:`repro.workloads.runner` — isolated and concurrent execution;
* :mod:`repro.workloads.traffic` — the tcpreplay-style synthetic
  event-stream generator used for throughput stress tests (§7.4.1).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.tempest import TempestSuite, TempestTest, build_suite
    from repro.workloads.runner import OperationOutcome, WorkloadRunner
    from repro.workloads.toolkit import OpenStackClient, OperationFailed

__all__ = [
    "OpenStackClient",
    "OperationFailed",
    "OperationOutcome",
    "TempestSuite",
    "TempestTest",
    "WorkloadRunner",
    "build_suite",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.tempest": ("TempestSuite", "TempestTest", "build_suite"),
    "repro.workloads.runner": ("OperationOutcome", "WorkloadRunner"),
    "repro.workloads.toolkit": ("OpenStackClient", "OperationFailed"),
})
