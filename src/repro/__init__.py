"""GRETEL reproduction: lightweight fault localization for OpenStack.

A full Python reproduction of *GRETEL: Lightweight Fault Localization
for OpenStack* (CoNEXT 2016), including the simulated OpenStack
substrate it runs against.

Quickstart::

    from repro import (
        Cloud, MonitoringPlane, GretelAnalyzer,
        build_suite, characterize_suite, WorkloadRunner,
    )

    suite = build_suite()
    character = characterize_suite(suite, iterations=2)

    cloud = Cloud(seed=42)
    plane = MonitoringPlane(cloud)
    analyzer = GretelAnalyzer(character.library, store=plane.store)
    plane.subscribe_events(analyzer.on_event)
    plane.start()

    cloud.faults.crash_process("compute-1", "neutron-plugin-linuxbridge-agent")
    WorkloadRunner(cloud).run_isolated(suite.tests[0])
    analyzer.flush()
    for report in analyzer.reports:
        print(report.summary())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.characterize import (
        CharacterizationResult,
        characterize_suite,
    )
    from repro.core.config import GretelConfig
    from repro.core.fingerprint import Fingerprint, FingerprintLibrary
    from repro.core.incidents import Incident, IncidentAggregator
    from repro.core.reports import FaultReport
    from repro.core.symbols import SymbolTable
    from repro.monitoring.plane import MonitoringPlane
    from repro.openstack.cloud import Cloud
    from repro.openstack.faults import FaultInjector
    from repro.openstack.topology import default_topology
    from repro.workloads.runner import WorkloadRunner
    from repro.workloads.tempest import build_suite

__version__ = "1.0.0"

__all__ = [
    "CharacterizationResult",
    "Cloud",
    "FaultInjector",
    "FaultReport",
    "Fingerprint",
    "FingerprintLibrary",
    "GretelAnalyzer",
    "GretelConfig",
    "Incident",
    "IncidentAggregator",
    "MonitoringPlane",
    "SymbolTable",
    "WorkloadRunner",
    "build_suite",
    "characterize_suite",
    "default_topology",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.analyzer": ("GretelAnalyzer",),
    "repro.core.characterize": (
        "CharacterizationResult", "characterize_suite",
    ),
    "repro.core.config": ("GretelConfig",),
    "repro.core.fingerprint": ("Fingerprint", "FingerprintLibrary"),
    "repro.core.incidents": ("Incident", "IncidentAggregator"),
    "repro.core.reports": ("FaultReport",),
    "repro.core.symbols": ("SymbolTable",),
    "repro.monitoring.plane": ("MonitoringPlane",),
    "repro.openstack.cloud": ("Cloud",),
    "repro.openstack.faults": ("FaultInjector",),
    "repro.openstack.topology": ("default_topology",),
    "repro.workloads.runner": ("WorkloadRunner",),
    "repro.workloads.tempest": ("build_suite",),
})
