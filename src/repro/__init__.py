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

from repro.openstack import Cloud, FaultInjector, default_topology
from repro.monitoring import MonitoringPlane
from repro.core import (
    CharacterizationResult,
    FaultReport,
    Fingerprint,
    FingerprintLibrary,
    GretelAnalyzer,
    GretelConfig,
    Incident,
    IncidentAggregator,
    SymbolTable,
    characterize_suite,
)
from repro.workloads import WorkloadRunner, build_suite

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
