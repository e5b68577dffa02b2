"""Tests for the assembled GRETEL analyzer service."""

import pytest

from repro.openstack.apis import ApiKind
from repro.openstack.cloud import Cloud
from repro.openstack.wire import WireEvent
from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.monitoring.plane import MonitoringPlane
from repro.monitoring.store import MetadataStore, WatcherReport
from repro.workloads.runner import WorkloadRunner


@pytest.fixture()
def wired(small_character):
    cloud = Cloud(seed=21)
    plane = MonitoringPlane(cloud)
    analyzer = GretelAnalyzer(small_character.library, store=plane.store)
    plane.subscribe_events(analyzer.on_event)
    plane.start()
    return cloud, plane, analyzer


def find_test(suite, prefix):
    return next(t for t in suite.tests if t.name.startswith(prefix))


def test_alpha_from_config_and_library(small_character):
    analyzer = GretelAnalyzer(small_character.library,
                              config=GretelConfig(p_rate=150.0))
    assert analyzer.alpha == 2 * max(small_character.library.fp_max, 150)


def test_healthy_run_produces_no_reports(wired, small_suite):
    cloud, plane, analyzer = wired
    runner = WorkloadRunner(cloud)
    outcome = runner.run_isolated(find_test(small_suite, "compute.boot_server"),
                                  settle=2.0)
    analyzer.flush()
    assert outcome.ok
    assert analyzer.reports == []
    assert analyzer.events_processed > 10


def test_operational_fault_produces_report(wired, small_suite):
    cloud, plane, analyzer = wired
    cloud.faults.crash_everywhere("nova-compute")
    runner = WorkloadRunner(cloud)
    outcome = runner.run_isolated(find_test(small_suite, "compute.boot_server"),
                                  settle=2.0)
    analyzer.flush()
    assert not outcome.ok
    assert len(analyzer.operational_reports) >= 1
    report = analyzer.operational_reports[0]
    assert report.kind == "operational"
    assert report.fault_event.status >= 400
    assert report.summary()


def test_snapshot_triggers_only_on_rest_errors(wired, small_suite):
    cloud, plane, analyzer = wired
    cloud.faults.crash_everywhere("nova-compute")
    runner = WorkloadRunner(cloud)
    runner.run_isolated(find_test(small_suite, "compute.boot_server"), settle=2.0)
    analyzer.flush()
    for report in analyzer.operational_reports:
        assert report.fault_event.is_rest


def test_deferred_detection_queues_snapshots(small_character, small_suite):
    cloud = Cloud(seed=22)
    plane = MonitoringPlane(cloud)
    analyzer = GretelAnalyzer(small_character.library, store=plane.store,
                              defer_detection=True)
    plane.subscribe_events(analyzer.on_event)
    plane.start()
    cloud.faults.crash_everywhere("nova-compute")
    WorkloadRunner(cloud).run_isolated(
        find_test(small_suite, "compute.boot_server"), settle=2.0)
    analyzer.flush()
    assert analyzer.reports == []
    drained = analyzer.process_deferred()
    assert drained >= 1
    assert len(analyzer.reports) == drained


def test_report_listener_invoked(wired, small_suite):
    cloud, plane, analyzer = wired
    seen = []
    analyzer.on_report(seen.append)
    cloud.faults.crash_everywhere("nova-compute")
    WorkloadRunner(cloud).run_isolated(
        find_test(small_suite, "compute.boot_server"), settle=2.0)
    analyzer.flush()
    assert seen == analyzer.reports


def test_bytes_accounting(wired, small_suite):
    cloud, plane, analyzer = wired
    WorkloadRunner(cloud).run_isolated(
        find_test(small_suite, "misc.keypair_queries"), settle=1.0)
    assert analyzer.bytes_processed > 0
    assert analyzer.bytes_processed >= analyzer.events_processed * 100


def test_report_delay_bounded_by_window(wired, small_suite):
    cloud, plane, analyzer = wired
    cloud.faults.crash_everywhere("nova-compute")
    WorkloadRunner(cloud).run_isolated(
        find_test(small_suite, "compute.boot_server"), settle=2.0)
    analyzer.flush()
    for report in analyzer.operational_reports:
        assert report.report_delay >= 0.0


def test_page_names_only_its_own_error_nodes(small_character):
    """Alg. 3 reads the page's own error list: an unrelated error that
    shares the snapshot (an RPC failure on another node, with a dead
    process there too) must not leak into the page's root causes."""
    def event(seq, api_key, src_node, dst_node, status=200):
        kind, service, method, name = api_key.split(":", 3)
        return WireEvent(
            seq=seq, api_key=api_key,
            kind=ApiKind.REST if kind == "rest" else ApiKind.RPC,
            method=method, name=name, src_service="horizon",
            src_node=src_node, src_ip="10.0.0.1", dst_service=service,
            dst_node=dst_node, dst_ip="10.0.0.2",
            ts_request=seq * 0.1 - 0.01, ts_response=seq * 0.1,
            status=status,
        )

    store = MetadataStore()
    store.add_watcher_report(WatcherReport("nova-ctl", 0.0, "nova-api",
                                           False))
    store.add_watcher_report(WatcherReport("cinder-node", 0.0, "ntp",
                                           False))
    analyzer = GretelAnalyzer(small_character.library, store=store)
    healthy = "rest:nova:GET:/v2.1/servers"
    events = [event(seq, healthy, "ctrl", "nova-ctl")
              for seq in range(1, 6)]
    events.append(event(6, "rpc:cinder:cast:create_volume",
                        "cinder-node", "cinder-node", status=500))
    events += [event(seq, healthy, "ctrl", "nova-ctl")
               for seq in range(7, 12)]
    events.append(event(12, "rest:nova:GET:/v2.1/servers/{id}",
                        "ctrl", "nova-ctl", status=500))
    analyzer.feed(events)
    analyzer.flush()

    [report] = analyzer.reports
    assert report.fault_event.seq == 12
    assert [(c.node, c.subject) for c in report.root_causes] == [
        ("nova-ctl", "nova-api"),
    ]
