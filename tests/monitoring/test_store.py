"""Tests for the analyzer-side metadata store."""

import repro.monitoring.store
from repro.openstack.resources import ResourceSample
from repro.monitoring.store import MetadataStore, WatcherReport


def sample(node, ts, cpu=0.1):
    return ResourceSample(
        node=node, ts=ts, cpu_util=cpu, mem_used_mb=1000.0,
        mem_total_mb=131_072.0, disk_free_gb=500.0, disk_total_gb=900.0,
        net_mbps=1.0, disk_io_ops=2.0,
    )


def test_samples_between_inclusive():
    store = MetadataStore()
    for ts in range(10):
        store.add_sample(sample("a", float(ts)))
    window = store.samples_between("a", 3.0, 6.0)
    assert [s.ts for s in window] == [3.0, 4.0, 5.0, 6.0]


def test_samples_between_unknown_node():
    assert MetadataStore().samples_between("x", 0.0, 10.0) == []


def test_latest_sample_with_and_without_bound():
    store = MetadataStore()
    for ts in range(5):
        store.add_sample(sample("a", float(ts)))
    assert store.latest_sample("a").ts == 4.0
    assert store.latest_sample("a", before=2.5).ts == 2.0
    assert store.latest_sample("a", before=-1.0) is None
    assert store.latest_sample("missing") is None


def test_baseline_samples_horizon():
    store = MetadataStore()
    for ts in range(100):
        store.add_sample(sample("a", float(ts)))
    baseline = store.baseline_samples("a", before=90.0, horizon=10.0)
    assert baseline[0].ts == 80.0
    assert baseline[-1].ts == 90.0


def test_watcher_state_timeline():
    store = MetadataStore()
    store.add_watcher_report(WatcherReport("a", 1.0, "ntp", True))
    store.add_watcher_report(WatcherReport("a", 5.0, "ntp", False))
    store.add_watcher_report(WatcherReport("a", 9.0, "ntp", True))
    assert store.process_state("a", "ntp", at=3.0).alive is True
    assert store.process_state("a", "ntp", at=6.0).alive is False
    assert store.process_state("a", "ntp").alive is True
    assert store.process_state("a", "missing") is None


def test_dead_processes_at_time():
    store = MetadataStore()
    store.add_watcher_report(WatcherReport("a", 1.0, "ntp", True))
    store.add_watcher_report(WatcherReport("a", 1.0, "mysql", True))
    store.add_watcher_report(WatcherReport("a", 5.0, "mysql", False))
    assert store.dead_processes("a", at=2.0) == []
    dead = store.dead_processes("a", at=6.0)
    assert [d.process for d in dead] == ["mysql"]


def test_sample_eviction_keeps_recent(monkeypatch):
    monkeypatch.setattr(repro.monitoring.store, "MAX_SAMPLES_PER_NODE", 100)
    store = MetadataStore()
    for ts in range(250):
        store.add_sample(sample("a", float(ts)))
    assert store.latest_sample("a").ts == 249.0
    # Old samples were evicted but the index stays consistent.
    recent = store.samples_between("a", 240.0, 249.0)
    assert len(recent) == 10
