"""Shared fixtures: clouds, suites, cached characterizations and one
service tamper."""

import threading

import pytest

from repro.openstack.cloud import Cloud
from repro.core.characterize import characterize_suite
from repro.workloads.tempest import TempestSuite, build_suite


@pytest.fixture(scope="session")
def suite():
    """The full 1200-test generated suite."""
    return build_suite()


@pytest.fixture(scope="session")
def small_suite(suite):
    """One test per template (~51 tests), all categories covered."""
    seen = set()
    tests = []
    for test in suite.tests:
        if test.template.name not in seen:
            seen.add(test.template.name)
            tests.append(test)
    return TempestSuite(tests=tests)


@pytest.fixture(scope="session")
def small_character(small_suite):
    """Characterization of the small suite (fast, uncached)."""
    return characterize_suite(small_suite, iterations=2)


@pytest.fixture(scope="session")
def full_character():
    """Characterization of the full suite (disk-cached)."""
    from repro.evaluation.common import default_characterization

    return default_characterization()


@pytest.fixture()
def cloud():
    """A fresh deployment per test."""
    return Cloud(seed=1)


@pytest.fixture()
def quiet_cloud():
    """A deployment without background heartbeats (deterministic traces)."""
    from repro.openstack.config import CloudConfig

    return Cloud(seed=1, config=CloudConfig(heartbeats_enabled=False))


@pytest.fixture()
def snapshot_drain_skips_one(monkeypatch):
    """Tamper ``TenantSession._pump_step`` (the oracles' seam) so that
    the backlog a ``snapshot_state`` analyzes loses its first event,
    while every other analysis (the pump's, a quiesce's or a flush's)
    is left alone.  Returns the seq of each skipped event."""
    from repro.service.session import TenantSession

    snapshot = TenantSession.snapshot_state
    step = TenantSession._pump_step
    in_snapshot = threading.local()
    skipped = []

    def flagged_snapshot(session):
        in_snapshot.on = True
        try:
            return snapshot(session)
        finally:
            in_snapshot.on = False

    def drain_skips_one(session, chunk):
        if getattr(in_snapshot, "on", False):
            skipped.append(chunk[0].seq)
            chunk = chunk[1:]
        step(session, chunk)

    monkeypatch.setattr(TenantSession, "snapshot_state", flagged_snapshot)
    monkeypatch.setattr(TenantSession, "_pump_step", drain_skips_one)
    return skipped
