"""Tests for the workload runner (isolated / concurrent / sustained)."""

import random

import pytest

from repro.openstack.cloud import Cloud
from repro.workloads.runner import WorkloadRunner


@pytest.fixture()
def cloud():
    return Cloud(seed=8)


def test_every_template_runs_green(cloud, small_suite):
    runner = WorkloadRunner(cloud)
    for test in small_suite.tests:
        outcome = runner.run_isolated(test)
        assert outcome.ok, f"{test.name}: {outcome.error}"
        assert outcome.duration > 0


def test_outcome_records_failure(cloud, small_suite):
    cloud.faults.crash_everywhere("nova-compute")
    boot = next(t for t in small_suite.tests
                if t.name.startswith("compute.boot_server"))
    outcome = WorkloadRunner(cloud).run_isolated(boot)
    assert not outcome.ok
    assert "500" in outcome.error


def test_failed_auth_leg_is_a_failed_operation(cloud, suite):
    """NTP dead on the keystone node (§7.2.4): the first call's auth
    leg gets a 401, which the operation records as its failure; the
    simulation goes on."""
    events = []
    cloud.taps.attach_global(events.append)
    cloud.faults.crash_process("ctrl", "ntp")
    outcome = WorkloadRunner(cloud).run_isolated(suite.tests[0])
    assert not outcome.ok
    assert "401" in outcome.error
    auth = [e for e in events
            if e.tenant != "service" and e.name == "/v3/auth/tokens"]
    assert [(e.method, e.status) for e in auth] == [("POST", 401)]


def test_concurrent_runs_all(cloud, suite):
    runner = WorkloadRunner(cloud)
    rng = random.Random(1)
    tests = suite.sample(30, rng)
    outcomes = runner.run_concurrent(tests, stagger=0.01)
    assert len(outcomes) == 30
    assert all(o.ok for o in outcomes)


def test_concurrent_tenants_are_isolated(cloud, suite):
    runner = WorkloadRunner(cloud)
    events = []
    cloud.taps.attach_global(events.append)
    rng = random.Random(2)
    outcomes = runner.run_concurrent(suite.sample(10, rng))
    assert all(o.ok for o in outcomes)
    tenants = {e.tenant for e in events if e.tenant.startswith("tenant-")}
    assert len(tenants) == 10


def test_sustained_keeps_load_until_deadline(cloud, small_suite):
    runner = WorkloadRunner(cloud)
    outcomes = runner.run_sustained(
        small_suite.tests, concurrency=5, duration=10.0, seed=3,
    )
    assert len(outcomes) >= 10
    assert max(o.started for o in outcomes) > 5.0


def test_interleaving_actually_happens(cloud, suite):
    """Concurrent operations' messages must interleave on the wire."""
    events = []
    cloud.taps.attach_global(events.append)
    runner = WorkloadRunner(cloud)
    rng = random.Random(3)
    compute = [t for t in suite.of_category("compute")][:10]
    runner.run_concurrent(compute, stagger=0.005)
    switches = 0
    previous = None
    for event in events:
        if event.op_id and event.op_id != previous:
            switches += 1
            previous = event.op_id
    assert switches > 20
