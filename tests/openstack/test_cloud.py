"""Tests for the assembled Cloud."""

import pytest

from repro.sim import Timeout
from repro.openstack.broker import Broker
from repro.openstack.cloud import Cloud
from repro.openstack.config import CloudConfig


def test_all_services_deployed(cloud):
    assert set(cloud.services) == {
        "keystone", "nova", "neutron", "glance", "cinder", "swift",
    }


def test_processes_installed_from_topology(cloud):
    assert cloud.processes.is_alive("ctrl", "mysql")
    assert cloud.processes.is_alive("ctrl", "rabbitmq")
    assert cloud.processes.is_alive("compute-1", "nova-compute")
    assert len(cloud.processes) == sum(
        len(node.processes) for node in cloud.topology.nodes
    )


def test_resources_per_node(cloud):
    assert set(cloud.resources) == set(cloud.topology.node_names())


def test_heartbeats_emit_noise_rpcs():
    cloud = Cloud(seed=13)  # heartbeats on by default
    events = []
    cloud.taps.attach_global(events.append)
    cloud.sim.run(until=25.0)
    heartbeats = [e for e in events if e.noise and e.name == "report_state"]
    assert len(heartbeats) >= 6  # 3 computes x 2 agents + cinder-volume
    sources = {e.src_node for e in heartbeats}
    assert "compute-1" in sources


def test_heartbeats_stop_with_dead_process():
    cloud = Cloud(seed=13)
    events = []
    cloud.taps.attach_global(events.append)
    cloud.faults.crash_process("compute-1", "nova-compute")
    cloud.sim.run(until=25.0)
    nova_hb = [e for e in events
               if e.noise and e.name == "report_state"
               and e.src_node == "compute-1" and e.dst_service == "nova"]
    assert nova_hb == []


def test_stop_heartbeats_allows_drain():
    cloud = Cloud(seed=13)
    cloud.stop_heartbeats()
    cloud.sim.run()  # terminates because nothing is pending forever
    assert cloud.sim.pending == 0


def test_quiet_config_has_no_heartbeats(quiet_cloud):
    events = []
    quiet_cloud.taps.attach_global(events.append)
    quiet_cloud.sim.run(until=30.0)
    assert events == []


def test_run_until_times_out(quiet_cloud):
    def forever():
        while True:
            yield Timeout(1.0)

    process = quiet_cloud.sim.spawn(forever())
    with pytest.raises(TimeoutError):
        quiet_cloud.run_until([process], limit=5.0)


def test_settle_advances_clock(quiet_cloud):
    before = quiet_cloud.sim.now
    quiet_cloud.settle(2.5)
    assert quiet_cloud.sim.now == pytest.approx(before + 2.5)


def test_client_context_defaults(cloud):
    ctx = cloud.client_context()
    assert ctx.node == "ctrl"
    assert ctx.service == "client"
    assert ctx.tenant == "demo"


def test_broker_message_ids_unique():
    cloud = Cloud(seed=1)
    ids = {cloud.broker.new_message_id() for _ in range(100)}
    assert len(ids) == 100


def test_broker_hop_delay_includes_queueing():
    cloud = Cloud(seed=1)
    direct = cloud.topology.latency("nova-ctl", "compute-1")
    via_broker = cloud.broker.hop_delay("nova-ctl", "compute-1")
    assert via_broker > direct
    assert via_broker >= Broker.QUEUE_DELAY


def test_broker_unavailable_when_rabbitmq_dead():
    cloud = Cloud(seed=1)
    assert cloud.broker.available
    cloud.faults.crash_process("ctrl", "rabbitmq")
    assert not cloud.broker.available


def test_database_unavailable_when_mysql_dead(quiet_cloud):
    """With MySQL down even authentication fails: the exchange ends
    with the Keystone leg's error response, returned like any other
    error response, and the glance call never goes out."""
    quiet_cloud.faults.crash_process("ctrl", "mysql")
    events = []
    quiet_cloud.taps.attach_global(events.append)
    ctx = quiet_cloud.client_context()
    result = []

    def proc():
        result.append((yield from ctx.rest("glance", "GET", "/v2/images")))

    process = quiet_cloud.sim.spawn(proc())
    quiet_cloud.run_until([process])
    assert result[0].status == 503
    assert "MySQL" in result[0].body
    assert [(e.method, e.name) for e in events] == [
        ("POST", "/v3/auth/tokens")]


def test_database_error_midway_returns_500_series(quiet_cloud):
    """With MySQL dying *after* authentication, the service answers an
    error response instead of raising."""
    ctx = quiet_cloud.client_context()
    result = []

    def proc():
        first = yield from ctx.rest("glance", "GET", "/v2/images")
        quiet_cloud.faults.crash_process("ctrl", "mysql")
        second = yield from ctx.rest("glance", "GET", "/v2/images")
        result.append((first, second))

    process = quiet_cloud.sim.spawn(proc())
    quiet_cloud.run_until([process])
    first, second = result[0]
    assert first.ok
    assert second.status == 503
    # Either the DB error surfaces directly, or the (also DB-backed)
    # Keystone validation fails first — both are faithful manifestations.
    assert "MySQL" in second.body or "Keystone" in second.body
