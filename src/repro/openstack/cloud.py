"""Cloud: the assembled simulated OpenStack deployment.

One :class:`Cloud` owns a simulator, a topology, the shared MySQL and
RabbitMQ models, per-node resources and software processes, the seven
component services, the transport, the tap bus and a fault injector.

Typical use::

    cloud = Cloud(seed=7)
    ctx = cloud.client_context(op_id="op-1")

    def operation():
        response = yield from ctx.rest("nova", "POST", "/v2.1/servers",
                                       {"name": "vm-1"})
        ...

    process = cloud.sim.spawn(operation())
    cloud.run_until([process])
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional

from repro.sim import Process, RandomStreams, Simulator, Timeout
from repro.openstack.broker import Broker
from repro.openstack.catalog import ApiCatalog, default_catalog
from repro.openstack.config import CloudConfig
from repro.openstack.database import Database
from repro.openstack.faults import FaultInjector
from repro.openstack.messaging import CallContext, Transport
from repro.openstack.resources import NodeResources
from repro.openstack.services import (
    CinderService,
    GlanceService,
    KeystoneService,
    NeutronService,
    NovaService,
    SwiftService,
)
from repro.openstack.software import ProcessTable
from repro.openstack.topology import Topology, default_topology
from repro.openstack.wire import TapBus

#: Heartbeat-emitting agents: (process name, RPC topic service, method).
_HEARTBEAT_AGENTS = (
    ("nova-compute", "nova", "report_state"),
    ("neutron-plugin-linuxbridge-agent", "neutron", "report_state"),
    ("cinder-volume", "cinder", "report_state"),
)


class Cloud:
    """A fully-wired simulated OpenStack deployment."""

    def __init__(
        self,
        *,
        sim: Optional[Simulator] = None,
        topology: Optional[Topology] = None,
        config: Optional[CloudConfig] = None,
        catalog: Optional[ApiCatalog] = None,
        seed: int = 0,
    ):
        self.sim = sim or Simulator()
        self.topology = topology or default_topology()
        self.config = config or CloudConfig()
        self.catalog = catalog or default_catalog()
        self.rnd = RandomStreams(seed)

        self.processes = ProcessTable()
        for node in self.topology.nodes:
            for process_name in node.processes:
                self.processes.install(node.name, process_name)

        self.resources: Dict[str, NodeResources] = {
            node.name: NodeResources(node, self.rnd.stream(f"resources.{node.name}"))
            for node in self.topology.nodes
        }

        broker_home = self.topology.home_of("keystone")  # the ctrl node
        self.db = Database(self.sim, self.processes, broker_home)
        self.broker = Broker(self.processes, self.topology, broker_home)
        self.taps = TapBus()
        self.faults = FaultInjector(self)
        self.transport = Transport(self)

        self.services = {
            service.name: service
            for service in (
                KeystoneService(self),
                NovaService(self),
                NeutronService(self),
                GlanceService(self),
                CinderService(self),
                SwiftService(self),
            )
        }
        self._heartbeat_processes: List[Process] = []
        if self.config.heartbeats_enabled:
            self.start_heartbeats()

    # -- contexts ------------------------------------------------------------

    def client_context(
        self,
        caller: str = "client",
        node: Optional[str] = None,
        tenant: str = "demo",
        op_id: str = "",
        test_id: str = "",
    ) -> CallContext:
        """A tenant-facing caller context (CLI / dashboard)."""
        home = node or self.topology.home_of("horizon")
        return CallContext(self, caller, home, tenant=tenant, op_id=op_id, test_id=test_id)

    # -- background heartbeats ---------------------------------------------------

    def start_heartbeats(self) -> None:
        """Spawn the periodic report_state RPC emitters on every agent."""
        for node in self.topology.nodes:
            for process_name, topic, method in _HEARTBEAT_AGENTS:
                if self.processes.has(node.name, process_name):
                    process = self.sim.spawn(
                        self._heartbeat_loop(node.name, process_name, topic, method),
                        name=f"heartbeat:{node.name}:{process_name}",
                    )
                    self._heartbeat_processes.append(process)

    def stop_heartbeats(self) -> None:
        """Kill all heartbeat emitters (lets ``sim.run()`` drain)."""
        for process in self._heartbeat_processes:
            process.kill()
        self._heartbeat_processes.clear()

    def _heartbeat_loop(self, node: str, process_name: str,
                        topic: str, method: str) -> Generator:
        ctx = CallContext(self, topic, node, tenant="service")
        rng = self.rnd.stream(f"heartbeat.{node}.{process_name}")
        # Desynchronize agents so heartbeats do not fire in lockstep.
        yield Timeout(rng.uniform(0.0, self.config.heartbeat_interval))
        while True:
            if self.processes.is_alive(node, process_name):
                yield from ctx.rpc(topic, method, {"host": node})
            yield Timeout(self.config.heartbeat_interval * rng.uniform(0.95, 1.05))

    # -- running ------------------------------------------------------------------

    def run_until(self, processes: Iterable[Process], limit: float = 3600.0) -> float:
        """Advance the simulation until all ``processes`` finish.

        Background activity (heartbeats, async casts) keeps the event
        heap non-empty forever, so a plain ``run()`` would not return;
        :meth:`Simulator.run_processes` drains the heap until the given
        processes are done (or a step passes ``limit`` simulated
        seconds, which raises :class:`TimeoutError`).
        """
        pending = list(processes)
        if not self.sim.run_processes(pending, self.sim.now + limit):
            raise TimeoutError(
                f"run_until exceeded {limit}s; "
                f"{sum(p.alive for p in pending)} processes still alive"
            )
        return self.sim.now

    def settle(self, duration: float) -> float:
        """Run the clock forward by ``duration`` (drain async casts)."""
        return self.sim.run(until=self.sim.now + duration)
