"""Simulated OpenStack deployment — the substrate GRETEL observes.

The paper ran GRETEL against a seven-server OpenStack Liberty testbed.
This package replaces that testbed with a discrete-event simulation
that preserves everything GRETEL can observe:

* the REST calls exchanged between component services and the RPC
  messages routed through the RabbitMQ broker (:mod:`repro.openstack.wire`),
* per-node resource utilization (:mod:`repro.openstack.resources`),
* the health of software dependencies — NTP, MySQL, RabbitMQ, the
  neutron agents, libvirt, ... (:mod:`repro.openstack.software`), and
* the fault manifestations used in the paper's evaluation: API error
  responses, latency level shifts, crashed agents, full disks
  (:mod:`repro.openstack.faults`).

Entry point: :class:`repro.openstack.cloud.Cloud` assembles a
deployment from a :class:`repro.openstack.topology.Topology`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.openstack.apis import Api, ApiKind
    from repro.openstack.catalog import ApiCatalog, build_catalog
    from repro.openstack.cloud import Cloud
    from repro.openstack.errors import ApiError
    from repro.openstack.faults import FaultInjector
    from repro.openstack.topology import Topology, default_topology
    from repro.openstack.wire import WireEvent

__all__ = [
    "Api",
    "ApiCatalog",
    "ApiError",
    "ApiKind",
    "Cloud",
    "FaultInjector",
    "Topology",
    "WireEvent",
    "build_catalog",
    "default_topology",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.openstack.apis": ("Api", "ApiKind"),
    "repro.openstack.catalog": ("ApiCatalog", "build_catalog"),
    "repro.openstack.cloud": ("Cloud",),
    "repro.openstack.errors": ("ApiError",),
    "repro.openstack.faults": ("FaultInjector",),
    "repro.openstack.topology": ("Topology", "default_topology"),
    "repro.openstack.wire": ("WireEvent",),
})
