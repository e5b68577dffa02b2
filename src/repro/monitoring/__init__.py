"""Distributed state monitoring: the Bro + collectd substitute.

Per §5.1, GRETEL deploys three kinds of agents per node:

* **network agents** (:class:`NetworkAgent`) capture REST/RPC traffic
  and stream it, in order, to the analyzer;
* **resource agents** (:class:`ResourceAgent`) poll CPU / memory /
  disk / network / IO once per second;
* **dependency watchers** (:class:`DependencyWatcher`) track the
  health of the software dependencies on each node.

:class:`MonitoringPlane` wires all of them up for a cloud and fans
their outputs into any number of subscribers (normally one GRETEL
analyzer).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.monitoring.network import NetworkAgent
    from repro.monitoring.plane import MonitoringPlane
    from repro.monitoring.resources import ResourceAgent
    from repro.monitoring.store import MetadataStore, WatcherReport
    from repro.monitoring.watchers import DependencyWatcher

__all__ = [
    "DependencyWatcher",
    "MetadataStore",
    "MonitoringPlane",
    "NetworkAgent",
    "ResourceAgent",
    "WatcherReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.monitoring.network": ("NetworkAgent",),
    "repro.monitoring.plane": ("MonitoringPlane",),
    "repro.monitoring.resources": ("ResourceAgent",),
    "repro.monitoring.store": ("MetadataStore", "WatcherReport"),
    "repro.monitoring.watchers": ("DependencyWatcher",),
})
