"""MonitoringPlane: one-call wiring of all agents for a deployment."""

from __future__ import annotations

from typing import Callable, Dict

from repro.openstack.cloud import Cloud
from repro.openstack.wire import WireEvent
from repro.monitoring.network import NetworkAgent
from repro.monitoring.resources import ResourceAgent
from repro.monitoring.store import MetadataStore
from repro.monitoring.watchers import DependencyWatcher

#: Seconds between two resource samples, and between two dependency
#: watcher passes, on every node.
POLL_INTERVAL = 1.0
#: Seconds a network agent takes to forward one captured event.
FORWARD_DELAY = 0.0005


class MonitoringPlane:
    """All monitoring agents for one cloud plus a shared metadata store.

    ``subscribe_events`` connects a wire-event consumer (the GRETEL
    event receiver); resource samples and watcher reports flow into
    :attr:`store` automatically once :meth:`start` is called.
    """

    def __init__(self, cloud: Cloud):
        self.cloud = cloud
        self.store = MetadataStore()
        self.network_agents: Dict[str, NetworkAgent] = {}
        self.resource_agents: Dict[str, ResourceAgent] = {}
        self.watchers: Dict[str, DependencyWatcher] = {}
        for node in cloud.topology.node_names():
            self.network_agents[node] = NetworkAgent(
                cloud, node, forward_delay=FORWARD_DELAY
            )
            resource_agent = ResourceAgent(cloud, node, interval=POLL_INTERVAL)
            resource_agent.subscribe(self.store.add_sample)
            self.resource_agents[node] = resource_agent
            watcher = DependencyWatcher(cloud, node, interval=POLL_INTERVAL)
            watcher.subscribe(self.store.add_watcher_report)
            self.watchers[node] = watcher
        self._started = False

    def subscribe_events(self, callback: Callable[[WireEvent], None]) -> None:
        """Attach a consumer to every node's network agent."""
        for agent in self.network_agents.values():
            agent.subscribe(callback)

    def start(self) -> None:
        """Start periodic resource/watcher polling on every node."""
        if self._started:
            return
        for agent in self.resource_agents.values():
            agent.start()
        for watcher in self.watchers.values():
            watcher.start()
        self._started = True

    def stop(self) -> None:
        """Stop periodic polling everywhere."""
        for agent in self.resource_agents.values():
            agent.stop()
        for watcher in self.watchers.values():
            watcher.stop()
        self._started = False

    def poll_all_once(self) -> None:
        """Force one immediate sample + watcher pass on every node."""
        for agent in self.resource_agents.values():
            agent.poll_once()
        for watcher in self.watchers.values():
            watcher.poll_once()

    @property
    def events_captured(self) -> int:
        """Total wire events captured across all network agents."""
        return sum(agent.captured for agent in self.network_agents.values())
