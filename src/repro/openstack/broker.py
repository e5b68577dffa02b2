"""Simulated RabbitMQ broker routing all intra-service RPC traffic.

OpenStack mandates that every RPC is channelled through RabbitMQ (§2):
an RPC from the Nova controller to ``nova-compute`` on a compute node
travels source → broker node → target node.  The broker model captures
the two things GRETEL can observe about that path:

* the extra network hop (and queueing delay) it adds to RPC latency,
* total unavailability when the ``rabbitmq`` process is down, which
  surfaces as ``MessagingTimeout`` errors in the RPC stream.
"""

from __future__ import annotations

import itertools

from repro.openstack.software import ProcessTable
from repro.openstack.topology import Topology


class Broker:
    """The message broker: availability plus per-hop delay accounting."""

    #: Broker-internal queueing/dispatch delay per message, seconds.
    QUEUE_DELAY = 0.0003
    #: How long an RPC waits before giving up when the broker or the
    #: consumer is unreachable, seconds (oslo.messaging default order).
    TIMEOUT = 2.0

    def __init__(self, processes: ProcessTable, topology: Topology, host_node: str):
        self.processes = processes
        self.topology = topology
        self.host_node = host_node
        self._msg_ids = itertools.count(1)

    @property
    def available(self) -> bool:
        """True while the rabbitmq process on the broker node runs."""
        return self.processes.is_alive(self.host_node, "rabbitmq")

    def new_message_id(self) -> str:
        """A fresh oslo.messaging-style message identifier."""
        return f"msg-{next(self._msg_ids):010d}"

    def hop_delay(self, src_node: str, dst_node: str) -> float:
        """One-way delay src → broker → dst, including queueing."""
        return (
            self.topology.latency(src_node, self.host_node)
            + self.QUEUE_DELAY
            + self.topology.latency(self.host_node, dst_node)
        )
