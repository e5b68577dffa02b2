"""Fault injection: the experimenter's interface for perturbing the cloud.

Mirrors the mechanisms the paper used on its physical testbed:

* **API error injection** — force a specific API to answer an error
  status (optionally for a bounded number of invocations or a time
  window).  Used by §7.3's precision experiments, where "erroneous
  APIs" are injected into otherwise-healthy workloads.
* **Process faults** — crash/restart a software dependency process
  (``neutron-plugin-linuxbridge-agent``, ``nova-compute``, ``ntp``,
  ``mysql``, ``rabbitmq``...), reproducing §3.1.1, §7.2.3 and §7.2.4.
* **Resource faults** — CPU surges, disk fills, memory pressure on a
  node (§7.2.1, §7.2.2).
* **Network latency injection** — the paper's ``tc`` experiments
  (Fig. 8b): add fixed delay to all traffic touching a node.
* **Service slowdown** — multiply one service's processing time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.openstack.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.openstack.cloud import Cloud


@dataclass
class _ForcedError:
    api_key: str
    status: int
    message: str
    remaining: Optional[int]  # None = unlimited
    start: float
    end: Optional[float]
    op_id: Optional[str] = None   # restrict to one operation instance

    def matches(self, now: float, op_id: str) -> bool:
        """Whether this entry fires for (time, operation) now."""
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.op_id is not None and op_id != self.op_id:
            return False
        if now < self.start:
            return False
        return self.end is None or now < self.end


@dataclass
class _LatencyInjection:
    node: str
    delay: float
    start: float
    end: Optional[float]

    def active(self, now: float) -> bool:
        """Whether the injection window covers ``now``."""
        return self.start <= now and (self.end is None or now < self.end)


class FaultInjector:
    """All fault-injection state for one simulated deployment."""

    def __init__(self, cloud: "Cloud"):
        self.cloud = cloud
        self._forced: Dict[str, List[_ForcedError]] = {}
        #: ``tc`` injections; while empty, links add no delay.
        self.latency_injections: List[_LatencyInjection] = []
        self._service_slowdown: Dict[str, float] = {}
        self.injected_error_count = 0

    # -- API error injection ------------------------------------------------

    def inject_api_error(
        self,
        api_key: str,
        status: int,
        message: str,
        *,
        count: Optional[int] = 1,
        start: float = 0.0,
        end: Optional[float] = None,
        op_id: Optional[str] = None,
    ) -> None:
        """Force ``api_key`` to answer ``status`` for its next ``count``
        invocations (``count=None`` → until ``end``/forever).  With
        ``op_id``, only that operation instance is affected — how the
        evaluation turns one chosen test into a "faulty test case".
        """
        if api_key not in self.cloud.catalog.by_key:
            raise KeyError(f"unknown API key {api_key!r}")
        self._forced.setdefault(api_key, []).append(
            _ForcedError(api_key, status, message, count, start, end, op_id)
        )

    def forced_error(self, api_key: str, op_id: str = "") -> Optional[ApiError]:
        """Consulted by the transport on every dispatch."""
        entries = self._forced.get(api_key)
        if not entries:
            return None
        now = self.cloud.sim.now
        for entry in entries:
            if entry.matches(now, op_id):
                if entry.remaining is not None:
                    entry.remaining -= 1
                self.injected_error_count += 1
                return ApiError(entry.status, entry.message)
        return None

    def clear_api_errors(self, api_key: Optional[str] = None) -> None:
        """Remove forced errors for one API (or all)."""
        if api_key is None:
            self._forced.clear()
        else:
            self._forced.pop(api_key, None)

    # -- process faults ------------------------------------------------------

    def crash_process(self, node: str, name: str) -> None:
        """Kill a dependency process (takes effect immediately)."""
        self.cloud.processes.kill(node, name, self.cloud.sim.now)

    def restart_process(self, node: str, name: str) -> None:
        """Bring a crashed process back."""
        self.cloud.processes.restart(node, name, self.cloud.sim.now)

    def crash_everywhere(self, name: str) -> List[str]:
        """Kill a process on every node that runs it; returns the nodes."""
        nodes = []
        for process in list(self.cloud.processes):
            if process.name == name and process.alive:
                self.cloud.processes.kill(process.node, name, self.cloud.sim.now)
                nodes.append(process.node)
        return nodes

    # -- resource faults -------------------------------------------------------

    def cpu_surge(self, node: str, amount: float,
                  start: Optional[float] = None, end: Optional[float] = None) -> None:
        """Add ``amount`` (0..1) CPU load on ``node`` for [start, end)."""
        begin = self.cloud.sim.now if start is None else start
        self.cloud.resources[node].inject("cpu", amount, begin, end)

    def fill_disk(self, node: str, leave_free_gb: float) -> None:
        """Consume disk on ``node`` until only ``leave_free_gb`` remains."""
        resources = self.cloud.resources[node]
        free = resources.disk_free_gb(self.cloud.sim.now)
        if free > leave_free_gb:
            resources.consume_disk(free - leave_free_gb)

    def memory_pressure(self, node: str, amount_mb: float,
                        start: Optional[float] = None,
                        end: Optional[float] = None) -> None:
        """Add ``amount_mb`` of memory usage on ``node``."""
        begin = self.cloud.sim.now if start is None else start
        self.cloud.resources[node].inject("mem_mb", amount_mb, begin, end)

    # -- network latency injection (tc/netem) --------------------------------------

    def inject_latency(self, node: str, delay: float,
                       start: Optional[float] = None,
                       end: Optional[float] = None) -> None:
        """Add ``delay`` seconds to all traffic to/from ``node``."""
        begin = self.cloud.sim.now if start is None else start
        self.latency_injections.append(
            _LatencyInjection(node, delay, begin, end))

    def extra_net_delay(self, src_node: str, dst_node: str) -> float:
        """Total injected delay on the (src, dst) path right now."""
        now = self.cloud.sim.now
        return sum(
            inj.delay for inj in self.latency_injections
            if inj.active(now) and inj.node in (src_node, dst_node)
        )

    # -- service slowdown -------------------------------------------------------------

    def slow_service(self, service: str, multiplier: float) -> None:
        """Multiply ``service``'s processing time by ``multiplier``."""
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        self._service_slowdown[service] = multiplier

    def reset_service_speed(self, service: str) -> None:
        """Remove a service slowdown."""
        self._service_slowdown.pop(service, None)

    def processing_multiplier(self, service: str) -> float:
        """Consulted by the transport when charging processing time."""
        return self._service_slowdown.get(service, 1.0)
