"""Per-node resource model: CPU, memory, disk and network utilization.

GRETEL's root-cause analysis consumes collectd-style resource samples
per node.  This model produces those samples from three ingredients:

* a static baseline per node,
* dynamic load from in-flight API handler work (each executing handler
  contributes CPU while it runs, so parallel workloads organically push
  utilization and — through :meth:`NodeResources.slowdown` — API
  latency up, reproducing the paper's §3.1.2 / §7.2.2 behaviour), and
* injected perturbations (CPU surges, disk fills, memory pressure)
  used by the fault-injection framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.openstack.topology import NodeSpec


@dataclass(frozen=True)
class ResourceSample:
    """One collectd-style polling snapshot of a node."""

    node: str
    ts: float
    cpu_util: float          # 0..1 across all cores
    mem_used_mb: float
    mem_total_mb: float
    disk_free_gb: float
    disk_total_gb: float
    net_mbps: float
    disk_io_ops: float

    @property
    def mem_util(self) -> float:
        """Memory utilization in 0..1."""
        return self.mem_used_mb / self.mem_total_mb

    @property
    def disk_free_fraction(self) -> float:
        """Free disk as a fraction of capacity."""
        return self.disk_free_gb / self.disk_total_gb


@dataclass
class _Surge:
    """A time-bounded additive perturbation to one metric."""

    metric: str
    start: float
    end: Optional[float]
    amount: float

    def active(self, now: float) -> bool:
        """Whether the perturbation window covers ``now``."""
        return self.start <= now and (self.end is None or now < self.end)


class NodeResources:
    """Dynamic resource state for one node."""

    #: CPU fraction contributed by each in-flight API handler.
    #: Calibrated so the paper's heaviest workload (400 concurrent
    #: operations) loads the busiest node to ~40-50% — matching the
    #: paper's testbed, which was far from saturation — leaving
    #: injected surges plenty of headroom to produce visible level
    #: shifts (Fig. 6, Fig. 8b).
    CPU_PER_INFLIGHT = 0.005
    #: Network Mbps contributed by each in-flight API handler.
    NET_PER_INFLIGHT = 0.8
    #: Disk ops contributed by each in-flight API handler.
    IO_PER_INFLIGHT = 4.0

    def __init__(self, spec: NodeSpec, rng):
        self.spec = spec
        self._rng = rng
        self.inflight = 0
        self.cpu_baseline = 0.03
        self.mem_baseline_mb = 0.18 * spec.mem_total_mb
        self.mem_per_inflight_mb = 6.0
        self.disk_used_gb = 0.25 * spec.disk_total_gb
        self._surges: List[_Surge] = []

    # -- load accounting ---------------------------------------------------

    def enter(self) -> None:
        """Record one more in-flight handler on the node."""
        self.inflight += 1

    def leave(self) -> None:
        """Record completion of an in-flight handler."""
        if self.inflight <= 0:
            raise RuntimeError(f"inflight underflow on {self.spec.name}")
        self.inflight -= 1

    # -- perturbations -------------------------------------------------------

    def inject(self, metric: str, amount: float, start: float,
               end: Optional[float] = None) -> None:
        """Add a perturbation: ``cpu`` (0..1), ``mem_mb``, ``disk_used_gb``,
        ``net_mbps`` or ``disk_io``, active from ``start`` until ``end``
        (``None`` = forever)."""
        valid = {"cpu", "mem_mb", "disk_used_gb", "net_mbps", "disk_io"}
        if metric not in valid:
            raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(valid)}")
        self._surges.append(_Surge(metric, start, end, amount))

    def consume_disk(self, gb: float) -> None:
        """Permanently consume disk space (e.g. an image upload)."""
        self.disk_used_gb = min(self.spec.disk_total_gb, self.disk_used_gb + gb)

    def release_disk(self, gb: float) -> None:
        """Free disk space."""
        self.disk_used_gb = max(0.0, self.disk_used_gb - gb)

    def _surge_total(self, metric: str, now: float) -> float:
        if not self._surges:
            return 0  # what the sum of nothing is, bit for bit
        return sum(s.amount for s in self._surges if s.metric == metric and s.active(now))

    # -- derived state -------------------------------------------------------

    def cpu_util(self, now: float) -> float:
        """Instantaneous CPU utilization in 0..1."""
        util = (
            self.cpu_baseline
            + self.CPU_PER_INFLIGHT * self.inflight
            + self._surge_total("cpu", now)
        )
        return max(0.0, min(1.0, util))

    def disk_free_gb(self, now: float) -> float:
        """Free disk space in GB."""
        used = self.disk_used_gb + self._surge_total("disk_used_gb", now)
        return max(0.0, self.spec.disk_total_gb - used)

    def mem_used_mb(self, now: float) -> float:
        """Memory in use, MB."""
        used = (
            self.mem_baseline_mb
            + self.mem_per_inflight_mb * self.inflight
            + self._surge_total("mem_mb", now)
        )
        return max(0.0, min(float(self.spec.mem_total_mb), used))

    def slowdown(self, now: float) -> float:
        """Latency multiplier induced by CPU contention.

        Convex in utilization so that moderate load barely matters but
        saturation produces the pronounced level shifts the paper's
        outlier detector keys on (Fig. 6).
        """
        util = self.cpu_util(now)
        return 1.0 + 6.0 * util * util

    def sample(self, now: float) -> ResourceSample:
        """Produce one collectd-style snapshot with measurement jitter."""
        jitter = 1.0 + self._rng.uniform(-0.02, 0.02)
        net = (
            self.NET_PER_INFLIGHT * self.inflight
            + self._surge_total("net_mbps", now)
            + self._rng.uniform(0.0, 0.5)
        )
        io = (
            self.IO_PER_INFLIGHT * self.inflight
            + self._surge_total("disk_io", now)
            + self._rng.uniform(0.0, 2.0)
        )
        return ResourceSample(
            node=self.spec.name,
            ts=now,
            cpu_util=min(1.0, self.cpu_util(now) * jitter),
            mem_used_mb=self.mem_used_mb(now) * jitter,
            mem_total_mb=float(self.spec.mem_total_mb),
            disk_free_gb=self.disk_free_gb(now),
            disk_total_gb=float(self.spec.disk_total_gb),
            net_mbps=net,
            disk_io_ops=io,
        )
