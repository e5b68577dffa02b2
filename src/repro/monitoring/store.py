"""The analyzer-side store of distributed state metadata.

Resource samples and watcher reports stream in from the monitoring
agents; the root-cause engine queries them by node and time window
(Algorithm 3 operates on "the duration of events captured in the
context buffer").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.openstack.resources import ResourceSample

#: Samples kept per node; past it, the older half is dropped.
MAX_SAMPLES_PER_NODE = 100_000


@dataclass(frozen=True)
class WatcherReport:
    """One dependency-watcher observation."""

    node: str
    ts: float
    process: str
    alive: bool


class MetadataStore:
    """Time-indexed resource samples and watcher reports per node."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[ResourceSample]] = {}
        self._sample_ts: Dict[str, List[float]] = {}
        self._watcher: Dict[Tuple[str, str], List[WatcherReport]] = {}

    # -- ingestion ---------------------------------------------------------

    def add_sample(self, sample: ResourceSample) -> None:
        """Record one collectd-style resource sample."""
        samples = self._samples.setdefault(sample.node, [])
        stamps = self._sample_ts.setdefault(sample.node, [])
        samples.append(sample)
        stamps.append(sample.ts)
        if len(samples) > MAX_SAMPLES_PER_NODE:
            del samples[: len(samples) // 2]
            del stamps[: len(stamps) // 2]

    def add_watcher_report(self, report: WatcherReport) -> None:
        """Record one dependency-watcher observation."""
        self._watcher.setdefault((report.node, report.process), []).append(report)

    # -- queries -------------------------------------------------------------

    def samples_between(self, node: str, start: float, end: float) -> List[ResourceSample]:
        """Resource samples for ``node`` with ``start <= ts <= end``."""
        stamps = self._sample_ts.get(node, [])
        samples = self._samples.get(node, [])
        lo = bisect.bisect_left(stamps, start)
        hi = bisect.bisect_right(stamps, end)
        return samples[lo:hi]

    def latest_sample(self, node: str, before: Optional[float] = None) -> Optional[ResourceSample]:
        """Most recent sample for ``node`` (optionally at/before ``before``)."""
        samples = self._samples.get(node, [])
        if not samples:
            return None
        if before is None:
            return samples[-1]
        stamps = self._sample_ts[node]
        index = bisect.bisect_right(stamps, before) - 1
        return samples[index] if index >= 0 else None

    def baseline_samples(self, node: str, before: float,
                         horizon: float = 60.0) -> List[ResourceSample]:
        """Samples in the pre-window used as a healthy baseline."""
        return self.samples_between(node, before - horizon, before)

    def processes_on(self, node: str) -> List[str]:
        """Process names the watchers have reported for ``node``."""
        return sorted({p for (n, p) in self._watcher if n == node})

    def process_state(self, node: str, process: str,
                      at: Optional[float] = None) -> Optional[WatcherReport]:
        """Latest watcher report for (node, process) at/before ``at``."""
        reports = self._watcher.get((node, process), [])
        if not reports:
            return None
        if at is None:
            return reports[-1]
        latest = None
        for report in reports:
            if report.ts <= at:
                latest = report
            else:
                break
        return latest

    def dead_processes(self, node: str, at: Optional[float] = None) -> List[WatcherReport]:
        """Processes most recently reported dead on ``node``."""
        dead = []
        for process in self.processes_on(node):
            state = self.process_state(node, process, at)
            if state is not None and not state.alive:
                dead.append(state)
        return dead
