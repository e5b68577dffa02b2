"""Root cause analysis (Algorithm 3).

GRETEL combines (a) the error metadata from the anomaly detector with
(b) the distributed state collected by the monitoring agents, within
the time span of the context buffer.  The error metadata is the
page's own: its fault event and the error events of its matched
operation(s) — never other errors that happen to share the snapshot,
since a fault propagates along its own operation.  The search is
node-ordered: the source/destination nodes of those errors first,
then — only if nothing anomalous was found there — the remaining
nodes participating in the matched operation(s), because "the root
cause of the error ... may manifest upstream from the actual node
where the fault arose."
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.config import GretelConfig
from repro.core.detector import DetectionResult
from repro.core.reports import RootCauseFinding
from repro.monitoring.store import MetadataStore

#: OpenStack's own service processes are reported by the watchers too;
#: they are legitimate root causes (nova-compute down, ...).
_IGNORED_PROCESSES = frozenset({"apache2"})

#: Resource anomaly thresholds.  CPU is anomalous above its baseline
#: mean plus this many standard deviations ...
CPU_ANOMALY_SIGMAS = 4.0
#: ... and above this utilization in any case.
CPU_ANOMALY_MIN = 0.35
#: Disk is anomalous below either free-space floor.
DISK_FREE_FRACTION_MIN = 0.05
DISK_FREE_GB_MIN = 10.0
#: Memory utilization above which memory is anomalous.
MEM_UTIL_MAX = 0.92
#: How far before the fault the baseline window reaches (seconds).
BASELINE_HORIZON = 60.0


class RootCauseEngine:
    """Algorithm 3 over the monitoring metadata store."""

    def __init__(self, store: MetadataStore,
                 config: Optional[GretelConfig] = None) -> None:
        # Residue: Algorithm 3's thresholds are the constants above,
        # so ``config`` is ignored.  The positional stays because
        # ``benchmarks/e2e/workloads.py`` passes it and may not be
        # edited here — ROADMAP lists it as residue for the next
        # ``benchmark`` PR.
        del config
        self.store = store

    # -- entry point --------------------------------------------------------

    def analyze(self, detection: DetectionResult,
                error_events: object = None) -> List[RootCauseFinding]:
        """GET_ROOT_CAUSE over the page's own error list: the fault,
        then the errors among ``detection.matched_events``.  Their
        nodes are searched first, then the operations' other nodes."""
        # Residue: ignored.  ``benchmarks/e2e/workloads.py`` passes the
        # page's own fault here; ROADMAP lists it with the ledger shims.
        del error_events
        window_start, window_end = detection.window_span
        fault = detection.fault
        error_nodes: Dict[str, None] = {}  # an insertion-ordered set
        for event in (fault, *detection.matched_events):
            if event is fault or event.error:
                for node in (event.dst_node, event.src_node):
                    if node:
                        error_nodes[node] = None

        findings = self._find_root_cause(error_nodes, window_start, window_end)
        if findings:
            return findings

        operation_nodes: Set[str] = set()
        for fingerprint in detection.matched:
            operation_nodes.update(fingerprint.nodes)
        remaining = [
            n for n in sorted(operation_nodes) if n not in error_nodes
        ]
        return self._find_root_cause(remaining, window_start, window_end)

    # -- FIND_ROOT_CAUSE -----------------------------------------------------

    def _find_root_cause(self, nodes: Iterable[str], start: float,
                         end: float) -> List[RootCauseFinding]:
        findings: List[RootCauseFinding] = []
        for node in nodes:
            findings.extend(self._resource_anomalies(node, start, end))
            findings.extend(self._software_anomalies(node, end))
        return findings

    # -- resource metadata ---------------------------------------------------

    def _resource_anomalies(self, node: str, start: float,
                            end: float) -> List[RootCauseFinding]:
        window = self.store.samples_between(node, start - 1.0, end + 1.0)
        if not window:
            latest = self.store.latest_sample(node, before=end + 1.0)
            if latest is None:
                return []
            window = [latest]
        baseline = self.store.baseline_samples(
            node, start - 1.0, horizon=BASELINE_HORIZON
        )
        findings: List[RootCauseFinding] = []

        cpu_now = _mean([s.cpu_util for s in window])
        cpu_base = [s.cpu_util for s in baseline] or [0.05]
        base_mean, base_std = _mean(cpu_base), _std(cpu_base)
        cpu_threshold = max(
            base_mean + CPU_ANOMALY_SIGMAS * max(base_std, 0.01),
            CPU_ANOMALY_MIN,
        )
        if cpu_now > cpu_threshold:
            findings.append(RootCauseFinding(
                node=node, kind="resource", subject="cpu",
                detail=(f"CPU utilization {cpu_now:.0%} vs baseline "
                        f"{base_mean:.0%} (threshold {cpu_threshold:.0%})"),
                value=cpu_now,
            ))

        last = window[-1]
        if (last.disk_free_fraction < DISK_FREE_FRACTION_MIN
                or last.disk_free_gb < DISK_FREE_GB_MIN):
            findings.append(RootCauseFinding(
                node=node, kind="resource", subject="disk",
                detail=(f"only {last.disk_free_gb:.1f} GB free "
                        f"({last.disk_free_fraction:.1%} of capacity)"),
                value=last.disk_free_gb,
            ))

        mem_now = _mean([s.mem_util for s in window])
        if mem_now > MEM_UTIL_MAX:
            findings.append(RootCauseFinding(
                node=node, kind="resource", subject="memory",
                detail=f"memory utilization {mem_now:.0%}",
                value=mem_now,
            ))
        return findings

    # -- software dependencies -----------------------------------------------

    def _software_anomalies(self, node: str,
                            at: float) -> List[RootCauseFinding]:
        findings: List[RootCauseFinding] = []
        for report in self.store.dead_processes(node, at=at + 2.0):
            if report.process in _IGNORED_PROCESSES:
                continue
            findings.append(RootCauseFinding(
                node=node, kind="software", subject=report.process,
                detail=(f"process {report.process} is down "
                        f"(since t={report.ts:.1f})"),
            ))
        return findings


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))
