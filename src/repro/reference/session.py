"""The synchronous tenant router: ``verify_service``'s reference half.

The service's first router, and its default until the pump router
replaced it: ``submit()`` appends to a plain deque and, under
``"block"`` with a full queue, drains the whole backlog *inline on
the submitter's thread*.  Single-threaded and deterministic — given a
stream it has exactly one execution, which is what makes it a
reference for the concurrent
:class:`repro.service.session.TenantSession`.

It is deliberately its own class sharing no code with the pump: the
oracle's negative tests tamper with ``TenantSession._pump_step`` and
rely on this half never noticing (``docs/service.md``).  It carries
only what the oracle compares — the report fan-out, the four
``repro.service.oracle.COUNTER_FIELDS`` and the analyzer whose stats
and final state are read — so no pump and no checkpoint state: the
service half is the one killed and restarted.  Like the pump session it keeps no reports: each
is fanned out and ``drain`` empties the analyzer's log
(``shed_logs``), so it holds only its queue and the analyzer's window
(≤ α).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List

from repro.core.reports import FaultReport
from repro.openstack.wire import WireEvent


class SyncSession:
    """Bounded-queue session for one tenant, drained on the caller."""

    def __init__(
        self,
        tenant: str,
        analyzer: Any,
        *,
        queue_capacity: int = 4096,
        policy: str = "block",
    ) -> None:
        if policy not in ("block", "shed"):
            raise ValueError(f"unknown backpressure policy {policy!r}")
        self.tenant = tenant
        self.analyzer = analyzer
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.queue: Deque[WireEvent] = deque()
        self.events_ingested = 0
        self.events_analyzed = 0
        self.events_shed = 0
        self.reports_emitted = 0
        self.sealed = False
        self._sinks: List[Callable[[str, FaultReport], None]] = []
        analyzer.on_report(self._on_report)

    def on_report(self, sink: Callable[[str, FaultReport], None]) -> None:
        """Register a ``(tenant, report)`` consumer."""
        self._sinks.append(sink)

    def _on_report(self, report: FaultReport) -> None:
        self.reports_emitted += 1
        for sink in self._sinks:
            sink(self.tenant, report)

    def submit(self, event: WireEvent) -> bool:
        """Offer one event; returns False iff it was shed (or sealed).

        With ``"block"`` a full queue drains inline on this thread
        before the event is accepted — the stall *is* the
        backpressure; with ``"shed"`` it is dropped and counted.
        """
        if self.sealed:
            self.events_shed += 1
            return False
        if len(self.queue) >= self.queue_capacity:
            if self.policy == "shed":
                self.events_shed += 1
                return False
            self.drain()
        self.queue.append(event)
        self.events_ingested += 1
        return True

    def drain(self) -> int:
        """Run queued events through the pipeline; returns the count."""
        drained = len(self.queue)
        while self.queue:
            self.analyzer.on_event(self.queue.popleft())
        self.events_analyzed += drained
        # Hand off pipeline-internal logs (already fanned out).
        self.analyzer.shed_logs()
        return drained

    def flush(self) -> None:
        """Drain the queue, then freeze pending pipeline snapshots."""
        self.drain()
        self.analyzer.flush()
        self.analyzer.shed_logs()

    def close(self) -> None:
        """Seal (later submits are counted shed) and release the
        analyzer; flush first — queued events are not analyzed."""
        self.sealed = True
        self.analyzer.close()
