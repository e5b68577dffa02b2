"""The central GRETEL analyzer service (serial execution engine).

The full §5 chain behind one ``on_event`` entry point:

1. **event receiver** — every wire event from the network agents lands
   here, in per-agent FIFO order;
2. **anomaly detector** — REST error statuses trigger the snapshot
   mechanism on the dual-buffer sliding window; per-API latencies feed
   the level-shift detectors;
3. **operation detection** — frozen snapshots run Algorithm 2;
4. **root cause analysis** — matched operations plus the monitoring
   metadata run Algorithm 3;
5. a :class:`~repro.core.reports.FaultReport` is appended to
   :attr:`reports`.

The chain itself is
:class:`repro.core.pipeline.graph.AnalysisPipeline` (see
``docs/architecture.md``); this class *is* one and adds only the
receiver: ``on_event`` / ``feed``.  The analyzer stays deliberately
synchronous and allocation-light: the paper's throughput claims
(§7.4.1) rest on the sliding window and the snapshot path being
cheap, and the benchmark harness measures exactly this object's
``on_event`` loop.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline.graph import AnalysisPipeline
from repro.core.pipeline.middleware import StageObserver
from repro.core.reports import FaultReport
from repro.core.symbols import SymbolTable
from repro.monitoring.store import MetadataStore


class GretelAnalyzer(AnalysisPipeline):
    """The assembled analyzer service (serial engine)."""

    def __init__(
        self,
        library: FingerprintLibrary,
        symbols: Optional[SymbolTable] = None,
        catalog: Optional[ApiCatalog] = None,
        store: Optional[MetadataStore] = None,
        config: Optional[GretelConfig] = None,
        track_latency: bool = True,
        defer_detection: bool = False,
        *,
        middleware: Sequence[StageObserver] = (),
        report_listeners: Sequence[
            Callable[[FaultReport], None]
        ] = (),
    ):
        super().__init__(
            library, symbols=symbols, catalog=catalog, store=store,
            config=config, track_latency=track_latency,
            defer_detection=defer_detection,
            middleware=middleware, report_listeners=report_listeners,
        )

    # -- the event receiver -----------------------------------------------

    def on_event(self, event: WireEvent) -> None:
        """Feed one wire event through the full chain."""
        self.process_event(event)

    def feed(self, events: Iterable[WireEvent]) -> int:
        """Pump a pre-recorded stream; returns the event count."""
        process = self.process_event
        count = 0
        for event in events:
            process(event)
            count += 1
        return count
