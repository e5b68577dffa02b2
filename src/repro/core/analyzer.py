"""The GRETEL analyzer: one object for the paper's four-component chain.

§5, Fig. 1: event receiver + dual-buffer window → anomaly detection
→ operation detection (Alg. 2) → root cause (Alg. 3) → report.
:class:`GretelAnalyzer` *is* that chain:

1. **event receiver** — every wire event from the network agents lands
   in :meth:`GretelAnalyzer.on_event`, in per-agent FIFO order;
2. **anomaly detector** — REST error statuses trigger the snapshot
   mechanism on the dual-buffer sliding window; per-API latencies feed
   the level-shift detectors;
3. **operation detection** — frozen snapshots run Algorithm 2;
4. **root cause analysis** — matched operations plus the monitoring
   metadata run Algorithm 3;
5. a :class:`~repro.core.reports.FaultReport` is appended to
   :attr:`GretelAnalyzer.reports` and handed to every listener.

It owns the four components (:class:`~repro.core.window.SlidingWindow`,
:class:`~repro.core.latency.LatencyTracker`,
:class:`~repro.core.detector.OperationDetector`,
:class:`~repro.core.rootcause.RootCauseEngine`), the counters and the
report log.  Events arrive one at a time; ``feed`` is a loop over
``on_event``.  There are two per-event bodies: the fused one, the
§7.4 receiver hot loop with no dispatch, and the observed one it
switches to when middleware (:mod:`repro.core.pipeline.middleware`)
is attached, one :meth:`GretelAnalyzer._call` per stage per event.
``tests/core/test_pipeline.py::test_middleware_does_not_change_reports``
holds the two equal.  See ``docs/architecture.md``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector
from repro.core.fingerprint import FingerprintLibrary
from repro.core.latency import LatencyTracker, PerformanceAnomaly
from repro.core.opfaults import rpc_body_error
from repro.core.reports import FaultReport
from repro.core.rootcause import RootCauseEngine
from repro.core.state import (
    StateError, decode_key, read_key, require_state, under,
)
from repro.core.window import SlidingWindow, Snapshot
from repro.monitoring.store import MetadataStore
from repro.openstack.apis import ApiKind
from repro.openstack.wire import WireEvent

if TYPE_CHECKING:
    from repro.core.pipeline.middleware import StageObserver

#: At most one performance-fault analysis per API within this many
#: (simulated) seconds — level shifts during a node-wide surge fire
#: across many API series at once, and each analysis is a full
#: snapshot match.
PERF_DEBOUNCE = 5.0
#: Cap on the number of context-buffer events a performance-fault
#: match considers: the newest ones, ending at the anomalous event.
#: The paper matches "the entire context buffer" at α = 768; at high
#: packet rates our α can be far larger, and matching thousands of
#: messages per alarm buys no precision.
PERF_BUFFER_CAP = 1024


@dataclass(frozen=True)
class PipelineStats:
    """Mergeable snapshot of one analyzer's counters.

    ``ShardedAnalyzer`` sums one of these per shard instead of
    delegating each counter by hand.
    """

    events_processed: int = 0
    bytes_processed: int = 0
    operational_faults_seen: int = 0
    snapshots_taken: int = 0
    analysis_seconds: float = 0.0
    # Detection-engine counters (``repro.core.matching``): candidates
    # skipped by the multiplicity gate (a gated scoring class counts
    # every member), bit-parallel DP passes run, and needle symbols
    # fed through them (``docs/matching.md``).
    candidates_gated: int = 0
    lcs_row_extensions: int = 0
    lcs_symbols_fed: int = 0
    # Candidate-selection counters (``docs/indexing.md``): postings
    # entries examined and candidates served from the compiled index,
    # summed over every ``candidates_for`` call.  Every selection is
    # served from the index, so the two are equal here; they are two
    # counters on the detector because the reference full scan
    # (``repro.reference``) examines postings without being served
    # any.
    postings_scanned: int = 0
    candidates_indexed: int = 0
    # Level-shift engine counters (``repro.core.streamstats``):
    # latency samples fed to per-API detectors, and full (median, MAD,
    # threshold) computations — one per sample above its series'
    # median-only floor (``docs/streamstats.md``).
    ls_samples_fed: int = 0
    ls_threshold_recomputes: int = 0

    def __add__(self, other: "PipelineStats") -> "PipelineStats":
        # Every counter merges by summation, so merge generically:
        # a field added here (or to the matching engine) is summed
        # across shards without another hand-written line.
        return PipelineStats(**{
            spec.name: getattr(self, spec.name) + getattr(other, spec.name)
            for spec in fields(self)
        })

    @classmethod
    def merged(cls, parts: Iterable["PipelineStats"]) -> "PipelineStats":
        total = cls()
        for part in parts:
            total = total + part
        return total


STAT_FIELDS: Tuple[str, ...] = tuple(
    field.name for field in fields(PipelineStats)
)


class GretelAnalyzer:
    """The GRETEL analyzer: four components, one chain.

    One window of events, one encoder call site (operation detection
    encodes a snapshot once per ``detect``), one source of performance
    context: the live window, which ``on_event`` has just appended the
    anomalous event to.
    """

    def __init__(
        self,
        library: FingerprintLibrary,
        *,
        store: Optional[MetadataStore] = None,
        config: Optional[GretelConfig] = None,
        track_latency: bool = True,
        defer_detection: bool = False,
        middleware: Sequence[StageObserver] = (),
        report_listeners: Sequence[
            Callable[[FaultReport], None]
        ] = (),
    ) -> None:
        self.library = library
        self.store = MetadataStore() if store is None else store
        self.config = config or GretelConfig()
        self.track_latency = track_latency
        self.defer_detection = defer_detection

        self.detector = OperationDetector(
            library, library.symbols, None, self.config
        )
        self.latency = LatencyTracker(on_anomaly=self.process_anomaly)
        self.rootcause = RootCauseEngine(self.store)
        alpha = self.config.sliding_window_size(max(library.fp_max, 2))
        self.window = SlidingWindow(alpha)

        self.events_processed = 0
        self.bytes_processed = 0
        self.operational_faults_seen = 0
        self.analysis_seconds = 0.0
        #: Published reports, in emit order.  Long-lived callers bound
        #: it with :meth:`shed_logs`.
        self.reports: List[FaultReport] = []
        self._listeners = list(report_listeners)
        self._observers: Tuple[StageObserver, ...] = tuple(middleware)
        self._deferred: List[Snapshot] = []
        self._last_perf_analysis: Dict[str, float] = {}

    @property
    def pipeline(self) -> "GretelAnalyzer":
        # Residue, like ``StreamingService(async_ingest=)``: the
        # ledger reads ``parked.pipeline.deferred_snapshots()``
        # (benchmarks/e2e/workloads.py, which only a ``benchmark`` PR
        # may edit).  Nothing else uses this spelling; it leaves with
        # that line.
        return self

    @property
    def alpha(self) -> int:
        """Sliding-window size α (§5.3.1)."""
        return self.window.alpha

    # ------------------------------------------------------------------
    # Reports and counters.
    @property
    def operational_reports(self) -> List[FaultReport]:
        """Reports for operational faults."""
        return [r for r in self.reports if r.kind == "operational"]

    @property
    def performance_reports(self) -> List[FaultReport]:
        """Reports for performance faults."""
        return [r for r in self.reports if r.kind == "performance"]

    def on_report(self, callback: Callable[[FaultReport], None]) -> None:
        """Register a fault-report consumer."""
        self._listeners.append(callback)

    def shed_logs(self) -> None:
        """Discard the delivered report log.

        For long-lived callers that have already fanned reports out to
        listeners: keeps analyzer memory bounded by the windows, not
        by reports published.  The report log is replaced, not
        cleared, so a caller that read :attr:`reports` first keeps
        what it read.  Counters are unaffected.
        """
        self.reports = []

    def stats(self) -> PipelineStats:
        """Mergeable snapshot of the counters."""
        detector = self.detector
        matching = detector.matching_stats
        latency = self.latency
        return PipelineStats(
            events_processed=self.events_processed,
            bytes_processed=self.bytes_processed,
            operational_faults_seen=self.operational_faults_seen,
            snapshots_taken=self.window.snapshots_taken,
            analysis_seconds=self.analysis_seconds,
            candidates_gated=matching.candidates_gated,
            lcs_row_extensions=matching.lcs_row_extensions,
            lcs_symbols_fed=matching.lcs_symbols_fed,
            postings_scanned=detector.postings_scanned,
            candidates_indexed=detector.candidates_indexed,
            ls_samples_fed=latency.ls_samples_fed,
            ls_threshold_recomputes=latency.ls_threshold_recomputes,
        )

    def close(self) -> None:
        """Release analyzer resources (nothing to release in-process).

        Exists so callers can treat every engine uniformly:
        ``ShardedAnalyzer.close()`` stops process-backend workers.
        """

    # ------------------------------------------------------------------
    # State lifecycle (see repro.core.state).

    #: The one tag of this document and of every layer state inside
    #: it: a change to any of their shapes bumps it.  The ``config``
    #: guard covers only the settable fields, so changing a module
    #: constant (``MATCH_COVERAGE``, ``LS_WINDOW``,
    #: ``_MAX_TRUNCATIONS``, ...) bumps it too.
    STATE_FMT = "analyzer-state/v5"

    #: The counters this object owns, as checkpointed, by type.  Every
    #: other :class:`PipelineStats` field lives in (and is restored by)
    #: the component that counts it, except the wall-clock
    #: ``analysis_seconds``: it measures this process, is no function
    #: of the stream, and a restored analyzer counts it from 0.0.
    _COUNTERS = {
        "events_processed": int,
        "bytes_processed": int,
        "operational_faults_seen": int,
    }

    def snapshot_state(self) -> Dict[str, Any]:
        """Freeze the analyzer mid-stream, JSON-serializably.

        Collaborators (library, store) are construction-time inputs
        and are *not* serialized; the config rendering rides along
        purely as a rehydration guard.  The report log is an output,
        not in-flight state, and stays out (see
        :mod:`repro.core.state`).  Snapshots parked by
        ``defer_detection`` are not state either: an analyzer holding
        any refuses to freeze until :meth:`process_deferred` has
        analyzed them.
        ``repro.service.oracle.verify_service`` proves a restored
        analyzer finishes the stream bit-identically.
        """
        if self._deferred:
            raise RuntimeError(
                f"{len(self._deferred)} parked snapshot(s) are not "
                "state: call process_deferred() before snapshot_state()"
            )
        return {
            "fmt": self.STATE_FMT,
            "config": asdict(self.config),
            "track_latency": self.track_latency,
            "counters": {
                name: getattr(self, name) for name in self._COUNTERS
            },
            "window": self.window.snapshot_state(),
            "latency": self.latency.snapshot_state(),
            "detector": self.detector.snapshot_state(),
            "last_perf_analysis": dict(self._last_perf_analysis),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a freshly built, identically configured analyzer.

        Components are restored *in place* (``window.push`` keeps
        pointing at the window's deque); a config or latency-mode
        mismatch refuses loudly instead of replaying the stream under
        different semantics.  ``defer_detection`` is no part of the
        document: it decides only when later snapshots are analyzed,
        and neither is the wall-clock ``analysis_seconds``, which a
        restore leaves as it was.  A component that refuses its part
        puts every component back as it was.
        """
        require_state(state, self.STATE_FMT)
        theirs = read_key(state, "config", dict)
        differing = [
            f"{name}: {theirs.get(name)} in the checkpoint, {value} here"
            for name, value in asdict(self.config).items()
            if theirs.get(name) != value
        ]
        if differing:
            raise StateError(
                "captured under a different config ("
                + "; ".join(differing) + ")",
                "config",
            )
        track_latency = read_key(state, "track_latency", bool)
        if track_latency != self.track_latency:
            raise StateError(
                f"{track_latency} in the checkpoint, "
                f"{self.track_latency} here", "track_latency",
            )
        before = self.snapshot_state()
        try:
            self._install(state)
        except Exception:
            self._install(before)
            raise
        self.reports = []

    def _install(self, state: Mapping[str, Any]) -> None:
        counters = read_key(state, "counters", dict)
        with under("counters"):
            values = {
                name: read_key(counters, name, kind)
                for name, kind in self._COUNTERS.items()
            }
        last_perf = read_key(state, "last_perf_analysis", dict)
        if not all(isinstance(ts, (int, float)) for ts in last_perf.values()):
            raise StateError("expected numbers", "last_perf_analysis")
        for name in ("window", "latency", "detector"):
            decode_key(state, name, getattr(self, name).restore_state)
        for name, value in values.items():
            setattr(self, name, value)
        self._last_perf_analysis = dict(last_perf)

    # ------------------------------------------------------------------
    # The middleware seam: every stage step of the observed per-event
    # body and of the analysis paths goes through here, under one of
    # the seven ``STAGE_NAMES``.
    def _call(
        self,
        stage: str,
        items: int,
        func: Callable[..., Any],
        *args: Any,
    ) -> Any:
        observers = self._observers
        if not observers:
            return func(*args)
        started = time.perf_counter()
        result = func(*args)
        elapsed = time.perf_counter() - started
        for observer in observers:
            observer.observe(stage, elapsed, items)
        return result

    # ------------------------------------------------------------------
    # The event receiver.
    def on_event(self, event: WireEvent) -> None:
        """Run one wire event through the chain in stream order."""
        if self._observers:
            self._on_event_observed(event)
            return
        # Fused fast path: the observed body's steps with the window
        # append and ``LatencyTracker.observe`` inline; a fault-free
        # REST sample calls only its series' ``update`` from here.
        self.events_processed += 1
        self.bytes_processed += event.size_bytes
        window = self.window
        window.push(event)
        window.appended += 1
        if window.pending and window.pending[0] <= window.appended:
            for snapshot in window.freeze_due():
                self._dispatch(snapshot)
        status = event.status
        if event.kind is ApiKind.REST:
            if status >= 400:
                # §5.3.1: REST error responses freeze the window.
                self.operational_faults_seen += 1
                window.mark_fault()
                return
        elif rpc_body_error(event):
            # RPC bodies are scanned for error markers and counted
            # but — matching the paper's REST-triggered snapshots —
            # do not freeze it.
            self.operational_faults_seen += 1
        if status < 400 and self.track_latency and not event.noise:
            latency = self.latency
            latency.ls_samples_fed += 1
            series = (latency.detectors.get(event.api_key)
                      or latency.detector_for(event.api_key))
            ts = event.ts_response
            shift = series.update(ts, ts - event.ts_request)
            if shift is not None:
                latency.hand_off(event, shift)

    def feed(self, events: Iterable[WireEvent]) -> int:
        """Pump a pre-recorded stream; returns the event count."""
        on_event = self.on_event
        count = 0
        for event in events:
            on_event(event)
            count += 1
        return count

    def _on_event_observed(self, event: WireEvent) -> None:
        self._call("ingest", 1, self._count_one, event)
        completed = self._call("window", 1, self.window.append, event)
        for snapshot in completed:
            self._dispatch(snapshot)
        if self._call("fault-scan", 1, self._scan_one, event):
            self.window.mark_fault()
        self._call("latency", 1, self._observe_one, event)

    def _count_one(self, event: WireEvent) -> None:
        self.events_processed += 1
        self.bytes_processed += event.size_bytes

    def _scan_one(self, event: WireEvent) -> bool:
        """Count ``event`` if faulty; True if it freezes the window
        (a REST error response)."""
        if event.kind is ApiKind.REST:
            if event.status < 400:
                return False
            self.operational_faults_seen += 1
            return True
        if rpc_body_error(event):
            self.operational_faults_seen += 1
        return False

    def _observe_one(self, event: WireEvent) -> None:
        if self.track_latency and not event.noise and not event.error:
            self.latency.observe(event)

    # ------------------------------------------------------------------
    # Draining.
    def flush(self) -> None:
        """Freeze and analyze all pending (partial) snapshots (end of
        stream / experiment)."""
        for snapshot in self.window.flush():
            self._dispatch(snapshot)

    def deferred_snapshots(self) -> List[Snapshot]:
        """Snapshots parked by ``defer_detection``, in freeze order
        (read-only view; :meth:`process_deferred` drains them).  The
        differential oracles (`repro analyze --verify-selection`)
        replay these through paired detectors."""
        return list(self._deferred)

    def process_deferred(self) -> int:
        """Analyze snapshots parked by ``defer_detection`` (the
        detection 'thread''s backlog); return the number drained."""
        drained = self._deferred
        self._deferred = []
        for snapshot in drained:
            self._localize(snapshot, time.perf_counter())
        return len(drained)

    # ------------------------------------------------------------------
    # Operational path (Alg. 2 + Alg. 3 over a frozen snapshot).
    def _dispatch(self, snapshot: Snapshot) -> None:
        if self.defer_detection:
            self._deferred.append(snapshot)
        else:
            self._localize(snapshot, time.perf_counter())

    def _localize(self, snapshot: Snapshot, started: float,
                  anomaly: Optional[PerformanceAnomaly] = None) -> None:
        """Alg. 2 over ``snapshot``, then Alg. 3 over the page's own
        error list, then publish one report.  ``anomaly`` marks a
        performance page; ``started`` is when its analysis began."""
        detect = functools.partial(
            self.detector.detect, performance_fault=anomaly is not None
        )
        detection = self._call("detect", 1, detect, snapshot)
        root_causes = self._call(
            "rootcause", 1, self.rootcause.analyze, detection
        )
        elapsed = time.perf_counter() - started
        fault = snapshot.fault
        if anomaly is None:
            kind, ts, delay = "operational", fault.ts_response, 0.0
            if snapshot.events:
                delay = snapshot.events[-1].ts_response - ts
        else:
            kind, ts, delay = "performance", anomaly.ts, 0.0
        report = FaultReport(
            ts=ts,
            kind=kind,
            fault_event=fault,
            detection=detection,
            root_causes=root_causes,
            performance=anomaly,
            analysis_seconds=elapsed,
            report_delay=delay,
        )
        self._call("publish", 1, self._publish, report)

    def _publish(self, report: FaultReport) -> None:
        self.analysis_seconds += report.analysis_seconds
        self.reports.append(report)
        for callback in self._listeners:
            callback(report)

    # ------------------------------------------------------------------
    # Performance path (§5.3.2 level-shift anomaly → Alg. 2/3).
    def process_anomaly(self, anomaly: PerformanceAnomaly) -> None:
        """Debounce per API identity, cut the α-event context ending
        at the anomalous event from the live window, and run
        detection + root cause."""
        last = self._last_perf_analysis.get(anomaly.api_key)
        if last is not None and anomaly.ts - last < PERF_DEBOUNCE:
            return
        self._last_perf_analysis[anomaly.api_key] = anomaly.ts

        started = time.perf_counter()
        # ``on_event`` has just appended the anomalous event, so it is
        # the newest live event; a caller that hands in an event the
        # window never saw gets it appended.
        events = self.window.live_events()
        if not events or events[-1] != anomaly.event:
            events.append(anomaly.event)
        events = events[-PERF_BUFFER_CAP:]
        snapshot = Snapshot(events=events, fault_index=len(events) - 1)
        self._localize(snapshot, started, anomaly)
