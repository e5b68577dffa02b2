"""Per-API latency tracking and performance-fault detection.

REST latencies are computed by pairing request and response on TCP
connection metadata; RPC latencies pair on the oslo message id (§5.3).
Our wire events already carry both timestamps, so the tracker consumes
the observed latency directly and feeds one level-shift detector per
API identity — the incremental ``repro.core.streamstats`` engine,
held bit-identical to its from-scratch reference twin by
``repro.core.streamstats.verify_levelshift``.

The analyzer holds one tracker as ``analyzer.latency`` (observed
under the ``latency`` stage name); anomalies it emits enter the
performance path via
:meth:`repro.core.pipeline.graph.AnalysisPipeline.process_anomaly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.openstack.wire import ROW_FIELDS, WireEvent
from repro.core.config import GretelConfig
from repro.core.outliers import LevelShift
from repro.core.state import (
    StateFormatError,
    require_columns,
    require_state,
)
from repro.core.streamstats.detector import (
    IncrementalLevelShiftDetector,
    detector_from_config,
)


@dataclass(frozen=True)
class PerformanceAnomaly:
    """An anomalous latency level shift on one API."""

    api_key: str
    ts: float
    observed: float
    baseline: float
    event: WireEvent

    @property
    def magnitude(self) -> float:
        """Latency increase over the baseline, seconds."""
        return self.observed - self.baseline

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable rendering (checkpoint/restore protocol);
        the event is a row, its columns named by the tracker state."""
        return {
            "api_key": self.api_key,
            "ts": self.ts,
            "observed": self.observed,
            "baseline": self.baseline,
            "event": self.event.to_row(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerformanceAnomaly":
        """Inverse of :meth:`to_dict`."""
        return cls(
            api_key=data["api_key"],
            ts=data["ts"],
            observed=data["observed"],
            baseline=data["baseline"],
            event=WireEvent.from_row(data["event"]),
        )


class LatencyTracker:
    """Streams per-API latencies into per-API level-shift detectors."""

    def __init__(self, config: Optional[GretelConfig] = None):
        self.config = config or GretelConfig()
        self._detectors: Dict[str, IncrementalLevelShiftDetector] = {}
        self._samples_fed = 0
        self.anomalies: List[PerformanceAnomaly] = []
        self._listeners: List[Callable[[PerformanceAnomaly], None]] = []

    def on_anomaly(self, callback: Callable[[PerformanceAnomaly], None]) -> None:
        """Register a performance-fault consumer."""
        self._listeners.append(callback)

    def detector_for(self, api_key: str) -> IncrementalLevelShiftDetector:
        """The (lazily created) detector for one API identity."""
        detector = self._detectors.get(api_key)
        if detector is None:
            detector = detector_from_config(self.config)
            self._detectors[api_key] = detector
        return detector

    def _emit(
        self, api_key: str, shift: LevelShift, event: WireEvent
    ) -> PerformanceAnomaly:
        anomaly = PerformanceAnomaly(
            api_key=api_key,
            ts=shift.ts,
            observed=shift.observed,
            baseline=shift.baseline,
            event=event,
        )
        self.anomalies.append(anomaly)
        for callback in self._listeners:
            callback(anomaly)
        return anomaly

    def observe(self, event: WireEvent) -> Optional[PerformanceAnomaly]:
        """Feed one event's latency; returns an anomaly if confirmed."""
        self._samples_fed += 1
        shift = self.detector_for(event.api_key).update(
            event.ts_response, event.latency
        )
        if shift is None:
            return None
        return self._emit(event.api_key, shift, event)

    def observe_batch(self, events: Sequence[WireEvent]) -> int:
        """Feed a run of events, skipping noise and error exchanges.

        Applies the same gate the serial analyzer applies per event
        (``not event.noise and not event.error``), so a batched caller
        sees exactly the serial anomaly multiset.  The run is bucketed
        by ``api_key`` first: each series is then fed through a single
        bound ``update`` with no per-event dict lookup.  Detectors are
        independent per API, so within-series order (the only order LS
        semantics depend on) is untouched; cross-series anomaly
        interleaving may differ from strictly serial feeding, which the
        pipeline already tolerates (reports are compared and merged as
        ordered multisets).  Returns the number of latencies observed.
        """
        buckets: Dict[str, List[WireEvent]] = {}
        observed = 0
        for event in events:
            if event.noise or event.error:
                continue
            bucket = buckets.get(event.api_key)
            if bucket is None:
                buckets[event.api_key] = [event]
            else:
                bucket.append(event)
            observed += 1
        for api_key, series in buckets.items():
            update = self.detector_for(api_key).update
            for event in series:
                shift = update(event.ts_response, event.latency)
                if shift is not None:
                    self._emit(api_key, shift, event)
        self._samples_fed += observed
        return observed

    def series_count(self) -> int:
        """How many API series are being tracked."""
        return len(self._detectors)

    @property
    def ls_samples_fed(self) -> int:
        """Latency samples fed into level-shift detectors."""
        return self._samples_fed

    @property
    def ls_threshold_recomputes(self) -> int:
        """(median, MAD, threshold) recomputations across all series.

        Counts cache misses (one per window mutation that reached a
        threshold read); a from-scratch detector recomputes on every
        ``threshold()`` call, so the ratio of this to
        :attr:`ls_samples_fed` is the cache's win.
        """
        return sum(
            detector.threshold_recomputes
            for detector in self._detectors.values()
        )

    def drain_anomalies(self) -> List[PerformanceAnomaly]:
        """Hand off (and forget) the accumulated anomaly log.

        Listeners already saw every anomaly at emission time; a
        long-lived service session drains this log after each pump so
        tracker memory stays bounded by the live detector windows.
        """
        drained = self.anomalies
        self.anomalies = []
        return drained

    # -- state lifecycle (see repro.core.state) -------------------------

    STATE_FMT = "latency-tracker/v2"

    def snapshot_state(self) -> Dict[str, Any]:
        """Versioned, JSON-serializable rendering of every series."""
        return {
            "fmt": self.STATE_FMT,
            "samples_fed": self._samples_fed,
            "detectors": {
                api_key: detector.snapshot_state()
                for api_key, detector in sorted(self._detectors.items())
            },
            "columns": list(ROW_FIELDS),
            "anomalies": [a.to_dict() for a in self.anomalies],
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh tracker with the same config.

        Every series must carry the production LS detector's fmt tag;
        any other tag (a reference detector's, say) is refused with
        the offending series named, never resurrected.
        """
        require_state(state, self.STATE_FMT)
        require_columns(state, ROW_FIELDS)
        self._detectors.clear()
        for api_key, detector_state in state["detectors"].items():
            detector = detector_from_config(self.config)
            try:
                detector.restore_state(detector_state)
            except StateFormatError as error:
                raise StateFormatError(
                    f"latency series {api_key!r}: {error}"
                ) from error
            self._detectors[api_key] = detector
        self._samples_fed = state["samples_fed"]
        self.anomalies = [
            PerformanceAnomaly.from_dict(a) for a in state["anomalies"]
        ]
