"""Per-API latency tracking and performance-fault detection.

REST latencies are computed by pairing request and response on TCP
connection metadata; RPC latencies pair on the oslo message id (§5.3).
Our wire events already carry both timestamps, so the tracker consumes
the observed latency directly and feeds one level-shift detector per
API identity — the incremental ``repro.core.streamstats`` engine,
held bit-identical to its from-scratch reference twin by
``repro.core.streamstats.verify_levelshift``.

The analyzer holds one tracker as ``analyzer.latency`` and feeds it
one event at a time, skipping noise and error exchanges (observed
under the ``latency`` stage name); anomalies it emits enter the
performance path via
:meth:`repro.core.analyzer.GretelAnalyzer.process_anomaly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.openstack.wire import ROW_FIELDS, WireEvent
from repro.core.config import GretelConfig
from repro.core.outliers import LevelShift
from repro.core.state import (
    StateFormatError,
    require_columns,
    require_state,
)
from repro.core.streamstats.detector import IncrementalLevelShiftDetector


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
        # Residue: every series runs the one LS tuning of
        # ``repro.core.outliers``, so ``config`` is ignored.  The
        # positional stays because ``benchmarks/e2e/workloads.py``
        # passes it and may not be edited here — ROADMAP lists it as
        # residue for the next ``benchmark`` PR.
        del config
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
            detector = IncrementalLevelShiftDetector()
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
        """Rehydrate a fresh tracker.

        Every series must carry the production LS detector's fmt tag;
        any other tag (a reference detector's, say) is refused with
        the offending series named, never resurrected.
        """
        require_state(state, self.STATE_FMT)
        require_columns(state, ROW_FIELDS)
        self._detectors.clear()
        for api_key, detector_state in state["detectors"].items():
            detector = IncrementalLevelShiftDetector()
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
