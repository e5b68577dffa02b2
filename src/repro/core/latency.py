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
under the ``latency`` stage name).  It builds the tracker with
``on_anomaly`` set to its own
:meth:`~repro.core.analyzer.GretelAnalyzer.process_anomaly`, so a
confirmed shift enters the performance path the moment it is seen;
neither the tracker nor a detector keeps a log of what it emitted.
Every series runs the one LS tuning of :mod:`repro.core.outliers`,
and a checkpoint records that tuning once, for the whole tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.openstack.wire import WireEvent
from repro.core import outliers
from repro.core.config import GretelConfig
from repro.core.state import StateError, read_key, under
from repro.core.streamstats.detector import IncrementalLevelShiftDetector


def _ls_tuning() -> Dict[str, Any]:
    """The tuning every series is built with: the ``LS_*`` constants
    of :mod:`repro.core.outliers`, by name."""
    return {
        name: value for name, value in vars(outliers).items()
        if name.startswith("LS_")
    }


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


class LatencyTracker:
    """Streams per-API latencies into per-API level-shift detectors."""

    def __init__(
        self,
        config: Optional[GretelConfig] = None,
        *,
        on_anomaly: Optional[Callable[[PerformanceAnomaly], None]] = None,
    ) -> None:
        # Residue: every series runs the one LS tuning of
        # ``repro.core.outliers``, so ``config`` is ignored.  The
        # positional stays because ``benchmarks/e2e/workloads.py``
        # passes it and may not be edited here — ROADMAP lists it as
        # residue for the next ``benchmark`` PR.
        del config
        self._detectors: Dict[str, IncrementalLevelShiftDetector] = {}
        self._samples_fed = 0
        #: The one consumer of confirmed shifts (the analyzer's
        #: performance path); ``None`` leaves them to the caller of
        #: :meth:`observe`.
        self._on_anomaly = on_anomaly

    def detector_for(self, api_key: str) -> IncrementalLevelShiftDetector:
        """The (lazily created) detector for one API identity."""
        detector = self._detectors.get(api_key)
        if detector is None:
            detector = IncrementalLevelShiftDetector()
            self._detectors[api_key] = detector
        return detector

    def observe(self, event: WireEvent) -> Optional[PerformanceAnomaly]:
        """Feed one event's latency; returns an anomaly if confirmed
        (after handing it to ``on_anomaly``)."""
        self._samples_fed += 1
        shift = self.detector_for(event.api_key).update(
            event.ts_response, event.latency
        )
        if shift is None:
            return None
        anomaly = PerformanceAnomaly(
            api_key=event.api_key,
            ts=shift.ts,
            observed=shift.observed,
            baseline=shift.baseline,
            event=event,
        )
        if self._on_anomaly is not None:
            self._on_anomaly(anomaly)
        return anomaly

    @property
    def ls_samples_fed(self) -> int:
        """Latency samples fed into level-shift detectors."""
        return self._samples_fed

    @property
    def ls_threshold_recomputes(self) -> int:
        """Full (median, MAD, threshold) computations across all series.

        One per sample above its series' median-only floor; a sample
        at or under it never needs the MAD.  A from-scratch detector
        recomputes on every ``threshold()`` call, so the ratio of this
        to :attr:`ls_samples_fed` is the floor gate's win.
        """
        return sum(
            detector.threshold_recomputes
            for detector in self._detectors.values()
        )

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-serializable rendering of every series.

        The LS tuning is written once, as ``tuning``: every series
        ran it, so no series state repeats it.
        """
        return {
            "tuning": _ls_tuning(),
            "samples_fed": self._samples_fed,
            "detectors": {
                api_key: detector.snapshot_state()
                for api_key, detector in sorted(self._detectors.items())
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh tracker.

        A checkpoint taken under another LS tuning is refused with
        each differing constant named.  A series whose payload does
        not read is refused with its key path, never resurrected.
        Every series is rebuilt before any is installed, so a refusal
        leaves the tracker as it was.
        """
        theirs, here = read_key(state, "tuning", dict), _ls_tuning()
        differing = [
            f"{name}: {theirs.get(name)} in the checkpoint, "
            f"{here.get(name)} here"
            for name in sorted(theirs.keys() | here.keys())
            if theirs.get(name) != here.get(name)
        ]
        if differing:
            raise StateError(
                "captured under a different LS tuning ("
                + "; ".join(differing) + ")",
                "tuning",
            )
        samples_fed = read_key(state, "samples_fed", int)
        series = read_key(state, "detectors", dict)
        detectors: Dict[str, IncrementalLevelShiftDetector] = {}
        for api_key, detector_state in series.items():
            detector = IncrementalLevelShiftDetector()
            with under(f"detectors[{api_key!r}]"):
                detector.restore_state(detector_state)
            detectors[api_key] = detector
        self._detectors = detectors
        self._samples_fed = samples_fed
