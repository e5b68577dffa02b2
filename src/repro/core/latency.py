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
from itertools import chain, islice
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.openstack.wire import WireEvent
from repro.core import outliers
from repro.core.config import GretelConfig
from repro.core.state import (
    StateError,
    decode_key,
    pack_floats,
    read_key,
    under,
    unpack_floats,
)
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
        self.detectors: Dict[str, IncrementalLevelShiftDetector] = {}
        self.ls_samples_fed = 0
        #: The one consumer of confirmed shifts (the analyzer's
        #: performance path); ``None`` leaves them to the caller of
        #: :meth:`observe`.
        self._on_anomaly = on_anomaly

    def detector_for(self, api_key: str) -> IncrementalLevelShiftDetector:
        """The (lazily created) detector for one API identity."""
        detector = self.detectors.get(api_key)
        if detector is None:
            detector = IncrementalLevelShiftDetector()
            self.detectors[api_key] = detector
        return detector

    def observe(self, event: WireEvent) -> Optional[PerformanceAnomaly]:
        """Feed one event's latency; returns an anomaly if confirmed
        (after handing it to ``on_anomaly``); the analyzer's fused
        intake inlines it."""
        self.ls_samples_fed += 1
        shift = self.detector_for(event.api_key).update(
            event.ts_response, event.latency
        )
        return None if shift is None else self.hand_off(event, shift)

    def hand_off(self, event: WireEvent,
                 shift: outliers.LevelShift) -> PerformanceAnomaly:
        """Make ``shift`` an anomaly, hand it to ``on_anomaly``, return it."""
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
    def ls_threshold_recomputes(self) -> int:
        """Full (median, MAD, threshold) computations across all series.

        One per sample above its series' median-only floor; a sample
        at or under it never needs the MAD.  A from-scratch detector
        recomputes on every ``threshold()`` call, so the ratio of this
        to :attr:`ls_samples_fed` is the floor gate's win.
        """
        return sum(
            detector.threshold_recomputes
            for detector in self.detectors.values()
        )

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-serializable rendering of every series.

        The LS tuning is written once, as ``tuning``: every series
        ran it.  ``detectors`` is one column block, a row per series
        in ``keys`` order (sorted): every baseline packed into one
        float block and every pending ``(ts, value)`` pair into
        another, each cut by its per-series sizes; the cooldown
        deadlines packed too (``-inf`` survives); the two counters as
        lists.
        """
        keys = sorted(self.detectors)
        detectors = self.detectors
        baselines, pending, counts, cooldowns, recomputes = (
            zip(*[detectors[key].state_row() for key in keys])
            if keys else ((), (), (), (), ())
        )
        return {
            "tuning": _ls_tuning(),
            "samples_fed": self.ls_samples_fed,
            "detectors": {
                "keys": keys,
                "baseline_sizes": list(map(len, baselines)),
                "baselines": pack_floats(
                    list(chain.from_iterable(baselines))
                ),
                "pending_sizes": list(map(len, pending)),
                "pending": pack_floats(list(
                    chain.from_iterable(chain.from_iterable(pending))
                )),
                "count": list(counts),
                "cooldown_until": pack_floats(cooldowns),
                "threshold_recomputes": list(recomputes),
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh tracker.

        A checkpoint taken under another LS tuning is refused with
        each differing constant named.  A block that does not read is
        refused with its key path (a series' own fault names the
        series, ``detectors['<api key>']``), never resurrected.
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
        rows = _read_series(read_key(state, "detectors", dict))
        detectors: Dict[str, IncrementalLevelShiftDetector] = {}
        for api_key, row in rows:
            detector = IncrementalLevelShiftDetector()
            detector.restore_row(*row)
            detectors[api_key] = detector
        self.detectors = detectors
        self.ls_samples_fed = samples_fed


def _read_series(block: Dict[str, Any]) -> List[Tuple[str, Tuple[Any, ...]]]:
    """The ``(api key, row)`` pairs of a :meth:`LatencyTracker.
    snapshot_state` series block (the value of ``detectors``), every
    column checked against the number of series and the sizes first."""
    with under("detectors"):
        keys = read_key(block, "keys", list)
        if not all(isinstance(key, str) for key in keys):
            raise StateError("expected a list of str", "keys")
        if len(set(keys)) != len(keys):
            raise StateError("a series appears twice", "keys")
        lists = {}
        for name in ("baseline_sizes", "pending_sizes", "count",
                     "threshold_recomputes"):
            values = read_key(block, name, list)
            if not all(type(value) is int and value >= 0 for value in values):
                raise StateError("expected a list of non-negative int", name)
            lists[name] = values
        packed = {
            name: decode_key(block, name, unpack_floats)
            for name in ("baselines", "pending", "cooldown_until")
        }
        for name, values in (*lists.items(),
                             ("cooldown_until", packed["cooldown_until"])):
            if len(values) != len(keys):
                raise StateError(f"{len(values)} values for {len(keys)} "
                                 f"series", name)
        for sizes, name, per_row in (("baseline_sizes", "baselines", 1),
                                     ("pending_sizes", "pending", 2)):
            want = sum(lists[sizes]) * per_row
            if len(packed[name]) != want:
                raise StateError(
                    f"{len(packed[name])} floats, the sizes add up to {want}",
                    name,
                )
    window = outliers.LS_WINDOW
    baselines = iter(packed["baselines"])
    pending = iter(packed["pending"])
    rows = []
    for api_key, size, pairs, count, cooldown, recomputes in zip(
        keys, lists["baseline_sizes"], lists["pending_sizes"],
        lists["count"], packed["cooldown_until"],
        lists["threshold_recomputes"],
    ):
        if size > window:
            raise StateError(
                f"{size} baseline values, LS_WINDOW is {window}",
                f"detectors[{api_key!r}].baseline_sizes",
            )
        values = list(islice(baselines, size))
        flat = list(islice(pending, 2 * pairs))
        rows.append((api_key, (
            values, list(zip(flat[::2], flat[1::2])), count, cooldown,
            recomputes,
        )))
    return rows
