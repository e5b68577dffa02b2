"""Incremental level-shift detection: the streaming-robust-stats LS.

Semantics are the from-scratch reference detector's (the oracle's
other half, kept outside the production packages), *bit for bit* —
warmup, cooldown, confirm streaks, the pending re-seed, alarm fields,
everything — with the per-sample cost model replaced:

===============================  =====================  ==============
step                             reference              incremental
===============================  =====================  ==============
window maintenance               O(1) deque append      O(log w) insort
median                           O(w·log w) sort        O(1) index
MAD                              2 × O(w·log w) sorts   O(log w) search
threshold                        recomputed per sample  median-only
                                                        floor; MAD only
                                                        above it
===============================  =====================  ==============

The threshold is ``med + max(sigmas·spread, min_delta, rel_delta·med)``,
never below the *floor* ``med + max(min_delta, rel_delta·med)``, and
round-to-nearest addition is monotone: a sample at or under the floor
cannot alarm, whatever the MAD.  So ``update`` reads only the median
for it, and pays for the MAD and the full threshold only above the
floor (a NaN sample fails ``<=`` and takes that path too).
``repro.core.streamstats.oracle.verify_levelshift`` replays both
detectors over the same stream and raises on any alarm/baseline/
threshold divergence — the same reference-half-of-a-differential-
oracle pattern ``repro.core.matching`` uses for Algorithm 2 scoring.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core import outliers
from repro.core.outliers import LevelShift, _median
from repro.core.state import (
    StateError,
    decode_key,
    decode_ts,
    encode_ts,
    pack_floats,
    read_key,
    unpack_floats,
)
from repro.core.streamstats.window import SortedWindow


class IncrementalLevelShiftDetector:
    """Online LS detector for one time series, amortized O(log w)."""

    def __init__(self) -> None:
        # The one LS tuning, read at construction (not import) so a
        # patched ``repro.core.outliers`` retunes every new series;
        # ``update`` reads the copies as plain attributes.
        self.sigmas = outliers.LS_SIGMAS
        self.min_delta = outliers.LS_MIN_DELTA
        self.rel_delta = outliers.LS_REL_DELTA
        self.confirm = outliers.LS_CONFIRM
        self.warmup = max(outliers.LS_WARMUP, self.confirm + 1)
        self.cooldown = outliers.LS_COOLDOWN
        self._cooldown_until = float("-inf")
        self._baseline = SortedWindow(outliers.LS_WINDOW)
        self._pending: List[Tuple[float, float]] = []
        self._count = 0
        #: Perf counter: full (median, MAD, threshold) computations
        #: ``update`` performed, one per sample above the floor; the
        #: reference detector counts one per ``threshold()`` call.
        #: Surfaced as the pipeline's ``ls_threshold_recomputes``.
        self.threshold_recomputes = 0

    # -- state ------------------------------------------------------------

    @property
    def baseline(self) -> float:
        """Current robust baseline (median of the window)."""
        if not len(self._baseline):
            return 0.0
        return self._baseline.median()

    @property
    def spread(self) -> float:
        """Robust spread: MAD scaled to sigma-equivalent, floored."""
        window = self._baseline
        if len(window) < 4:
            return float("inf")
        return max(1.4826 * window.mad(window.median()), 1e-12)

    def threshold(self) -> float:
        """Current alarm threshold above the baseline (computed afresh;
        the oracle compares it after every sample)."""
        window = self._baseline
        if window.size < 4:
            # An under-filled window has infinite spread (an infinite
            # MAD scales to the same), hence the reference's threshold.
            return self._threshold(self.baseline, float("inf"))
        med = window.median()
        return self._threshold(med, window.mad(med))

    def _threshold(self, med: float, mad: float) -> float:
        """``med + max(sigmas·spread, min_delta, rel_delta·med)``.

        The ``max()`` is a comparison chain with the builtin dispatch
        shaved off; leftmost-wins tie-breaking (and NaN propagation) is
        preserved, because a later value replaces the running maximum
        only when strictly larger.
        """
        spread = 1.4826 * mad
        if spread < 1e-12:
            spread = 1e-12
        margin = self.sigmas * spread
        if margin < self.min_delta:
            margin = self.min_delta
        rel = self.rel_delta * med
        if margin < rel:
            margin = rel
        return med + margin

    # -- feeding ----------------------------------------------------------

    def update(self, ts: float, value: float) -> Optional[LevelShift]:
        """Feed one sample; returns a :class:`LevelShift` when confirmed."""
        self._count += 1
        baseline = self._baseline
        if self._count <= self.warmup or baseline.size < 4:
            baseline.append(value)
            return None
        if ts < self._cooldown_until:
            baseline.append(value)
            return None

        # The floor gate (module docstring): at or under the floor the
        # sample takes the below-threshold branch whatever the MAD is,
        # so this — once per latency sample on the receiver hot path —
        # reads only the median.  Same leftmost-wins chain as
        # ``_threshold``.
        med = baseline.median()
        margin = self.min_delta
        rel = self.rel_delta * med
        if margin < rel:
            margin = rel
        if not value <= med + margin:
            # Above the floor (or NaN): only now does the MAD matter.
            self.threshold_recomputes += 1
            if value > self._threshold(med, baseline.mad(med)):
                self._pending.append((ts, value))
                if len(self._pending) < self.confirm:
                    return None
                # Pending samples never touch the window, so ``med``
                # is the reference's alarm-time baseline.
                observed = _median([v for _, v in self._pending])
                shift = LevelShift(
                    ts=self._pending[0][0],
                    observed=observed,
                    baseline=med,
                    magnitude=observed - med,
                    index=self._count,
                )
                baseline.clear()
                for _, pending_value in self._pending:
                    baseline.append(pending_value)
                self._pending.clear()
                self._cooldown_until = ts + self.cooldown
                return shift

        # A below-threshold sample breaks any pending shift; the
        # pending values rejoin the baseline in arrival order.
        if self._pending:
            for _, pending_value in self._pending:
                baseline.append(pending_value)
            self._pending.clear()
        baseline.append(value)
        return None

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-serializable rendering of the detector.

        The pending ``(ts, value)`` pairs are packed flat, ts first.
        """
        return {
            "baseline": self._baseline.snapshot_state(),
            "pending": pack_floats(
                [x for pair in self._pending for x in pair]
            ),
            "count": self._count,
            "cooldown_until": encode_ts(self._cooldown_until),
            "threshold_recomputes": self.threshold_recomputes,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh detector (the latency tracker checks that
        the checkpoint ran the same tuning)."""
        flat = decode_key(state, "pending", unpack_floats)
        if len(flat) % 2:
            raise StateError(
                f"{len(flat)} floats do not pair into (ts, value)",
                "pending",
            )
        count = read_key(state, "count", int)
        cooldown_until = read_key(
            state, "cooldown_until", (float, int, type(None))
        )
        recomputes = read_key(state, "threshold_recomputes", int)
        # Read before the baseline is installed: a refused document
        # leaves the detector as it was.
        decode_key(state, "baseline", self._baseline.restore_state)
        self._pending = list(zip(flat[::2], flat[1::2]))
        self._count = count
        self._cooldown_until = decode_ts(cooldown_until)
        self.threshold_recomputes = recomputes
