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
threshold                        recomputed per sample  cached per
                                                        window version
===============================  =====================  ==============

The (median, MAD, threshold) triple is cached against the
:class:`~repro.core.streamstats.window.SortedWindow` version counter,
so confirm streaks and repeated threshold reads between window
mutations are free.  ``repro.core.streamstats.oracle.
verify_levelshift`` replays both detectors over the same stream and
raises on any alarm/baseline/threshold divergence — the same
reference-half-of-a-differential-oracle pattern ``repro.core.
matching`` uses for Algorithm 2 scoring.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core import outliers
from repro.core.outliers import LevelShift, _median
from repro.core.state import decode_ts, encode_ts, require_state
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
        #: Perf counter: (median, MAD, threshold) recomputes actually
        #: performed (cache misses); the reference detector counts one
        #: per ``threshold()`` call.  Surfaced as the pipeline's
        #: ``ls_threshold_recomputes``.
        self.threshold_recomputes = 0
        self._cache_version = -1
        self._cached_median = 0.0
        self._cached_threshold = 0.0

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
        """Current alarm threshold above the baseline."""
        if len(self._baseline) < 4:
            # Reference parity off the hot path: an under-filled
            # window has infinite spread, so the same expression
            # yields the same (infinite) threshold.
            baseline = self.baseline
            return baseline + max(
                self.sigmas * self.spread,
                self.min_delta,
                self.rel_delta * baseline,
            )
        return self._threshold()

    def _threshold(self) -> float:
        """The cached threshold; recomputed only on window mutation."""
        window = self._baseline
        if self._cache_version != window.version:
            med, mad = window.median_mad()
            spread = max(1.4826 * mad, 1e-12)
            self._cached_median = med
            self._cached_threshold = med + max(
                self.sigmas * spread,
                self.min_delta,
                self.rel_delta * med,
            )
            self._cache_version = window.version
            self.threshold_recomputes += 1
        return self._cached_threshold

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

        # _threshold()'s cache refresh, inlined: this runs once per
        # latency sample on the receiver hot path, and the call plus
        # re-resolved attribute chain costs as much as the fused
        # (median, MAD) computation itself.  The comparison chains are
        # ``max()`` with the builtin dispatch shaved off; leftmost-
        # wins tie-breaking is preserved (values only replace the
        # running maximum when strictly larger).
        if self._cache_version != baseline.version:
            med, mad = baseline.median_mad()
            spread = 1.4826 * mad
            if spread < 1e-12:
                spread = 1e-12
            margin = self.sigmas * spread
            if margin < self.min_delta:
                margin = self.min_delta
            rel = self.rel_delta * med
            if margin < rel:
                margin = rel
            self._cached_median = med
            self._cached_threshold = med + margin
            self._cache_version = baseline.version
            self.threshold_recomputes += 1

        if value > self._cached_threshold:
            self._pending.append((ts, value))
            if len(self._pending) >= self.confirm:
                # The cache is fresh: pending samples never touch the
                # window, so the median computed for the threshold
                # check *is* the reference's alarm-time baseline.
                med = self._cached_median
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
            return None

        # A below-threshold sample breaks any pending shift; the
        # pending values rejoin the baseline in arrival order.
        if self._pending:
            for _, pending_value in self._pending:
                baseline.append(pending_value)
            self._pending.clear()
        baseline.append(value)
        return None

    # -- state lifecycle (see repro.core.state) -------------------------

    #: v1 also carried the tuning and every alarm the series had
    #: raised; it is refused, never migrated.
    STATE_FMT = "ls-incremental/v2"

    def snapshot_state(self) -> Dict[str, Any]:
        """Versioned, JSON-serializable rendering of the detector.

        The (median, threshold) cache and its window-version key are
        part of the state: they must survive a restore or the next
        threshold read would recompute, inflating
        :attr:`threshold_recomputes` relative to the uninterrupted
        run (the checkpoint oracle compares that counter exactly).
        """
        return {
            "fmt": self.STATE_FMT,
            "baseline": self._baseline.snapshot_state(),
            "pending": [list(pair) for pair in self._pending],
            "count": self._count,
            "cooldown_until": encode_ts(self._cooldown_until),
            "threshold_recomputes": self.threshold_recomputes,
            "cache": {
                "version": self._cache_version,
                "median": self._cached_median,
                "threshold": self._cached_threshold,
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh detector (the latency tracker checks that
        the checkpoint ran the same tuning)."""
        require_state(state, self.STATE_FMT)
        self._baseline.restore_state(state["baseline"])
        self._pending = [(ts, value) for ts, value in state["pending"]]
        self._count = state["count"]
        self._cooldown_until = decode_ts(state["cooldown_until"])
        self.threshold_recomputes = state["threshold_recomputes"]
        cache = state["cache"]
        self._cache_version = cache["version"]
        self._cached_median = cache["median"]
        self._cached_threshold = cache["threshold"]
