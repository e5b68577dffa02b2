"""From-scratch level-shift detection: the reference half of
``repro.core.streamstats.verify_levelshift``.

Same LS semantics as the production
:class:`~repro.core.streamstats.detector.IncrementalLevelShiftDetector`
(``repro.core.outliers`` says what LS means here), with the naive cost
model: a rolling deque, and every ``threshold()`` read pays three
O(w·log w) sorts (the median, then the MAD's two).  The oracle holds
the production detector to bit-identical alarms, baselines and
thresholds against this class.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core import outliers
from repro.core.outliers import LevelShift, _median


class LevelShiftDetector:
    """Online LS detector for one time series."""

    def __init__(self) -> None:
        # The tuning is ``repro.core.outliers``'s, read at construction
        # like the production detector's.
        self.sigmas = outliers.LS_SIGMAS
        self.min_delta = outliers.LS_MIN_DELTA
        #: Minimum shift as a fraction of the baseline: a *level shift*
        #: is a jump to a new regime, not jitter around the old one.
        self.rel_delta = outliers.LS_REL_DELTA
        self.confirm = outliers.LS_CONFIRM
        self.warmup = max(outliers.LS_WARMUP, self.confirm + 1)
        #: Quiet period after an alarm (seconds of series time): the
        #: transition into/out of a new level is volatile, and one
        #: level shift should raise one alarm, not a storm (the paper's
        #: LS "does not report many false alarms").
        self.cooldown = outliers.LS_COOLDOWN
        self._cooldown_until = float("-inf")
        self._baseline: Deque[float] = deque(maxlen=outliers.LS_WINDOW)
        self._pending: List[Tuple[float, float]] = []   # shift candidates
        self._count = 0
        #: Perf counter: every ``threshold()`` call re-derives the
        #: (median, MAD, threshold) triple from scratch here; the
        #: incremental engine only recomputes on window mutation.
        self.threshold_recomputes = 0

    # -- state ------------------------------------------------------------

    @property
    def baseline(self) -> float:
        """Current robust baseline (median of the window)."""
        if not self._baseline:
            return 0.0
        return _median(list(self._baseline))

    @property
    def spread(self) -> float:
        """Robust spread: MAD scaled to sigma-equivalent, floored."""
        values = list(self._baseline)
        if len(values) < 4:
            return float("inf")
        med = _median(values)
        mad = _median([abs(v - med) for v in values])
        return max(1.4826 * mad, 1e-12)

    def threshold(self) -> float:
        """Current alarm threshold above the baseline."""
        self.threshold_recomputes += 1
        baseline = self.baseline
        return baseline + max(
            self.sigmas * self.spread,
            self.min_delta,
            self.rel_delta * baseline,
        )

    # -- feeding ----------------------------------------------------------

    def update(self, ts: float, value: float) -> Optional[LevelShift]:
        """Feed one sample; returns a :class:`LevelShift` when confirmed."""
        self._count += 1
        if self._count <= self.warmup or len(self._baseline) < 4:
            self._baseline.append(value)
            return None
        if ts < self._cooldown_until:
            self._baseline.append(value)
            return None

        if value > self.threshold():
            self._pending.append((ts, value))
            if len(self._pending) >= self.confirm:
                observed = _median([v for _, v in self._pending])
                baseline = self.baseline
                shift = LevelShift(
                    ts=self._pending[0][0],
                    observed=observed,
                    baseline=baseline,
                    magnitude=observed - baseline,
                    index=self._count,
                )
                # Adapt: the series has moved to a new level — re-seed
                # the baseline on it (tsoutliers' LS adjustment), so
                # the same shift is reported exactly once.
                self._baseline.clear()
                for _, pending_value in self._pending:
                    self._baseline.append(pending_value)
                self._pending.clear()
                self._cooldown_until = ts + self.cooldown
                return shift
            return None

        # A below-threshold sample breaks any pending shift (isolated
        # spikes never alarm — LS wants sustained level changes).
        if self._pending:
            for _, pending_value in self._pending:
                self._baseline.append(pending_value)
            self._pending.clear()
        self._baseline.append(value)
        return None
