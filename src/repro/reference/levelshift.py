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
from typing import Any, Deque, Dict, List, Mapping, Optional

from repro.core.outliers import (
    LS_CONFIRM, LS_COOLDOWN, LS_MIN_DELTA, LS_REL_DELTA, LS_SIGMAS,
    LS_WARMUP, LS_WINDOW, LevelShift, _median, check_ls_params, ls_params,
)
from repro.core.state import decode_ts, encode_ts, require_state


class LevelShiftDetector:
    """Online LS detector for one time series."""

    def __init__(
        self,
        window: int = LS_WINDOW,
        sigmas: float = LS_SIGMAS,
        min_delta: float = LS_MIN_DELTA,
        confirm: int = LS_CONFIRM,
        warmup: int = LS_WARMUP,
        rel_delta: float = LS_REL_DELTA,
        cooldown: float = LS_COOLDOWN,
    ):
        if window < 4:
            raise ValueError("window must be at least 4")
        if confirm < 1:
            raise ValueError("confirm must be at least 1")
        self.window = window
        self.sigmas = sigmas
        self.min_delta = min_delta
        #: Minimum shift as a fraction of the baseline: a *level shift*
        #: is a jump to a new regime, not jitter around the old one.
        self.rel_delta = rel_delta
        self.confirm = confirm
        self.warmup = max(warmup, confirm + 1)
        #: Quiet period after an alarm (seconds of series time): the
        #: transition into/out of a new level is volatile, and one
        #: level shift should raise one alarm, not a storm (the paper's
        #: LS "does not report many false alarms").
        self.cooldown = cooldown
        self._cooldown_until = float("-inf")
        self._baseline: Deque[float] = deque(maxlen=window)
        self._pending: List[tuple] = []   # (ts, value) candidates
        self._count = 0
        self.alarms: List[LevelShift] = []
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

    # -- feeding -------------------------------------------------------------

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
                shift = LevelShift(
                    ts=self._pending[0][0],
                    observed=_median([v for _, v in self._pending]),
                    baseline=self.baseline,
                    magnitude=_median([v for _, v in self._pending]) - self.baseline,
                    index=self._count,
                )
                self.alarms.append(shift)
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
            for pending_ts, pending_value in self._pending:
                self._baseline.append(pending_value)
            self._pending.clear()
        self._baseline.append(value)
        return None

    def reset(self) -> None:
        """Forget all state (fresh series)."""
        self._baseline.clear()
        self._pending.clear()
        self._count = 0
        self._cooldown_until = float("-inf")
        self.alarms.clear()

    # -- state lifecycle (see repro.core.state) -------------------------

    STATE_FMT = "ls-reference/v1"

    def snapshot_state(self) -> Dict[str, Any]:
        """Versioned, JSON-serializable rendering of the detector."""
        return {
            "fmt": self.STATE_FMT,
            "params": ls_params(self),
            "baseline": list(self._baseline),
            "pending": [list(pair) for pair in self._pending],
            "count": self._count,
            "cooldown_until": encode_ts(self._cooldown_until),
            "alarms": [shift.to_dict() for shift in self.alarms],
            "threshold_recomputes": self.threshold_recomputes,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh detector with the same tuning."""
        require_state(state, self.STATE_FMT)
        check_ls_params(self, state)
        self._baseline.clear()
        self._baseline.extend(state["baseline"])
        self._pending = [(ts, value) for ts, value in state["pending"]]
        self._count = state["count"]
        self._cooldown_until = decode_ts(state["cooldown_until"])
        self.alarms = [
            LevelShift.from_dict(shift) for shift in state["alarms"]
        ]
        self.threshold_recomputes = state["threshold_recomputes"]
