"""Online level-shift (LS) outlier detection.

The paper plugs the R ``tsoutliers`` package's LS mode into GRETEL to
detect sustained shifts in API-latency and resource time series (§6).
LS semantics, which this online implementation preserves:

* maintain an adaptive baseline of the series;
* alarm when the series *shifts* to a new level (a sustained jump
  beyond the noise band), not on isolated spikes;
* after alarming, adopt the new level so the same shift is not
  re-reported ("the adaptive nature of LS raises alarms only when
  there is a sudden spike"; smaller subsequent variation is ignored).

A detector keeps a rolling window, estimates a robust baseline
(median + MAD), and confirms a shift after ``LS_CONFIRM`` consecutive
points beyond ``LS_SIGMAS`` robust deviations (and an absolute floor
``LS_MIN_DELTA``).  This module holds what every detector shares —
the :class:`LevelShift` alarm record and the one LS tuning, the
``LS_*`` constants — and the static-threshold ablation.  A detector
keeps no log of its alarms: ``update`` returns each one, once.  The
LS detector GRETEL runs is ``repro.core.streamstats``'s
``IncrementalLevelShiftDetector``; its from-scratch twin is the
reference half of ``repro.core.streamstats.verify_levelshift`` and
lives outside the production packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class LevelShift:
    """One detected level shift."""

    ts: float
    observed: float
    baseline: float
    magnitude: float        # observed - baseline
    index: int              # sample index at confirmation


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# The one LS tuning GRETEL runs.  Both the production and the
# reference detector read these when constructed (so a test retunes
# both with one ``monkeypatch.setattr`` on this module), and the
# latency tracker's checkpoint records them as its tuning guard.

#: Baseline window length (samples).
LS_WINDOW = 24
#: Shift threshold in robust sigmas.
LS_SIGMAS = 4.0
#: Minimum absolute shift (seconds for latency series), so
#: micro-jitter does not alarm.
LS_MIN_DELTA = 0.004
#: Minimum shift as a fraction of the baseline (a shift is a regime
#: change, not load jitter).
LS_REL_DELTA = 0.5
#: Consecutive outliers required to confirm a shift.
LS_CONFIRM = 3
#: Samples before a series may alarm.
LS_WARMUP = 12
#: Quiet period after an alarm, seconds of series time.
LS_COOLDOWN = 10.0


class StaticThresholdDetector:
    """The naive alternative to LS: alarm whenever a fixed threshold is
    crossed.

    GRETEL's outlier detection is pluggable (§6); this detector exists
    to quantify *why* the paper chose LS: a static threshold either
    misses shifts below it or — set tight — alarms continuously once
    organic load pushes the series past it, because it never adapts.
    The ablation bench compares false-alarm behaviour directly.
    """

    def __init__(self, threshold: float, confirm: int = 3) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if confirm < 1:
            raise ValueError("confirm must be at least 1")
        self.threshold_value = threshold
        self.confirm = confirm
        self._streak: List[Tuple[float, float]] = []
        self._count = 0

    def threshold(self) -> float:
        """The fixed alarm threshold."""
        return self.threshold_value

    def update(self, ts: float, value: float) -> Optional[LevelShift]:
        """Feed one sample; returns an alarm on every confirmed crossing."""
        self._count += 1
        if value > self.threshold_value:
            self._streak.append((ts, value))
            if len(self._streak) >= self.confirm:
                shift = LevelShift(
                    ts=self._streak[0][0],
                    observed=_median([v for _, v in self._streak]),
                    baseline=self.threshold_value,
                    magnitude=_median([v for _, v in self._streak])
                    - self.threshold_value,
                    # The sample index at confirmation, matching
                    # the LS detector (not the alarm count).
                    index=self._count,
                )
                self._streak.clear()
                return shift
            return None
        self._streak.clear()
        return None
