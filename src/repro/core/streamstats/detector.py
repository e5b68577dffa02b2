"""Incremental level-shift detection: the streaming-robust-stats LS.

Semantics are the from-scratch reference detector's (the oracle's
other half, kept outside the production packages), *bit for bit* —
warmup, cooldown, confirm streaks, the pending re-seed, alarm fields,
everything — with the per-sample cost model replaced:

===============================  =====================  ==============
step                             reference              incremental
===============================  =====================  ==============
window maintenance               O(1) deque append      O(log w) insort
median                           O(w·log w) sort        O(1), kept on append
MAD                              2 × O(w·log w) sorts   1 sort, only
                                                        above the floor
threshold                        recomputed per sample  median-only
                                                        floor; MAD only
                                                        above it
===============================  =====================  ==============

The threshold is ``med + max(sigmas·spread, min_delta, rel_delta·med)``,
never below the *floor* ``med + max(min_delta, rel_delta·med)``, and
round-to-nearest addition is monotone: a sample at or under the floor
cannot alarm, whatever the MAD.  So ``update`` reads only the median
for it, and pays for the MAD and the full threshold only above the
floor (a NaN sample fails ``<=`` and takes that path too).  Above the
floor it runs the reference's own ``threshold()`` arithmetic.
``repro.core.streamstats.oracle.verify_levelshift`` replays both
detectors over the same stream and raises on any alarm/baseline/
threshold divergence — the same reference-half-of-a-differential-
oracle pattern ``repro.core.matching`` uses for Algorithm 2 scoring.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import outliers
from repro.core.outliers import LevelShift, _median
from repro.core.streamstats.window import SortedWindow


class IncrementalLevelShiftDetector:
    """Online LS detector for one time series (cost model: module
    docstring)."""

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
        """Current robust baseline (median of the window; 0.0 when
        empty)."""
        return self._baseline.med

    @property
    def spread(self) -> float:
        """Robust spread: MAD scaled to sigma-equivalent, floored."""
        window = self._baseline
        if window.size < 4:
            return float("inf")
        return max(1.4826 * window.mad(window.med), 1e-12)

    def threshold(self) -> float:
        """Current alarm threshold above the baseline: the reference's
        formula, computed afresh (the oracle compares it after every
        sample)."""
        med = self._baseline.med
        return med + max(
            self.sigmas * self.spread, self.min_delta, self.rel_delta * med
        )

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
        # reads only the window's kept median.  The comparison chain
        # is ``max()``'s leftmost-wins without the builtin dispatch.
        med = baseline.med
        margin = self.min_delta
        rel = self.rel_delta * med
        if margin < rel:
            margin = rel
        if not value <= med + margin:
            # Above the floor (or NaN): only now does the MAD matter.
            self.threshold_recomputes += 1
            if value > self.threshold():
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
    # A series writes no document of its own: the latency tracker
    # packs every series into one column block, a row each.

    def state_row(self) -> Tuple[SortedWindow, List[Tuple[float, float]],
                                 int, float, int]:
        """The series as one row of the tracker's block: the baseline
        (iterated in arrival order), the pending ``(ts, value)``
        pairs, the sample count, the cooldown deadline and the
        threshold recomputes.  Read-only views, not copies."""
        return (self._baseline, self._pending, self._count,
                self._cooldown_until, self.threshold_recomputes)

    def restore_row(self, baseline: List[float],
                    pending: List[Tuple[float, float]], count: int,
                    cooldown_until: float, recomputes: int) -> None:
        """Inverse of :meth:`state_row` on a fresh detector (the
        tracker has checked the row, and the tuning it ran under)."""
        self._baseline.refill(baseline)
        self._pending = pending
        self._count = count
        self._cooldown_until = cooldown_until
        self.threshold_recomputes = recomputes
