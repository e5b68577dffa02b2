"""Tests for the streaming robust-statistics LS engine."""

import itertools
import json
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import outliers
from repro.core.latency import LatencyTracker
from repro.core.outliers import _median
from repro.core.streamstats import (
    IncrementalLevelShiftDetector,
    SortedWindow,
    verify_levelshift,
)
from repro.oracle import OracleDivergence
from repro.reference import LevelShiftDetector


def feed(detector, values, start_ts=0.0):
    alarms = []
    for index, value in enumerate(values):
        shift = detector.update(start_ts + index, value)
        if shift is not None:
            alarms.append(shift)
    return alarms


def steady(n, level=0.010, jitter=0.001, seed=1):
    rng = random.Random(seed)
    return [level + rng.uniform(-jitter, jitter) for _ in range(n)]


# ---------------------------------------------------------------------------
# SortedWindow: parity with deque(maxlen) + sorted()
# ---------------------------------------------------------------------------


def reference_mad(values):
    med = _median(values)
    return _median([abs(v - med) for v in values])


def test_window_validation():
    with pytest.raises(ValueError):
        SortedWindow(0)


def test_window_eviction_matches_deque():
    window = SortedWindow(4)
    mirror = deque(maxlen=4)
    for value in [5.0, 1.0, 3.0, 2.0, 4.0, 0.5]:
        window.append(value)
        mirror.append(value)
        assert list(window) == list(mirror)


def test_window_median_and_mad_small_cases():
    window = SortedWindow(8)
    window.append(3.0)
    assert window.med == 3.0
    assert window.mad(3.0) == 0.0
    window.append(1.0)
    assert window.med == 2.0
    assert window.mad(2.0) == reference_mad([3.0, 1.0])


@given(
    st.integers(min_value=1, max_value=25),
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1, max_size=120,
    ),
)
@settings(max_examples=200, deadline=None)
def test_window_statistics_match_reference(maxlen, values):
    """The kept median and the MAD are bit-identical to the sort-from-
    scratch reference at every step of an arbitrary rolling stream."""
    window = SortedWindow(maxlen)
    mirror = deque(maxlen=maxlen)
    for value in values:
        window.append(value)
        mirror.append(value)
        current = list(mirror)
        assert list(window) == current
        assert window.med == _median(current)
        assert window.mad(window.med) == reference_mad(current)


def test_window_keeps_its_median_through_clear_and_restore():
    """``med`` is derived: 0.0 when empty, and recomputed when a
    restore refills the window from its arrival-order values (all the
    checkpoint holds)."""
    window = SortedWindow(4)
    assert window.med == 0.0
    for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
        window.append(value)
    assert window.med == 2.5
    restored = SortedWindow(4)
    restored.refill(list(window))
    assert list(restored) == [1.0, 3.0, 2.0, 4.0]
    assert restored.med == 2.5
    window.clear()
    assert window.med == 0.0
    restored.refill(list(window))
    assert restored.med == 0.0


def test_window_mad_with_duplicates():
    window = SortedWindow(6)
    for value in [2.0, 2.0, 2.0, 5.0, 5.0, 5.0]:
        window.append(value)
    assert window.mad(window.med) == reference_mad([2.0] * 3 + [5.0] * 3)


# ---------------------------------------------------------------------------
# IncrementalLevelShiftDetector: reference LS semantics
# ---------------------------------------------------------------------------


def test_incremental_constructor_validation():
    """The production detector takes no tuning argument either."""
    detector_class = IncrementalLevelShiftDetector
    with pytest.raises(TypeError):
        detector_class(window=24)


def test_incremental_detects_level_shift():
    detector = IncrementalLevelShiftDetector()
    series = steady(60) + steady(40, level=0.060, seed=2)
    alarms = feed(detector, series)
    assert len(alarms) == 1
    alarm = alarms[0]
    assert alarm.observed > alarm.baseline
    assert 60 <= alarm.index <= 66


def test_pending_samples_do_not_poison_baseline():
    """A broken confirm streak folds its pending samples back into the
    window in arrival order — exactly as the reference does — so the
    baselines of both detectors stay element-for-element identical."""
    reference = LevelShiftDetector()
    incremental = IncrementalLevelShiftDetector()
    # Two above-threshold spikes, then a normal value: streak breaks.
    series = steady(40) + [0.300, 0.310, 0.010]
    for index, value in enumerate(series):
        assert reference.update(float(index), value) is None
        assert incremental.update(float(index), value) is None
    window = list(incremental._baseline)
    assert list(reference._baseline) == window
    # The broken streak's samples rejoined the window, in order,
    # before the breaking value.
    assert window[-3:] == [0.300, 0.310, 0.010]
    assert reference.threshold() == incremental.threshold()


def test_alarm_once_per_shift_under_cooldown():
    """One sustained shift raises exactly one alarm: the cooldown and
    the post-alarm re-seed suppress the alarm storm."""
    detector = IncrementalLevelShiftDetector()
    series = steady(60) + steady(120, level=0.080, seed=4)
    alarms = feed(detector, series)
    assert len(alarms) == 1


def test_second_shift_alarms_again():
    detector = IncrementalLevelShiftDetector()
    series = (steady(60) + steady(60, level=0.060, seed=5)
              + steady(60, level=0.200, seed=6))
    assert len(feed(detector, series)) == 2


def test_floor_gate_counts_full_computations():
    """Past warmup, a steady series never rises above the median-only
    floor, so ``update`` computes no MAD; a confirmed shift computes
    it once per above-floor sample (``threshold()`` reads count none)."""
    detector = IncrementalLevelShiftDetector()
    feed(detector, steady(50))
    assert detector.threshold_recomputes == 0
    detector.threshold()
    assert detector.threshold_recomputes == 0
    alarms = feed(detector, [0.060] * detector.confirm, start_ts=50.0)
    assert len(alarms) == 1
    assert detector.threshold_recomputes == detector.confirm


def test_incremental_threshold_matches_reference_when_underfilled():
    reference = LevelShiftDetector()
    incremental = IncrementalLevelShiftDetector()
    for index, value in enumerate([0.01, 0.02]):
        reference.update(float(index), value)
        incremental.update(float(index), value)
    assert reference.threshold() == incremental.threshold()
    assert reference.spread == incremental.spread == float("inf")


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


def shift_series(draw_seed, n=400):
    """A random stream with occasional regime changes."""
    rng = random.Random(draw_seed)
    samples = []
    ts = 0.0
    level = 0.05
    for _ in range(n):
        ts += rng.uniform(0.01, 0.5)
        if rng.random() < 0.02:
            level *= rng.uniform(1.2, 5.0)
        samples.append((ts, level * rng.uniform(0.8, 1.3)))
    return samples


def ls_floor(detector):
    """The median-only floor ``med + max(min_delta, rel_delta·med)``
    under which ``update`` skips the MAD."""
    med = detector.baseline
    return med + max(detector.min_delta, detector.rel_delta * med)


def hug_floor(samples, offsets):
    """Re-aim ``samples`` at the detector's floor: cycling through
    ``offsets``, an integer moves the sample to that many ulps from the
    floor of a probe fed the stream so far; ``None`` keeps it."""
    probe = IncrementalLevelShiftDetector()
    hugged = []
    for (ts, value), offset in zip(samples, itertools.cycle(offsets)):
        if offset is not None:
            value = ls_floor(probe)
            for _ in range(abs(offset)):
                value = math.nextafter(value, math.copysign(math.inf, offset))
        probe.update(ts, value)
        hugged.append((ts, value))
    return hugged, probe


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=4, max_value=48),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=20.0),
    st.one_of(
        st.none(),
        st.lists(
            st.sampled_from([-1, 0, 1, None]), min_size=1, max_size=8,
        ),
    ),
)
@settings(max_examples=60, deadline=None)
def test_incremental_equivalent_to_reference(
    seed, window, confirm, cooldown, offsets
):
    """The tentpole property: over random streams *and* random LS
    tunings, the incremental detector is bit-identical to the
    reference — every alarm field, every baseline, every threshold.
    With ``offsets`` drawn, the stream hugs the floor gate to the ulp."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (
            ("LS_WINDOW", window), ("LS_CONFIRM", confirm),
            ("LS_COOLDOWN", cooldown), ("LS_WARMUP", confirm + 1),
            ("LS_MIN_DELTA", 0.001),
        ):
            patch.setattr(outliers, name, value)
        samples = shift_series(seed)
        if offsets:
            samples, _ = hug_floor(samples, offsets)
        result = verify_levelshift(samples)
    assert result.ok
    assert result.facts["samples"] == 400


@pytest.mark.parametrize("level", [0.010, 0.0, -1.0])
def test_floor_boundary_matches_reference(level):
    """Samples exactly at the floor, one ulp either side of it, and a
    NaN, over zero and negative medians too.  A flat series has MAD 0,
    so its threshold *is* the floor: a sample one ulp above it joins
    the confirm streak, one at the floor breaks it.  Only the above-floor samples and the
    NaN (which fails ``<=``) pay for the MAD."""
    plan = [0, 0, -1, 1, 0, None, 1, 1, 1]
    flat = [(float(ts), level) for ts in range(20)]
    tail = [(20.0 + ts, math.nan) for ts in range(len(plan))]
    samples, probe = hug_floor(flat + tail, [None] * 20 + plan)
    result = verify_levelshift(samples)
    assert result.ok
    assert result.facts["alarms"] == 1
    assert probe.threshold_recomputes == plan.count(1) + plan.count(None)


def test_oracle_counts_alarms():
    result = verify_levelshift(shift_series(7))
    assert result.ok
    assert result.facts["alarms"] >= 1
    assert "EQUIVALENT" in result.summary()


def test_oracle_flags_divergence():
    """Negative test: the oracle must *fail* when handed detectors
    that genuinely disagree (mismatched windows)."""
    def mismatched():
        reference = LevelShiftDetector()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(outliers, "LS_WINDOW", 8)
            return reference, IncrementalLevelShiftDetector()

    result = verify_levelshift(
        shift_series(3), detectors=mismatched(), strict=False
    )
    assert not result.ok
    assert "DIVERGED" in result.summary()
    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_levelshift(shift_series(3), detectors=mismatched())
    assert excinfo.value.result.layer == "levelshift"
    assert excinfo.value.result.mismatches


def test_both_detectors_default_to_the_stated_tuning():
    """The LS tuning is written out once, as the ``LS_*`` constants of
    ``repro.core.outliers``; both detectors read them when built, so
    one patch of the module retunes both."""
    stated = {
        name: value for name, value in vars(outliers).items()
        if name.startswith("LS_")
    }
    assert stated == {
        "LS_WINDOW": 24, "LS_SIGMAS": 4.0, "LS_MIN_DELTA": 0.004,
        "LS_REL_DELTA": 0.5, "LS_CONFIRM": 3, "LS_WARMUP": 12,
        "LS_COOLDOWN": 10.0,
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(outliers, "LS_WINDOW", 8)
        patch.setattr(outliers, "LS_SIGMAS", 2.0)
        patch.setattr(outliers, "LS_WARMUP", 30)
        detectors = (IncrementalLevelShiftDetector(), LevelShiftDetector())
    for detector in detectors:
        assert detector._baseline.maxlen == 8
        assert (detector.sigmas, detector.warmup) == (2.0, 30)
        assert (detector.min_delta, detector.confirm) == (0.004, 3)


def test_every_branch_equivalent_across_restores():
    """One series through every ``update`` branch — warm-up, the floor
    gate, above the floor but under the threshold, a pending streak
    that breaks, a confirmed shift with its re-seed, the under-filled
    window after it, cooldown — with the incremental detector
    snapshotted and restored into a fresh one between each pair of
    branches.  The reference runs straight through; every leg must be
    EQUIVALENT, and every restored window's kept median must equal its
    median recomputed from the sorted values."""
    rng = random.Random(5)

    def level(n):
        # Wide enough that the MAD lifts the threshold over the floor.
        return [rng.uniform(0.005, 0.015) for _ in range(n)]

    legs = [
        ("warm-up", level(12)),
        ("under the floor", level(12)),
        ("above the floor, under the threshold", [0.018, 0.019]),
        ("pending", [0.2, 0.2]),
        ("streak broken", level(1)),
        ("shift confirmed", [0.2, 0.21, 0.19]),
        ("cooldown", [0.2] * 9),
        ("re-seeded", [0.2 + v for v in level(6)]),
    ]
    reference = LevelShiftDetector()
    incremental = IncrementalLevelShiftDetector()
    seen = {}
    ts = 0.0
    for name, values in legs:
        samples = [(ts + i, v) for i, v in enumerate(values)]
        ts += len(values)
        result = verify_levelshift(
            samples, detectors=(reference, incremental), label=name
        )
        assert result.summary().startswith("EQUIVALENT"), name
        seen[name] = (
            result.facts["alarms"], len(incremental._pending),
            incremental.threshold_recomputes,
            samples[-1][0] < incremental._cooldown_until,
        )
        tracker = LatencyTracker()
        tracker.detectors["api"] = incremental
        twin = LatencyTracker()
        twin.restore_state(json.loads(json.dumps(tracker.snapshot_state())))
        restored = twin.detectors["api"]
        window = restored._baseline
        assert window.med == (_median(list(window)) if len(window) else 0.0)
        assert window.med == incremental._baseline.med
        incremental = restored

    # Each leg took the branch it is named for.
    assert seen["warm-up"][2] == 0
    assert seen["under the floor"][2] == 0
    assert seen["above the floor, under the threshold"][1:3] == (0, 2)
    assert seen["pending"][1] == 2
    assert seen["streak broken"][1] == 0
    assert seen["shift confirmed"][0] == 1
    assert seen["cooldown"][3]
    assert not seen["re-seeded"][3]
    assert seen["re-seeded"][2] == seen["cooldown"][2]
