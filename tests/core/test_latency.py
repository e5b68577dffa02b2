"""Tests for per-API latency tracking."""

import re

import pytest

from repro.core.state import StateError, pack_floats
from repro.openstack.apis import ApiKind
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core import outliers
from repro.core.latency import LatencyTracker
from repro.core.streamstats import IncrementalLevelShiftDetector
from repro.reference import LevelShiftDetector


def reference_tracker():
    """A tracker whose series run the reference LS detector."""
    tracker = LatencyTracker()

    def detector_for(api_key):
        if api_key not in tracker.detectors:
            tracker.detectors[api_key] = LevelShiftDetector()
        return tracker.detectors[api_key]

    tracker.detector_for = detector_for
    return tracker


def make_event(seq, api_key, latency, ts=None, status=200, noise=False):
    ts = ts if ts is not None else seq * 0.1
    return WireEvent(
        seq=seq, api_key=api_key, kind=ApiKind.REST, method="GET",
        name="/x", src_service="a", src_node="n1", src_ip="1",
        dst_service="b", dst_node="n2", dst_ip="2",
        ts_request=ts - latency, ts_response=ts, status=status,
        noise=noise,
    )


def test_separate_series_per_api():
    tracker = LatencyTracker()
    tracker.observe(make_event(1, "api-a", 0.01))
    tracker.observe(make_event(2, "api-b", 0.01))
    series = tracker.snapshot_state()["detectors"]
    assert series["keys"] == ["api-a", "api-b"]
    assert series["count"] == [1, 1]
    assert series["baseline_sizes"] == [1, 1]


def test_anomaly_on_level_shift():
    seen = []
    tracker = LatencyTracker(on_anomaly=seen.append)
    returned = []
    for seq in range(60):
        tracker.observe(make_event(seq, "api-a", 0.010 + (seq % 3) * 0.0005))
    for seq in range(60, 80):
        returned.append(tracker.observe(make_event(seq, "api-a", 0.080)))
    assert len(seen) == 1
    anomaly = seen[0]
    assert anomaly.api_key == "api-a"
    assert anomaly.magnitude > 0.05
    # The callback gets exactly what ``observe`` returns.
    assert [a for a in returned if a is not None] == seen


def test_no_anomaly_on_steady_series():
    seen = []
    tracker = LatencyTracker(on_anomaly=seen.append)
    for seq in range(200):
        tracker.observe(make_event(seq, "api-a", 0.010 + (seq % 5) * 0.0004))
    assert seen == []


def test_anomaly_carries_triggering_event():
    # The ledger's positional call: no callback, ``observe`` returns
    # the anomaly.
    tracker = LatencyTracker(GretelConfig())
    for seq in range(40):
        tracker.observe(make_event(seq, "a", 0.01))
    result = None
    for seq in range(40, 60):
        result = result or tracker.observe(make_event(seq, "a", 0.2))
    assert result is not None
    assert result.event.api_key == "a"


def test_tracker_builds_default_tuned_detectors():
    """Every series is the production detector; the tracker's state
    names the one tuning they all run, once."""
    tracker = LatencyTracker()
    detector = tracker.detector_for("a")
    assert isinstance(detector, IncrementalLevelShiftDetector)
    assert detector._baseline.maxlen == outliers.LS_WINDOW
    assert tracker.snapshot_state()["tuning"] == {
        "LS_WINDOW": 24, "LS_SIGMAS": 4.0, "LS_MIN_DELTA": 0.004,
        "LS_REL_DELTA": 0.5, "LS_CONFIRM": 3, "LS_WARMUP": 12,
        "LS_COOLDOWN": 10.0,
    }


def shift_stream(apis=3, steady=50, shifted=25):
    """Interleaved multi-API stream where every API level-shifts."""
    events = []
    seq = 0
    for step in range(steady + shifted):
        for api in range(apis):
            latency = 0.010 + (step % 3) * 0.0005
            if step >= steady:
                latency = 0.080 + (step % 3) * 0.0005
            events.append(make_event(seq, f"api-{api}", latency))
            seq += 1
    return events


def test_batch_gate_skips_noise_and_errors(small_character):
    """The analyzer feeds the tracker only clean exchanges: noise and
    error responses pass through ``on_event`` without a latency
    sample, under both per-event bodies (fused, and observed by
    middleware)."""
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.pipeline import StageTimer

    for middleware in ((), (StageTimer(),)):
        analyzer = GretelAnalyzer(
            small_character.library, middleware=middleware,
        )
        for event in (
            make_event(1, "a", 0.01),
            make_event(2, "a", 0.01, status=404),
            make_event(3, "a", 0.01, noise=True),
            make_event(4, "a", 0.01, status=399),
        ):
            analyzer.on_event(event)
        assert analyzer.events_processed == 4
        assert analyzer.stats().ls_samples_fed == 2, middleware


def test_threshold_recompute_counter_aggregates_series():
    tracker = LatencyTracker()
    reference = reference_tracker()
    for event in shift_stream(apis=2):
        tracker.observe(event)
        reference.observe(event)
    incremental_recomputes = tracker.ls_threshold_recomputes
    assert 0 < incremental_recomputes

    # The incremental detector computes the MAD only for samples
    # above its median-only floor; the reference recomputes on every
    # threshold() call.
    assert incremental_recomputes <= reference.ls_threshold_recomputes


def test_fused_intake_feeds_the_restored_series(small_character):
    """``LatencyTracker.restore_state`` replaces its series dict, so the
    analyzer's fused intake must reach the series through the tracker,
    never through a binding of the dict it was built with: a restored
    analyzer finishes the stream exactly as an uninterrupted one."""
    from dataclasses import replace

    from repro.core.analyzer import GretelAnalyzer
    from repro.core.reports import report_signature
    from repro.workloads.traffic import SyntheticStream

    library = small_character.library
    keys = []   # three of the library's REST APIs, for detection
    for event in SyntheticStream(library, library.symbols).events(100):
        if event.kind is ApiKind.REST and event.api_key not in keys:
            keys.append(event.api_key)
    events = [
        replace(event, api_key=keys[int(event.api_key[-1])])
        for event in shift_stream()
    ]
    cut = len(events) * 3 // 4   # inside the shifted stretch
    straight = GretelAnalyzer(library)
    straight.feed(events)
    first = GretelAnalyzer(library)
    first.feed(events[:cut])

    resumed = GretelAnalyzer(library)
    resumed.feed(events[:5])     # series of its own, to be replaced
    resumed.restore_state(first.snapshot_state())
    assert sorted(resumed.latency.detectors) == sorted(keys[:3])
    resumed.feed(events[cut:])

    assert resumed.snapshot_state() == straight.snapshot_state()
    assert [report_signature(r) for r in resumed.reports] == [
        report_signature(r) for r in straight.reports[len(first.reports):]
    ]
    assert straight.performance_reports


def test_series_block_round_trips_empty_and_full_series():
    """One column block for every series: a tracker with none, and
    one whose series hold a full baseline, a pending streak and a
    cooldown deadline (and one that saw a single sample), restore to
    trackers that behave identically afterwards."""
    import json

    empty = LatencyTracker()
    state = empty.snapshot_state()
    assert state["detectors"] == {
        "keys": [], "baseline_sizes": [], "baselines": "",
        "pending_sizes": [], "pending": "", "count": [],
        "cooldown_until": "", "threshold_recomputes": [],
    }
    restored = LatencyTracker()
    restored.restore_state(json.loads(json.dumps(state)))
    assert restored.detectors == {}

    tracker = LatencyTracker()
    seq = 0
    for value in [0.010] * 40 + [0.080] * 5 + [0.011] * 30 + [0.9] * 2:
        seq += 1
        tracker.observe(make_event(seq, "api-a", value, ts=seq * 1.0))
    tracker.observe(make_event(seq + 1, "api-b", 0.02))
    state = json.loads(json.dumps(tracker.snapshot_state()))
    series = state["detectors"]
    assert series["keys"] == ["api-a", "api-b"]
    assert series["baseline_sizes"] == [outliers.LS_WINDOW, 1]
    assert series["pending_sizes"] == [2, 0]
    restored = LatencyTracker()
    restored.restore_state(state)
    assert restored.snapshot_state() == state
    for value in [0.9] * 3 + [0.011] * 20:
        seq += 1
        for each in (tracker, restored):
            each.observe(make_event(seq, "api-a", value, ts=seq * 1.0))
    assert restored.snapshot_state() == tracker.snapshot_state()


@pytest.mark.parametrize("column, value, named", [
    ("keys", ["api-a", "api-a"], "detectors.keys: a series appears twice"),
    ("count", [1], "detectors.count: 1 values for 2 series"),
    ("threshold_recomputes", [0, -1],
     "detectors.threshold_recomputes: expected a list of non-negative"),
    ("baseline_sizes", [2, 1],
     "detectors.baselines: 2 floats, the sizes add up to 3"),
    ("pending", "AAAAAAAAAAA=",
     "detectors.pending: 1 floats, the sizes add up to 0"),
    ("cooldown_until", [None, None],
     "detectors.cooldown_until: expected packed float64 text"),
])
def test_malformed_series_block_is_refused_by_key_path(column, value,
                                                       named):
    tracker = LatencyTracker()
    tracker.observe(make_event(1, "api-a", 0.01))
    tracker.observe(make_event(2, "api-b", 0.01))
    state = tracker.snapshot_state()
    state["detectors"][column] = value
    before = LatencyTracker()
    before.observe(make_event(3, "api-c", 0.01))
    kept = before.snapshot_state()
    with pytest.raises(StateError, match=re.escape(named)):
        before.restore_state(state)
    assert before.snapshot_state() == kept


def test_an_overfull_baseline_names_its_series():
    tracker = LatencyTracker()
    for seq in range(3):
        tracker.observe(make_event(seq, "api-a", 0.01))
    state = tracker.snapshot_state()
    state["detectors"]["baseline_sizes"] = [outliers.LS_WINDOW + 1]
    state["detectors"]["baselines"] = pack_floats(
        [0.01] * (outliers.LS_WINDOW + 1)
    )
    with pytest.raises(
        StateError,
        match=re.escape("detectors['api-a'].baseline_sizes: 25 baseline "
                        "values, LS_WINDOW is 24"),
    ):
        LatencyTracker().restore_state(state)
