"""Property tests: snapshot/restore is invisible at every layer.

The state protocol's contract (``repro.core.state``) is *bit-identical*
rehydration: freeze a layer mid-stream through a real JSON round trip,
restore into a freshly constructed twin, and the twin must be
indistinguishable from the uninterrupted original on any subsequent
input.  These properties randomize the stream, the freeze point and
the layer tuning, and drive the original and the restored twin in
lockstep afterwards.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import outliers
from repro.core.latency import LatencyTracker
from repro.core.state import StateError, StateFormatError
from repro.core.streamstats.detector import IncrementalLevelShiftDetector
from repro.core.streamstats.window import SortedWindow
from repro.core.window import SlidingWindow
from repro.openstack.apis import ApiKind
from repro.openstack.wire import WireEvent


def round_trip(state):
    """An actual JSON round trip — serializability is part of the
    contract, not an assumption."""
    return json.loads(json.dumps(state))


def make_event(seq, status=200):
    return WireEvent(
        seq=seq, api_key="rest:nova:GET:/v2.1/servers", kind=ApiKind.REST,
        method="GET", name="/v2.1/servers",
        src_service="horizon", src_node="ctrl", src_ip="1",
        dst_service="nova", dst_node="nova-ctl", dst_ip="2",
        ts_request=seq * 1.0, ts_response=seq * 1.0 + 0.01, status=status,
    )


# ---------------------------------------------------------------------------
# SlidingWindow
# ---------------------------------------------------------------------------

@st.composite
def window_runs(draw):
    alpha = draw(st.integers(min_value=2, max_value=24))
    total = draw(st.integers(min_value=1, max_value=80))
    faults = draw(st.sets(
        st.integers(min_value=0, max_value=total - 1), max_size=6,
    ))
    cut = draw(st.integers(min_value=0, max_value=total))
    return alpha, total, faults, cut


@given(case=window_runs())
@settings(max_examples=120, deadline=None)
def test_sliding_window_round_trip(case):
    alpha, total, faults, cut = case

    def feed(window, seq):
        event = make_event(seq, status=500 if seq in faults else 200)
        frozen = window.append(event)
        if seq in faults:
            window.mark_fault(event)
        return [snapshot.to_dict() for snapshot in frozen]

    original = SlidingWindow(alpha=alpha)
    for seq in range(cut):
        feed(original, seq)

    restored = SlidingWindow(alpha=alpha)
    restored.restore_state(round_trip(original.snapshot_state()))

    for seq in range(cut, total):
        assert feed(original, seq) == feed(restored, seq)
    assert original.appended == restored.appended
    assert original.snapshots_taken == restored.snapshots_taken
    assert original.pending_snapshots == restored.pending_snapshots
    # End-of-stream freezes must agree too (pending order survives).
    assert (
        [s.to_dict() for s in original.flush()]
        == [s.to_dict() for s in restored.flush()]
    )


def test_sliding_window_refuses_alpha_mismatch():
    from repro.core.state import StateError

    original = SlidingWindow(alpha=8)
    state = original.snapshot_state()
    with pytest.raises(StateError, match="alpha"):
        SlidingWindow(alpha=10).restore_state(state)


# ---------------------------------------------------------------------------
# SortedWindow
# ---------------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9,
    allow_nan=False, allow_infinity=False,
)


@given(
    maxlen=st.integers(min_value=1, max_value=16),
    values=st.lists(finite_floats, max_size=60),
    tail=st.lists(finite_floats, max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_sorted_window_round_trip(maxlen, values, tail):
    original = SortedWindow(maxlen)
    for value in values:
        original.append(value)

    restored = SortedWindow(maxlen)
    restored.restore_state(round_trip(original.snapshot_state()))

    assert list(restored) == list(original)
    for value in tail:
        original.append(value)
        restored.append(value)
        assert list(restored) == list(original)
        if len(original):
            med = original.median()
            assert restored.median() == med
            assert restored.mad(med) == original.mad(med)
            assert restored.bounds() == original.bounds()


def test_sorted_window_refuses_retired_tag():
    """``sorted-window/v1`` also carried a mutation counter; it is
    refused by name, never migrated."""
    window = SortedWindow(4)
    window.append(1.0)
    state = round_trip(window.snapshot_state())
    state["fmt"], state["version"] = "sorted-window/v1", 1
    with pytest.raises(StateFormatError, match="sorted-window/v1"):
        SortedWindow(4).restore_state(state)


# ---------------------------------------------------------------------------
# IncrementalLevelShiftDetector
# ---------------------------------------------------------------------------

@st.composite
def latency_streams(draw):
    window = draw(st.integers(min_value=4, max_value=16))
    confirm = draw(st.integers(min_value=1, max_value=4))
    total = draw(st.integers(min_value=0, max_value=120))
    cut = draw(st.integers(min_value=0, max_value=total))
    # Mostly quiet samples with occasional large spikes, so alarms,
    # pending streaks, cooldowns and re-seeds all actually occur.
    samples = draw(st.lists(
        st.one_of(
            st.floats(min_value=0.001, max_value=0.02,
                      allow_nan=False),
            st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
        ),
        min_size=total, max_size=total,
    ))
    return window, confirm, samples, cut


def observe(detector, ts, value):
    """Everything externally visible after one sample."""
    return (
        detector.update(ts, value),
        detector.baseline,
        detector.threshold(),
        detector.threshold_recomputes,
    )


@given(case=latency_streams())
@settings(max_examples=120, deadline=None)
def test_incremental_ls_round_trip(case):
    window, confirm, samples, cut = case

    with pytest.MonkeyPatch.context() as patch:
        for name, value in (
            ("LS_WINDOW", window), ("LS_CONFIRM", confirm),
            ("LS_WARMUP", confirm + 1), ("LS_COOLDOWN", 3.0),
        ):
            patch.setattr(outliers, name, value)
        original = IncrementalLevelShiftDetector()
        restored = IncrementalLevelShiftDetector()

    for index, value in enumerate(samples[:cut]):
        original.update(float(index), value)
    restored.restore_state(round_trip(original.snapshot_state()))

    for index in range(cut, len(samples)):
        assert (
            observe(original, float(index), samples[index])
            == observe(restored, float(index), samples[index])
        )


def test_incremental_ls_refuses_retuned_restore(monkeypatch):
    """The latency tracker's checkpoint records the LS tuning once, and
    a tracker built under another tuning refuses it by constant name
    (``LS_SIGMAS`` shapes no window, so only this guard catches it)."""
    original = LatencyTracker()
    original.observe(make_event(1))
    state = round_trip(original.snapshot_state())
    assert state["tuning"]["LS_SIGMAS"] == 4.0
    assert "tuning" not in state["detectors"][make_event(1).api_key]

    monkeypatch.setattr(outliers, "LS_SIGMAS", 3.0)
    with pytest.raises(
        StateError, match="LS_SIGMAS: 4.0 in the checkpoint, 3.0 here"
    ):
        LatencyTracker().restore_state(state)


def test_incremental_ls_state_does_not_grow_with_alarms():
    """A series keeps no alarm log: after 20 confirmed shifts its
    serialized state is as large as after the first, give or take the
    digits its counters gained."""
    detector = IncrementalLevelShiftDetector()
    sizes = []
    ts = 0.0
    while len(sizes) < 20:
        for value in [0.01] * 30 + [0.5] * 30:
            ts += 1.0
            if detector.update(ts, value) is not None:
                sizes.append(len(json.dumps(detector.snapshot_state())))
    assert sizes[-1] <= sizes[0] + 32, sizes
