"""Tests for the dual-buffer sliding window and snapshots."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.openstack.apis import ApiKind
from repro.openstack.wire import ROW_FIELDS, WireEvent
from repro.core.state import StateError, decode_events, encode_events
from repro.core.window import SlidingWindow, Snapshot


def make_event(seq, status=200):
    return WireEvent(
        seq=seq, api_key="rest:nova:GET:/v2.1/servers", kind=ApiKind.REST,
        method="GET", name="/v2.1/servers",
        src_service="horizon", src_node="ctrl", src_ip="1",
        dst_service="nova", dst_node="nova-ctl", dst_ip="2",
        ts_request=seq * 1.0, ts_response=seq * 1.0 + 0.01, status=status,
    )


def test_window_capacity_bounded():
    window = SlidingWindow(alpha=10)
    for seq in range(100):
        window.append(make_event(seq))
    assert len(window) == 10


def test_alpha_validation():
    with pytest.raises(ValueError):
        SlidingWindow(alpha=1)


def test_snapshot_freezes_after_half_alpha():
    window = SlidingWindow(alpha=10)
    for seq in range(7):
        window.append(make_event(seq))
    fault = make_event(7, status=500)
    window.append(fault)
    window.mark_fault()
    completed = []
    for seq in range(8, 20):
        completed.extend(window.append(make_event(seq)))
        if completed:
            break
    assert len(completed) == 1
    snapshot = completed[0]
    # Snapshot completed after alpha/2 = 5 post-fault events.
    assert snapshot.events[-1].seq == 12
    assert snapshot.fault.seq == 7
    assert snapshot.events[snapshot.fault_index].seq == 7


def test_snapshot_has_past_and_future():
    window = SlidingWindow(alpha=8)
    for seq in range(6):
        window.append(make_event(seq))
    fault = make_event(6, status=500)
    window.append(fault)
    window.mark_fault()
    completed = []
    seq = 7
    while not completed:
        completed = window.append(make_event(seq))
        seq += 1
    snapshot = completed[0]
    seqs = [e.seq for e in snapshot.events]
    assert min(seqs) < 6 < max(seqs)


def test_multiple_overlapping_faults():
    window = SlidingWindow(alpha=10)
    fault_a = make_event(0, status=500)
    window.append(fault_a)
    window.mark_fault()
    fault_b = make_event(1, status=500)
    window.append(fault_b)
    window.mark_fault()
    completed = []
    for seq in range(2, 20):
        completed.extend(window.append(make_event(seq)))
    assert len(completed) == 2
    assert {s.fault.seq for s in completed} == {0, 1}


def test_flush_freezes_pending():
    window = SlidingWindow(alpha=10)
    fault = make_event(0, status=500)
    window.append(fault)
    window.mark_fault()
    assert len(window.pending) == 1
    snapshots = window.flush()
    assert len(snapshots) == 1
    assert len(window.pending) == 0


def test_fault_scrolled_out_still_anchored():
    window = SlidingWindow(alpha=4)
    fault = make_event(0, status=500)
    window.append(fault)
    window.mark_fault()
    # The snapshot freezes α/2 = 2 events later, before the fault
    # could leave the deque: nothing is left for the flush.
    for seq in range(1, 10):
        window.append(make_event(seq))
    snapshots = window.flush()
    assert snapshots == []  # completed earlier through append
    assert window.snapshots_taken == 1


def test_snapshot_window_radius():
    events = [make_event(seq) for seq in range(11)]
    snapshot = Snapshot(events=events, fault_index=5)
    assert snapshot.fault is events[5]
    assert [e.seq for e in snapshot.window(2)] == [3, 4, 5, 6, 7]
    assert snapshot.window(100) == events
    assert not snapshot.covers_all(2)
    assert snapshot.covers_all(5)


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_window_never_exceeds_alpha(alpha, n_events):
    window = SlidingWindow(alpha=alpha)
    for seq in range(n_events):
        window.append(make_event(seq))
        assert len(window) <= alpha


def test_overlapping_faults_each_get_correct_fault_index():
    """Two faults inside the same α/2 horizon: each completed snapshot
    must anchor ``fault_index`` on *its own* fault event, not on the
    other pending fault (regression for the shared-deque freeze)."""
    window = SlidingWindow(alpha=12)
    for seq in range(4):
        window.append(make_event(seq))
    fault_a = make_event(4, status=500)
    window.append(fault_a)
    window.mark_fault()
    # Second fault lands 3 events later — well within alpha/2 = 6.
    for seq in range(5, 8):
        window.append(make_event(seq))
    fault_b = make_event(8, status=503)
    window.append(fault_b)
    window.mark_fault()

    completed = []
    for seq in range(9, 30):
        completed.extend(window.append(make_event(seq)))
    assert [s.fault.seq for s in completed] == [4, 8]
    for snapshot in completed:
        anchored = snapshot.events[snapshot.fault_index]
        assert anchored.seq == snapshot.fault.seq
        assert anchored.status == snapshot.fault.status
        # Full future context: alpha/2 events beyond the fault.
        assert snapshot.events[-1].seq == snapshot.fault.seq + 6


def test_flush_completes_with_partial_future_context():
    """flush() freezes pending snapshots early: fewer than α/2 events
    of post-fault context, but the fault stays correctly anchored."""
    window = SlidingWindow(alpha=12)
    for seq in range(5):
        window.append(make_event(seq))
    fault = make_event(5, status=500)
    window.append(fault)
    window.mark_fault()
    # Only 2 of the 6 future events arrive before shutdown.
    window.append(make_event(6))
    window.append(make_event(7))

    snapshots = window.flush()
    assert len(snapshots) == 1
    snapshot = snapshots[0]
    assert snapshot.fault.seq == 5
    assert snapshot.events[snapshot.fault_index].seq == 5
    # Partial post-fault context: present, but short of alpha/2.
    future = [e for e in snapshot.events if e.seq > 5]
    assert len(future) == 2
    assert len(window.pending) == 0


def test_live_events_is_a_public_snapshot_of_the_window():
    window = SlidingWindow(alpha=4)
    assert window.live_events() == []
    events = [make_event(seq) for seq in range(6)]
    for event in events:
        window.append(event)
    live = window.live_events()
    # Oldest-first view of the last alpha events.
    assert [e.seq for e in live] == [2, 3, 4, 5]
    # A copy, not the deque itself: mutating it leaves the window alone.
    live.pop()
    assert [e.seq for e in window.live_events()] == [2, 3, 4, 5]


def test_state_under_other_columns_is_refused_and_nothing_moves():
    donor = SlidingWindow(alpha=4)
    for seq in range(5):
        donor.append(make_event(seq))
    fault = make_event(5, status=500)
    donor.append(fault)
    donor.mark_fault()
    state = donor.snapshot_state()
    assert state["events"]["columns"] == list(ROW_FIELDS)
    assert decode_events(state["events"])[0] == make_event(2)

    window = SlidingWindow(alpha=4)
    fault = make_event(40, status=500)
    window.append(fault)
    window.mark_fault()
    before = window.snapshot_state()
    events = state["events"]
    swapped = dict(events, columns=events["columns"][::-1])
    unnamed = {k: v for k, v in events.items() if k != "columns"}
    for refused, path in (
        (dict(state, events=swapped), r"events\.columns: \['test_id'"),
        (dict(state, events=unnamed), r"events\.columns: missing"),
        (dict(state, due=["9"]), "due: expected a list of int"),
    ):
        with pytest.raises(StateError, match=path):
            window.restore_state(refused)
        assert window.snapshot_state() == before
    window.restore_state(state)
    assert window.snapshot_state() == state

def test_a_stream_fed_twice_anchors_each_snapshot_on_its_own_copy():
    """A replayed stream carries every seq twice; each snapshot is
    anchored on the event appended when its fault was marked, not on
    the first event with the fault's seq."""
    stream = [make_event(seq, status=500 if seq in (3, 23) else 200)
              for seq in range(40)]
    window = SlidingWindow(alpha=64)
    snapshots = []
    for event in stream + stream:
        snapshots.extend(window.append(event))
        if event.status >= 400:
            window.mark_fault()
    snapshots.extend(window.flush())
    # Frozen at counts 36, 56, 76 and (flushed) 80; the second pass's
    # seq 23 sits 16 events before the newest, after an older copy.
    assert [s.fault_index for s in snapshots] == [3, 23, 31, 47]
    assert [s.fault.seq for s in snapshots] == [3, 23, 3, 23]
    assert all(s.fault.status == 500 for s in snapshots)


def _faulted(alpha=8, count=10, faults=(8,)):
    window = SlidingWindow(alpha=alpha)
    for seq in range(count):
        event = make_event(seq, status=500 if seq in faults else 200)
        window.append(event)
        if seq in faults:
            window.mark_fault()
    return window


def _refused(state, path):
    window = _faulted()
    before = window.snapshot_state()
    with pytest.raises(StateError, match=path):
        window.restore_state(state)
    assert window.snapshot_state() == before


def test_restore_refuses_a_due_outside_the_next_half_window():
    """Every due lies in ``(appended, appended + alpha//2]`` and the
    dues never decrease."""
    state = _faulted().snapshot_state()   # seq 8 appended at count 9
    assert state["due"] == [13]
    for due in (10 ** 9, 15, 10, 0):
        _refused(dict(state, due=[due]),
                 rf"due\[0\]: {due} is outside \(10, 14\]")
    twice = _faulted(faults=(6, 8)).snapshot_state()
    assert twice["due"] == [11, 13]
    _refused(dict(twice, due=[13, 11]),
             r"due\[1\]: 11 after 13: dues decrease")


def test_a_due_names_its_fault_by_position():
    """A pending fault is stored as its due alone: the event appended
    at count ``due - alpha//2``.  Early in a stream the first count is
    1, so a due of at most ``alpha//2`` names no event and is refused
    rather than wrapped to the back of the window."""
    state = _faulted(count=3, faults=(1,)).snapshot_state()
    assert state["due"] == [6]
    assert "pending" not in state
    _refused(dict(state, due=[4]), r"due\[0\]: 4 is outside \(4, 7\]")
    window = SlidingWindow(alpha=8)
    window.restore_state(dict(state, due=[5]))
    (snapshot,) = window.flush()
    assert (snapshot.fault_index, snapshot.fault.seq) == (0, 0)


def test_restore_refuses_an_events_block_of_the_wrong_length():
    """The window holds the last ``min(alpha, appended)`` events."""
    state = _faulted().snapshot_state()
    events = decode_events(state["events"])
    _refused(dict(state, events=encode_events(events[1:])),
             r"events: 7 events after 10 appended \(alpha 8\)")
    _refused(dict(state, appended=7),
             r"events: 8 events after 7 appended \(alpha 8\)")
