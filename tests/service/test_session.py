"""Tests for the bounded-queue tenant session (the pump session).

Where a test needs "accepted but not yet analyzed" it holds the pump
``parked()``; the inline-drain behaviours of the reference router are
in ``test_reference_session.py``.
"""

import json
import re
from functools import reduce

import pytest

from repro.core.reports import report_signature
from repro.core.state import (
    StateError,
    StateFormatError,
    decode_events,
    unpack_floats,
)


def test_constructor_validation(build_session):
    with pytest.raises(ValueError, match="queue_capacity"):
        build_session(queue_capacity=0)
    with pytest.raises(ValueError, match="policy"):
        build_session(policy="drop-newest")
    with pytest.raises(TypeError, match="async_ingest"):
        build_session(async_ingest=False)


def test_parked_pump_queues_without_analyzing(build_session, stream_events):
    session = build_session(queue_capacity=100)
    with session.parked():
        for event in stream_events[:10]:
            assert session.submit(event)
        assert session.queued == 10
        assert session.events_ingested == 10
        assert session.events_analyzed == 0
    assert session.quiesce() == 10
    assert session.queued == 0
    assert session.events_analyzed == 10


def test_reports_fan_out_with_tenant(build_session, stream_events):
    session = build_session()
    seen = []
    session.on_report(lambda tenant, report: seen.append(tenant))
    for event in stream_events:
        session.submit(event)
    session.flush()
    assert session.reports_emitted > 0
    assert seen == ["acme"] * session.reports_emitted


def test_report_log_is_handed_off(build_session, stream_events):
    session = build_session()
    for event in stream_events:
        session.submit(event)
    session.flush()
    assert session.reports_emitted > 2
    # The report log was handed off: bounded memory.
    assert not session.analyzer.reports


def test_snapshot_round_trip_mid_stream(build_session, stream_events):
    cut = len(stream_events) // 2
    straight = build_session()
    straight_reports = []
    straight.on_report(lambda t, r: straight_reports.append(r))
    for event in stream_events:
        straight.submit(event)
    straight.flush()

    # Analyze part of the first half, then park the pump so the rest
    # of it is still queued at the cut.
    first = build_session()
    for event in stream_events[:cut // 2]:
        first.submit(event)
    first.quiesce()
    with first.parked():
        for event in stream_events[cut // 2:cut]:
            first.submit(event)
        # No drain before the snapshot: the queue is part of the
        # state.
        state = json.loads(json.dumps(first.snapshot_state()))
        emitted_at_cut = first.reports_emitted
    # Count decoded events: the block's own length is its key count.
    queued = decode_events(state["queue"])
    assert len(queued) == cut - cut // 2
    assert queued == stream_events[cut // 2:cut]

    resumed = build_session()
    resumed_reports = []
    resumed.on_report(lambda t, r: resumed_reports.append(r))
    with resumed.parked():
        resumed.restore_state(state)
        assert resumed.queued == len(queued)
    for event in stream_events[cut:]:
        resumed.submit(event)
    resumed.flush()

    # The resumed session replays only what the first had not yet
    # analyzed, so its own emit count is the straight run's minus what
    # the first had already emitted at the cut.
    assert emitted_at_cut + len(resumed_reports) == len(straight_reports)
    assert (
        [report_signature(r) for r in resumed_reports]
        == [report_signature(r)
            for r in straight_reports[emitted_at_cut:]]
    )
    assert resumed.events_ingested == straight.events_ingested
    assert resumed.events_analyzed == straight.events_analyzed


def assert_refused_untouched(build_session, stream_events, tamper,
                             error, match):
    """A donor's state (20 events queued), tampered, is refused by a
    session holding 5 queued events of its own — and the refusal
    leaves that session exactly as it was."""
    donor = build_session()
    with donor.parked():
        for event in stream_events[:20]:
            donor.submit(event)
        state = donor.snapshot_state()
    assert decode_events(state["queue"])[0] == stream_events[0]

    session = build_session()
    with session.parked():
        for event in stream_events[20:25]:
            session.submit(event)
        before = session.snapshot_state()
        with pytest.raises(error, match=match):
            session.restore_state(tamper(state))
        assert session.snapshot_state() == before


def test_restore_refuses_other_columns_untouched(build_session,
                                                stream_events):
    def moved(state):
        columns = state["queue"]["columns"]
        return dict(state, queue=dict(state["queue"],
                                      columns=columns[1:] + columns[:1]))

    assert_refused_untouched(build_session, stream_events, moved,
                             StateError, "columns")


def test_restore_refuses_sharded_analyzer_state_untouched(
        build_session, stream_events):
    """What a service with sharded sessions used to write: a session
    document around a ``sharded-analyzer/v2`` analyzer state.  Refused
    by tag, never migrated, and before the queue or a counter of the
    refused document is installed."""
    def sharded(state):
        return dict(state, analyzer={
            "fmt": "sharded-analyzer/v2",
            "backend": "process",
            "shards": 1,
            "batch_size": 1024,
            "assignment": {"ctrl": 0},
            "buffers": [[]],
            "pipelines": [state["analyzer"]],
        })

    assert_refused_untouched(build_session, stream_events, sharded,
                             StateFormatError, "sharded-analyzer/v2")


@pytest.mark.parametrize("path, value, named", [
    ("analyzer.window.due", None, "analyzer.window.due: missing"),
    ("events_shed", None, "events_shed: missing"),
    ("events_ingested", "20", "events_ingested: expected int, got str"),
    ("events_analyzed", True, "events_analyzed: expected int, got bool"),
    ("analyzer.window", [], "analyzer.window: expected an object, got list"),
])
def test_restore_refuses_a_missing_or_mistyped_key_untouched(
        build_session, stream_events, path, value, named):
    """Read before the analyzer, the queue or a counter is installed,
    and named by its key path."""
    def tamper(state):
        state = json.loads(json.dumps(state))
        *parents, key = path.split(".")
        node = reduce(dict.__getitem__, parents, state)
        if value is None:
            del node[key]
        else:
            node[key] = value
        return state

    assert_refused_untouched(build_session, stream_events, tamper,
                             StateError, re.escape(named))


def test_restore_refuses_foreign_tenant(build_session):
    state = build_session().snapshot_state()
    other = build_session("umbrella")
    with pytest.raises(StateError, match="acme"):
        other.restore_state(state)


def assert_corrupt_refused_untouched(build_session, stream_events, tamper,
                                     match):
    """A warm donor's state (latency series, faults, 20 events
    queued), with one payload corrupted, is refused with a
    ``StateError`` naming the key path — never a
    ``binascii.Error``, ``struct.error`` or ``IndexError`` — by a warm
    session that the refusal leaves exactly as it was."""
    donor = build_session()
    for event in stream_events[:300]:
        donor.submit(event)
    donor.quiesce()
    with donor.parked():
        for event in stream_events[300:320]:
            donor.submit(event)
        state = json.loads(json.dumps(donor.snapshot_state()))
    assert state["analyzer"]["latency"]["detectors"]

    session = build_session()
    for event in stream_events[:100]:
        session.submit(event)
    session.quiesce()
    with session.parked():
        for event in stream_events[100:105]:
            session.submit(event)
        before = session.snapshot_state()
        tamper(state)
        with pytest.raises(StateError, match=match):
            session.restore_state(state)
        assert session.snapshot_state() == before


def test_restore_refuses_non_base64_floats_untouched(build_session,
                                                     stream_events):
    def garble(state):
        state["analyzer"]["window"]["events"]["ts_request"] = "not*b64!"

    assert_corrupt_refused_untouched(
        build_session, stream_events, garble,
        r"analyzer\.window\.events\.ts_request: not base64",
    )


def test_restore_refuses_partial_float64_untouched(build_session,
                                                   stream_events):
    def truncate(state):
        series = state["analyzer"]["latency"]["detectors"]
        key = sorted(series)[-1]
        series[key]["baseline"]["values"] = "AAAAAAAAAAAAAAAA"  # 12 bytes

    assert_corrupt_refused_untouched(
        build_session, stream_events, truncate,
        r"analyzer\.latency\.detectors\['.+'\]\.baseline\.values: "
        r"12 bytes",
    )


def test_restore_refuses_unequal_columns_untouched(build_session,
                                                   stream_events):
    def shorten(state):
        state["queue"]["seq"].pop()

    assert_corrupt_refused_untouched(
        build_session, stream_events, shorten,
        r"queue: columns of unequal length.*seq=19",
    )


def test_restore_refuses_float_list_under_new_tag_untouched(
        build_session, stream_events):
    def unpack(state):
        queue = state["queue"]
        queue["ts_response"] = unpack_floats(queue["ts_response"])

    assert_corrupt_refused_untouched(
        build_session, stream_events, unpack,
        r"queue\.ts_response: expected packed float64 text, got list",
    )
