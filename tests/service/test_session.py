"""Tests for the bounded-queue tenant session (the pump session).

Where a test needs "accepted but not yet analyzed" it holds the pump
``parked()``; the inline-drain behaviours of the reference router are
in ``test_reference_session.py``.
"""

import json
import re
import threading
from functools import reduce

import pytest

from repro.core.reports import report_signature
from repro.core.state import (
    StateError,
    StateFormatError,
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
        assert first.queued == cut - cut // 2
        # The snapshot analyzes the backlog first, on this thread:
        # the document is the analyzer after exactly the events
        # ingested, and holds no queue.
        state = json.loads(json.dumps(first.snapshot_state()))
        assert first.queued == 0
        assert first.events_analyzed == first.events_ingested == cut
        emitted_at_cut = first.reports_emitted
    assert "queue" not in state
    assert state["events_ingested"] == cut
    assert state["analyzer"]["counters"]["events_processed"] == cut

    resumed = build_session()
    resumed_reports = []
    resumed.on_report(lambda t, r: resumed_reports.append(r))
    with resumed.parked():
        resumed.restore_state(state)
        assert resumed.queued == 0
        assert resumed.events_analyzed == cut
    for event in stream_events[cut:]:
        resumed.submit(event)
    resumed.flush()

    # The resumed session analyzes only what came after the cut, so
    # its own emit count is the straight run's minus what the first
    # had emitted by its snapshot.
    assert emitted_at_cut + len(resumed_reports) == len(straight_reports)
    assert (
        [report_signature(r) for r in resumed_reports]
        == [report_signature(r)
            for r in straight_reports[emitted_at_cut:]]
    )
    assert resumed.events_ingested == straight.events_ingested
    assert resumed.events_analyzed == straight.events_analyzed


def untouched_view(session):
    """Everything a refused restore must leave as it was, read without
    a snapshot (which would analyze the queue)."""
    return (
        list(session.queue), session.events_ingested,
        session.events_analyzed, session.events_shed,
        session.reports_emitted, session.analyzer.snapshot_state(),
    )


def assert_refused_untouched(build_session, stream_events, tamper,
                             error, match):
    """A donor's state (20 events, queued until its snapshot analyzed
    them), tampered, is refused by a session holding 5 queued events
    of its own — and the refusal leaves that session, queue included,
    exactly as it was."""
    donor = build_session()
    with donor.parked():
        for event in stream_events[:20]:
            donor.submit(event)
        state = json.loads(json.dumps(donor.snapshot_state()))
    assert state["events_ingested"] == 20

    session = build_session()
    with session.parked():
        for event in stream_events[20:25]:
            session.submit(event)
        before = untouched_view(session)
        with pytest.raises(error, match=match):
            session.restore_state(tamper(state))
        assert untouched_view(session) == before
        assert session.queued == 5


def test_restore_refuses_other_columns_untouched(build_session,
                                                stream_events):
    def moved(state):
        events = state["analyzer"]["window"]["events"]
        events["columns"] = events["columns"][1:] + events["columns"][:1]
        return state

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
    ("reports_emitted", True, "reports_emitted: expected int, got bool"),
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


def test_every_key_a_checkpoint_writes_is_read_by_its_restore(
        build_session, stream_events):
    """A warm session's document with one key deleted — each
    session-level key in turn, then each key of the analyzer document
    — is refused with that key named: a checkpoint holds nothing its
    restore does not read."""
    donor = build_session()
    for event in stream_events[:300]:
        donor.submit(event)
    state = json.loads(json.dumps(donor.snapshot_state()))
    build_session().restore_state(state)

    paths = [(key,) for key in state]
    paths += [("analyzer", key) for key in state["analyzer"]]
    for *parents, key in paths:
        tampered = json.loads(json.dumps(state))
        del reduce(dict.__getitem__, parents, tampered)[key]
        with pytest.raises(StateError) as refused:
            build_session().restore_state(tampered)
        named = (
            ".".join(parents) + ": state dict has no fmt tag"
            if key == "fmt" else ".".join([*parents, key]) + ": missing"
        )
        assert str(refused.value).startswith(named), (key, refused.value)


def assert_corrupt_refused_untouched(build_session, stream_events, tamper,
                                     match):
    """A warm donor's state (latency series, faults, a 20-event
    backlog analyzed by the snapshot), with one payload corrupted, is
    refused with a ``StateError`` naming the key path — never a
    ``binascii.Error``, ``struct.error``, ``ValueError`` or
    ``IndexError`` — by a warm session that the refusal leaves
    exactly as it was."""
    donor = build_session()
    for event in stream_events[:300]:
        donor.submit(event)
    donor.quiesce()
    with donor.parked():
        for event in stream_events[300:320]:
            donor.submit(event)
        state = json.loads(json.dumps(donor.snapshot_state()))
    assert state["analyzer"]["latency"]["detectors"]["keys"]

    session = build_session()
    for event in stream_events[:100]:
        session.submit(event)
    session.quiesce()
    with session.parked():
        for event in stream_events[100:105]:
            session.submit(event)
        before = untouched_view(session)
        tamper(state)
        with pytest.raises(StateError, match=match):
            session.restore_state(state)
        assert untouched_view(session) == before


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
        series["baselines"] = "AAAAAAAAAAAAAAAA"  # 12 bytes

    assert_corrupt_refused_untouched(
        build_session, stream_events, truncate,
        r"analyzer\.latency\.detectors\.baselines: 12 bytes",
    )


def test_restore_refuses_unequal_columns_untouched(build_session,
                                                   stream_events):
    def shorten(state):
        events = state["analyzer"]["window"]["events"]
        events["api_key"] = events["api_key"].rsplit("|", 1)[0]

    assert_corrupt_refused_untouched(
        build_session, stream_events, shorten,
        r"analyzer\.window\.events\.api_key: 63 values for 64 rows",
    )


def test_restore_refuses_float_list_under_new_tag_untouched(
        build_session, stream_events):
    def unpack(state):
        events = state["analyzer"]["window"]["events"]
        events["ts_response"] = unpack_floats(events["ts_response"])

    assert_corrupt_refused_untouched(
        build_session, stream_events, unpack,
        r"analyzer\.window\.events\.ts_response: expected packed "
        r"float64 text, got list",
    )


def test_a_failed_drain_stops_the_session(build_session, stream_events,
                                          monkeypatch):
    """A backlog the snapshot cannot analyze leaves the analyzer
    mid-chunk, so the session dies as if its pump had: the snapshot
    raises, later offers are shed, and the control verbs re-raise."""
    session = build_session()
    with session.parked():
        for event in stream_events[:10]:
            session.submit(event)

        def broken(chunk):
            raise ZeroDivisionError("analysis failed")

        monkeypatch.setattr(session, "_pump_step", broken)
        with pytest.raises(ZeroDivisionError):
            session.snapshot_state()
    assert session.submit(stream_events[10]) is False
    assert session.events_shed == 1
    with pytest.raises(RuntimeError, match="tenant 'acme' analyzer failed"):
        session.flush()
    session.close()
    assert not session.pump_alive


def test_quiesce_waits_for_a_snapshot_analyzing_the_backlog(
        build_session, stream_events, monkeypatch):
    """While a snapshot analyzes the backlog the queue is empty and
    the pump parked, yet those events are not analyzed: ``quiesce``
    (the service's ``drain``) returns only once the snapshot has
    counted them."""
    session = build_session()
    step = session._pump_step
    returned, waiting = [], []
    waiter = threading.Thread(
        target=lambda: returned.append(session.quiesce())
    )

    def slow_drain(chunk):
        if threading.current_thread().name.startswith("gretel-pump-"):
            step(chunk)
            return
        waiter.start()
        waiter.join(0.3)
        waiting.append(waiter.is_alive() and session.queued == 0)
        step(chunk)

    monkeypatch.setattr(session, "_pump_step", slow_drain)
    with session.parked():
        for event in stream_events[:10]:
            session.submit(event)
        session.snapshot_state()
    waiter.join(10)
    assert not waiter.is_alive()
    assert waiting == [True]
    assert returned == [10]
    assert session.events_analyzed == session.events_ingested == 10
