"""Tests for ``repro.reference.session.SyncSession``: the inline-drain
router ``verify_service`` holds the pump router against."""

import pytest

from repro.reference.session import SyncSession


@pytest.fixture
def build_sync(build_analyzer):
    return lambda **kwargs: SyncSession(
        "acme", build_analyzer(), **kwargs
    )


def test_submit_queues_without_analyzing(build_sync, stream_events):
    session = build_sync(queue_capacity=100)
    for event in stream_events[:10]:
        assert session.submit(event)
    assert len(session.queue) == 10
    assert session.events_ingested == 10
    assert session.events_analyzed == 0
    assert session.drain() == 10
    assert len(session.queue) == 0
    assert session.events_analyzed == 10


def test_block_policy_drains_synchronously(build_sync, stream_events):
    session = build_sync(queue_capacity=8, policy="block")
    for event in stream_events[:20]:
        assert session.submit(event)
    # Capacity 8: submits 9 and 17 each forced a drain of 8.
    assert session.events_shed == 0
    assert session.events_analyzed == 16
    assert len(session.queue) == 4


def test_shed_policy_drops_and_counts(build_sync, stream_events):
    with pytest.raises(ValueError, match="policy"):
        build_sync(policy="drop-newest")
    session = build_sync(queue_capacity=8, policy="shed")
    accepted = [session.submit(e) for e in stream_events[:20]]
    assert accepted == [True] * 8 + [False] * 12
    assert session.events_shed == 12
    assert len(session.queue) == 8
    assert session.events_ingested == 8
    # Draining frees capacity again.
    session.drain()
    assert session.submit(stream_events[20])


def test_flush_fans_out_reports_and_seal_counts_offers(
    build_sync, stream_events
):
    session = build_sync()
    seen = []
    session.on_report(lambda tenant, report: seen.append(tenant))
    for event in stream_events:
        session.submit(event)
    session.flush()
    assert session.reports_emitted > 0
    assert seen == ["acme"] * session.reports_emitted
    assert session.events_analyzed == len(stream_events)
    session.close()
    assert session.sealed
    assert session.submit(stream_events[0]) is False
    assert session.events_shed == 1
