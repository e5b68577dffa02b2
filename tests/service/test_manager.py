"""Tests for the multi-tenant streaming service front door."""

import pytest

from repro.core.reports import report_signature
from repro.service import CheckpointStore, StreamingService
from repro.service.manager import DEFAULT_TENANT


def test_routes_by_event_tenant(build_service, stream_events):
    service = build_service()
    service.pump(stream_events[:40])
    # The synthetic stream stamps per-operation tenant ids.
    assert len(service.sessions) > 1
    assert set(service.sessions) == {
        e.tenant for e in stream_events[:40]
    }
    stats = service.stats()
    assert stats.events_submitted == 40
    assert stats.tenants == len(service.sessions)


def test_explicit_tenant_overrides_event_tenant(
    build_service, stream_events
):
    service = build_service()
    service.pump(stream_events[:10], tenant="override")
    assert list(service.sessions) == ["override"]


def test_untagged_events_land_in_default_session(
    build_service, stream_events
):
    from dataclasses import replace

    service = build_service()
    service.submit(replace(stream_events[0], tenant=""))
    assert list(service.sessions) == [DEFAULT_TENANT]


def test_checkpoint_requires_store(build_service, stream_events):
    service = build_service()
    service.submit(stream_events[0])
    with pytest.raises(ValueError, match="no checkpoint store"):
        service.checkpoint_all()


def test_checkpoint_every_validation(build_service):
    with pytest.raises(ValueError, match="checkpoint_every"):
        build_service(checkpoint_every=-1)


def test_checkpoint_unknown_tenant_raises(
    build_service, stream_events, tmp_path
):
    """checkpoint() must not conjure an empty session for a typo'd
    tenant — unknown tenants are a KeyError, and the session table
    stays untouched."""
    store = CheckpointStore(tmp_path)
    service = build_service(checkpoint_store=store)
    service.submit(stream_events[0], tenant="acme")
    service.checkpoint("acme")
    with pytest.raises(KeyError, match="unknown tenant 'ghost'"):
        service.checkpoint("ghost")
    assert list(service.sessions) == ["acme"]
    assert store.tenants() == ["acme"]


def test_stats_split_submitted_vs_accepted(build_service, stream_events):
    """Offers and acceptances are separate counters; shed is exactly
    their difference."""
    service = build_service(queue_capacity=8, policy="shed")
    # Park the pump so the queue cannot free up: exactly 8 of the 40
    # offers fit.
    with service.session("acme").parked():
        for event in stream_events[:40]:
            service.submit(event, tenant="acme")
    stats = service.stats()
    assert stats.events_submitted == 40
    assert stats.events_accepted == 8
    assert stats.events_shed == 32
    assert service.events_submitted == 40
    assert service.events_accepted == 8
    document = stats.to_dict()
    assert document["events_submitted"] == 40
    assert document["events_accepted"] == 8


def test_offers_after_shutdown_are_counted_as_shed(
    build_service, stream_events
):
    """A shut-down service refuses every offer — and counts it, so
    no drop is silent.  Per-session counters (what ``verify_async``
    compares) do not move: the offer never reached a session."""
    service = build_service()
    for event in stream_events[:20]:
        service.submit(event, tenant="acme")
    service.shutdown()
    before = service.stats()
    session = service.sessions["acme"]
    per_session = (session.events_ingested, session.events_shed)

    refused = 7
    for event in stream_events[20:20 + refused]:
        assert service.submit(event, tenant="acme") is False
    after = service.stats()
    assert after.events_shed == before.events_shed + refused
    assert after.events_submitted == before.events_submitted + refused
    assert after.events_accepted == before.events_accepted
    assert service.events_submitted == after.events_submitted
    assert service.events_accepted == after.events_accepted
    assert (session.events_ingested, session.events_shed) == per_session
    assert list(service.sessions) == ["acme"]


def test_periodic_checkpoints_fire_per_tenant(
    build_service, stream_events, tmp_path
):
    store = CheckpointStore(tmp_path)
    service = build_service(checkpoint_store=store, checkpoint_every=10)
    service.pump(stream_events[:60], tenant="acme")
    assert service.checkpoints_written == 6
    assert store.tenants() == ["acme"]
    # The stall is readable without a harness: size and time of the
    # saves sit next to their count.
    stats = service.stats()
    assert stats.checkpoint_bytes == store.bytes_written
    assert stats.checkpoint_bytes > store.path_for(
        "acme").stat().st_size  # cumulative over the six
    assert stats.checkpoint_seconds > 0.0
    assert build_service().stats().checkpoint_bytes == 0


def test_close_flushes_then_checkpoints(
    build_service, stream_events, tmp_path
):
    store = CheckpointStore(tmp_path)
    service = build_service(checkpoint_store=store)
    service.pump(stream_events, tenant="acme")
    service.shutdown()
    session = service.sessions["acme"]
    assert session.queued == 0
    assert session.events_analyzed == len(stream_events)
    state = store.load("acme")
    assert state["events_analyzed"] == len(stream_events)


def test_report_sinks_cover_current_and_future_sessions(
    build_service, stream_events
):
    service = build_service()
    seen = []
    service.pump(stream_events[:5], tenant="early")
    service.on_report(lambda tenant, report: seen.append(tenant))
    service.pump(stream_events, tenant="late")
    service.flush()
    stats = service.stats()
    assert stats.reports > 0
    assert len(seen) == stats.reports
    assert "late" in seen


def test_kill_and_resume_equals_straight_run(
    build_service, stream_events, tmp_path
):
    """The service-level restart invariant: checkpoint (no flush!),
    abandon the process, start a fresh service over the same store,
    finish the stream — reports match the uninterrupted run."""
    straight = build_service()
    straight_reports = []
    straight.on_report(lambda t, r: straight_reports.append((t, r)))
    straight.pump(stream_events)
    straight.flush()

    cut = len(stream_events) // 2
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store)
    first_reports = []
    first.on_report(lambda t, r: first_reports.append((t, r)))
    first.pump(stream_events[:cut])
    # Mid-stream durability point: checkpoint *without* flushing —
    # flush() is an end-of-stream operation that would freeze pending
    # snapshots early and diverge from the straight run.  (Drained
    # first only because this "killed" service's pumps live on in the
    # test process: anything still queued would be analyzed twice.)
    first.drain()
    first.checkpoint_all()

    resumed = build_service(checkpoint_store=store)
    resumed_reports = []
    resumed.on_report(lambda t, r: resumed_reports.append((t, r)))
    # Up-front resurrection: tenants that never reappear in the tail
    # must still finish their pending analysis at the final flush.
    assert resumed.restore_all() == len(first.sessions)
    resumed.pump(stream_events[cut:])
    resumed.flush()

    # Compare as multisets: emit order follows session-creation order,
    # which legitimately differs between a straight run (tenants in
    # first-appearance order) and a resurrected one (sorted store
    # order).  Per (tenant, signature) the diagnosis must be identical.
    combined = first_reports + resumed_reports
    assert len(combined) == len(straight_reports)
    assert (
        sorted((t, report_signature(r)) for t, r in combined)
        == sorted((t, report_signature(r)) for t, r in straight_reports)
    )
    stats = resumed.stats()
    assert stats.events_analyzed == len(stream_events)


def test_restore_false_starts_fresh(build_service, stream_events, tmp_path):
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store)
    first.pump(stream_events[:100], tenant="acme")
    first.checkpoint_all()

    fresh = build_service(checkpoint_store=store, restore=False)
    fresh.pump(stream_events[100:110], tenant="acme")
    assert fresh.sessions_restored == 0
    assert fresh.sessions["acme"].events_ingested == 10


def test_router_keyword_selects_nothing(library):
    """``async_ingest`` survives only because the ledger still passes
    it: ``True`` is accepted, anything else names where the sync
    router went."""
    with pytest.raises(ValueError, match="repro.reference.SyncSession"):
        StreamingService(library, async_ingest=False)
    StreamingService(library, async_ingest=True)  # builds no session
