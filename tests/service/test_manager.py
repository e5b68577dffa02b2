"""Tests for the multi-tenant streaming service front door."""

import itertools
import re
import sys
import threading
import time

import pytest

from repro.core.reports import report_signature
from repro.core.state import StateError
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
    assert sorted(store.load_all()) == ["acme"]


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


def test_submitted_matches_the_producers_own_count(
    build_service, stream_events
):
    """``events_submitted`` is derived (accepted + shed), so it is
    checked against a count it does not derive from: the producers'
    own.  Three producers offer flat out into 4-slot shed queues, and
    ``shutdown()`` seals the service while they do.  Every offer is
    counted once, and every accepted event is analyzed."""
    service = build_service(queue_capacity=4, policy="shed")
    tenants = ["acme", "globex", "initech"]
    for tenant in tenants:
        service.session(tenant)
    offered = [0] * len(tenants)
    stop = threading.Event()

    def produce(index):
        for event in itertools.cycle(stream_events):
            if stop.is_set():
                return
            service.submit(event, tenant=tenants[index])
            offered[index] += 1

    def wait_for(least):
        deadline = time.monotonic() + 60
        while min(offered) < least:
            assert time.monotonic() < deadline, offered
            time.sleep(0.001)

    producers = [
        threading.Thread(target=produce, args=(index,))
        for index in range(len(tenants))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in producers:
            thread.start()
        wait_for(200)
        service.shutdown()
        wait_for(max(offered) + 200)
    finally:
        stop.set()
        for thread in producers:
            thread.join(60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in producers)

    stats = service.stats()
    assert stats.events_submitted == sum(offered)
    assert stats.events_analyzed == stats.events_accepted > 0
    assert stats.queued == 0
    assert stats.events_shed >= 3 * 200  # every offer after shutdown()


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
    assert sorted(store.load_all()) == ["acme"]
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
    state = store.load_all()["acme"]
    assert state["events_ingested"] == len(stream_events)
    assert "queue" not in state


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
    # snapshots early and diverge from the straight run.  No drain
    # first: each checkpoint analyzes its tenant's backlog before it
    # saves, so this "killed" service's pumps, which live on in the
    # test process, find nothing left to analyze twice.
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


def test_a_session_opened_without_restore_all_starts_fresh(
    build_service, stream_events, tmp_path
):
    """``restore_all()`` is the only restore: a tenant with a
    checkpoint on disk, fed without it, gets a fresh session that
    ingests every event it is offered, and its file stays as it was
    until that session's own next checkpoint."""
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store)
    first.pump(stream_events[:100], tenant="acme")
    first.checkpoint_all()
    path = store.path_for("acme")
    saved = path.read_bytes()

    fresh = build_service(checkpoint_store=CheckpointStore(tmp_path))
    fresh.pump(stream_events[100:110], tenant="acme")
    fresh.drain()
    assert fresh.sessions_restored == 0
    assert fresh.resume_offsets == {}
    assert fresh.sessions["acme"].events_ingested == 10
    assert path.read_bytes() == saved
    fresh.checkpoint("acme")
    assert store.load_all()["acme"]["events_ingested"] == 10


def test_restore_all_refuses_a_torn_checkpoint_untouched(
    build_service, stream_events, tmp_path
):
    """A checkpoint cut off mid-file stops ``restore_all()`` with a
    refusal naming the file, before any tenant is restored; the
    directory is left byte for byte as it was."""
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store)
    for tenant in ("acme", "globex"):
        first.pump(stream_events[:50], tenant=tenant)
    first.checkpoint_all()
    torn = store.path_for("globex")
    whole = torn.read_bytes()
    torn.write_bytes(whole[:len(whole) // 2])
    saved = {path: path.read_bytes() for path in tmp_path.iterdir()}

    resumed = build_service(checkpoint_store=CheckpointStore(tmp_path))
    with pytest.raises(StateError, match=re.escape(str(torn))):
        resumed.restore_all()
    assert resumed.sessions == {}
    assert resumed.resume_offsets == {}
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} \
        == saved


def test_a_shut_down_service_opens_no_session(
    build_service, stream_events, tmp_path
):
    """After ``shutdown()`` no verb opens a session: ``session()`` and
    ``restore_all()`` raise, and an offer for a new tenant is counted
    shed; no pump thread is started for it."""
    store = CheckpointStore(tmp_path)
    service = build_service(checkpoint_store=store)
    service.submit(stream_events[0], tenant="acme")
    service.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        service.session("late")
    with pytest.raises(RuntimeError, match="shut down"):
        service.restore_all()
    assert service.submit(stream_events[1], tenant="late") is False
    assert list(service.sessions) == ["acme"]
    assert service.stats().events_shed == 1
    assert not [thread for thread in threading.enumerate()
                if thread.name == "gretel-pump-late"]


def test_an_offer_that_loses_the_race_to_shutdown_is_shed(
    build_service, stream_events
):
    """An offer that passed the shut-down check, then found
    ``shutdown()`` done before it could open its tenant's session,
    opens none and is counted shed."""
    service = build_service()

    class ShutsDownOnLookup(dict):
        """The session table, with ``shutdown()`` landing between
        the offer's check and its lookup."""

        def get(self, key, default=None):
            if key == "late":
                service.shutdown()
            return super().get(key, default)

    service.sessions = ShutsDownOnLookup()
    assert service.submit(stream_events[0], tenant="late") is False
    assert dict(service.sessions) == {}
    assert service.stats().events_shed == 1
    assert service.events_submitted == 1
    assert not [thread for thread in threading.enumerate()
                if thread.name == "gretel-pump-late"]


def test_router_keyword_selects_nothing(library):
    """``async_ingest`` and ``restore`` survive only because the ledger
    still passes them: ``True`` is accepted, anything else names where
    the sync router went, or the one restore, ``restore_all()``."""
    with pytest.raises(ValueError, match="repro.reference.SyncSession"):
        StreamingService(library, async_ingest=False)
    with pytest.raises(ValueError, match=r"restore_all\(\)"):
        StreamingService(library, restore=False)
    # Neither builds a session.
    StreamingService(library, async_ingest=True, restore=True)


def test_restored_tenants_report_their_resume_offsets(
    build_service, stream_events, tmp_path
):
    """Each restored tenant resumes after every event its checkpoint
    accepted or shed: 8 accepted + 32 shed for one, 5 accepted for the
    other."""
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store, queue_capacity=8,
                          policy="shed")
    for tenant, offers in (("acme", stream_events[:40]),
                           ("globex", stream_events[40:45])):
        with first.session(tenant).parked():
            for event in offers:
                first.submit(event, tenant=tenant)
    first.checkpoint_all()
    assert first.resume_offsets == {}

    resumed = build_service(checkpoint_store=store, queue_capacity=8,
                            policy="shed")
    assert resumed.restore_all() == 2
    assert resumed.resume_offsets == {"acme": 40, "globex": 5}
    assert resumed.sessions_restored == 2
    acme = resumed.sessions["acme"]
    assert (acme.events_ingested, acme.events_shed) == (8, 32)


def test_restore_all_parses_each_checkpoint_once(
    build_service, stream_events, tmp_path
):
    """``restore_all`` reads every checkpoint file once: the listing
    and the restore share one parse per tenant, and a tenant it
    restored is not read again when its events arrive."""
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store)
    for tenant in ("acme", "globex", "initech"):
        first.pump(stream_events[:50], tenant=tenant)
    first.checkpoint_all()

    class CountingStore(CheckpointStore):
        def __init__(self, root):
            super().__init__(root)
            self.parsed = []

        def _parse(self, path):
            self.parsed.append(path.name)
            return super()._parse(path)

    counting = CountingStore(tmp_path)
    resumed = build_service(checkpoint_store=counting)
    assert resumed.restore_all() == 3
    assert sorted(counting.parsed) == [
        "acme.checkpoint.json", "globex.checkpoint.json",
        "initech.checkpoint.json",
    ]
    resumed.pump(stream_events[50:60], tenant="acme")
    assert len(counting.parsed) == 3
    assert resumed.sessions["acme"].events_ingested == 60
