"""Concurrency tests for the pump router.

The pump router's contract (``docs/service.md``): concurrent
producers lose nothing under ``"block"``, account for everything
under ``"shed"``, checkpointing races cleanly with live pumps,
shutdown with producers still running neither deadlocks nor leaks a
pump thread — nor lets one dead pump strand the other tenants — and
the whole thing is observably identical to the reference sync router
(:func:`repro.service.verify_async` — including a negative test
proving the oracle actually trips on a tampered pump).
"""

import itertools
import sys
import threading
import time
from collections import Counter

import pytest

import repro.service.session

from repro.core.reports import report_signature
from repro.oracle import OracleDivergence
from repro.service import (
    CheckpointStore,
    StreamingService,
    verify_async,
)
from repro.service.async_oracle import (
    bucket_tenant,
    drive_producers,
    partition_tenants,
)
from repro.service.session import TenantSession

from .conftest import CONFIG

TENANTS = 3
PRODUCERS = 4


def partition(events, tenants=TENANTS):
    return partition_tenants(events, tenants)


def run_producers(service, jobs):
    """Drive ``submit`` from one thread per (tenant, slice) job."""
    threads = [
        threading.Thread(
            target=lambda work=work, key=key: [
                service.submit(event, tenant=key) for event in work
            ],
        )
        for key, work in jobs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# Pump lifecycle
# ---------------------------------------------------------------------------

def test_pump_thread_starts_and_joins(build_service, stream_events):
    service = build_service()
    service.submit(stream_events[0], tenant="acme")
    session = service.sessions["acme"]
    assert session.pump_alive
    service.shutdown()
    assert not session.pump_alive
    assert session.sealed
    # Terminal and idempotent.
    service.shutdown()
    assert service.submit(stream_events[1], tenant="acme") is False


# ---------------------------------------------------------------------------
# N producers x M tenants, both policies
# ---------------------------------------------------------------------------

def test_block_policy_concurrent_producers_lose_nothing(
    build_service, stream_events
):
    # A tiny queue forces real backpressure: producers must park on
    # the not-full condition and be woken by the pump.
    service = build_service(queue_capacity=16)
    buckets = partition(stream_events)
    for key in buckets:
        service.session(key)
    # Each tenant's stream is split across several producers —
    # disjoint slices, so per-tenant counters stay deterministic
    # even though interleaving is not.
    jobs = [
        (key, stream[lane::PRODUCERS])
        for key, stream in buckets.items()
        for lane in range(PRODUCERS)
    ]
    run_producers(service, jobs)
    service.flush()
    for key, stream in buckets.items():
        session = service.sessions[key]
        assert session.events_ingested == len(stream)
        assert session.events_analyzed == len(stream)
        assert session.events_shed == 0
        assert session.queued == 0
    stats = service.stats()
    assert stats.events_submitted == len(stream_events)
    assert stats.events_accepted == len(stream_events)
    assert stats.events_analyzed == len(stream_events)
    service.shutdown()


def test_shed_policy_concurrent_producers_account_for_everything(
    build_service, stream_events
):
    # Capacity 1 makes shedding near-certain, but the invariant below
    # holds at any drop rate: every offer is either accepted (and
    # eventually analyzed) or counted shed — never lost, never
    # duplicated.
    service = build_service(queue_capacity=1, policy="shed")
    buckets = partition(stream_events)
    for key in buckets:
        service.session(key)
    jobs = [
        (key, stream[lane::PRODUCERS])
        for key, stream in buckets.items()
        for lane in range(PRODUCERS)
    ]
    run_producers(service, jobs)
    service.flush()
    for key, stream in buckets.items():
        session = service.sessions[key]
        offered = len(stream)
        assert session.events_ingested + session.events_shed == offered
        assert session.events_analyzed == session.events_ingested
        assert session.queued == 0
    stats = service.stats()
    assert stats.events_submitted == len(stream_events)
    assert stats.events_accepted == stats.events_analyzed
    assert (
        stats.events_accepted + stats.events_shed
        == len(stream_events)
    )
    service.shutdown()


# ---------------------------------------------------------------------------
# Checkpoint-while-pumping race
# ---------------------------------------------------------------------------

def test_checkpoint_races_cleanly_with_live_pump(
    build_service, stream_events, tmp_path
):
    store = CheckpointStore(tmp_path)
    service = build_service(checkpoint_store=store, queue_capacity=32)
    bucket = partition(stream_events)["tenant-0"]
    service.session("acme")

    producer = threading.Thread(
        target=lambda: [
            service.submit(event, tenant="acme") for event in bucket
        ],
    )
    producer.start()
    # Snapshot repeatedly while the pump is mid-stream.  Each call
    # must park the pump at an event boundary, analyze the backlog
    # and persist a monotonically growing watermark.
    watermarks = []
    for _ in range(5):
        service.checkpoint("acme")
        watermarks.append(store.load_all()["acme"]["events_ingested"])
    producer.join()
    service.flush()
    service.checkpoint("acme")
    assert watermarks == sorted(watermarks)
    state = store.load_all()["acme"]
    assert state["events_ingested"] == len(bucket)
    assert "queue" not in state
    service.shutdown()


def test_checkpoint_under_live_producers_saves_state_not_backlog(
    build_service, stream_events, tmp_path
):
    """A producer thread per tenant keeps submitting while this thread
    checkpoints one tenant again and again, the first time with a
    full 16-event queue.  Every document is the analyzer after
    exactly the events its session had ingested, with no queue; and
    restoring one taken mid-stream, then offering the rest of that
    tenant's stream, ends in the straight run's report multiset."""
    buckets = partition(stream_events, 2)
    tenant = sorted(buckets)[0]
    bucket = buckets[tenant]

    def signatures(service):
        seen = []
        service.on_report(
            lambda key, report: seen.append(report_signature(report))
            if key == tenant else None
        )
        return seen

    straight = build_service()
    straight_sigs = signatures(straight)
    straight.pump(bucket, tenant=tenant)
    straight.flush()

    store = CheckpointStore(tmp_path / "live")
    first = build_service(checkpoint_store=store, queue_capacity=16)
    first_sigs = signatures(first)
    live = first.session(tenant)
    producers = [
        threading.Thread(target=first.pump, args=(work,),
                         kwargs={"tenant": key})
        for key, work in buckets.items()
    ]
    documents = []
    with live.parked():
        for producer in producers:
            producer.start()
        while live.queued < 16:
            time.sleep(0.001)
        first.checkpoint(tenant)
        documents.append(store.load_all()[tenant])
    while any(producer.is_alive() for producer in producers):
        first.checkpoint(tenant)
        documents.append(store.load_all()[tenant])
    for producer in producers:
        producer.join()
    first.checkpoint(tenant)
    documents.append(store.load_all()[tenant])

    watermarks = [doc["events_ingested"] for doc in documents]
    assert watermarks == sorted(watermarks)
    assert watermarks[0] >= 16 and watermarks[-1] == len(bucket)
    for doc in documents:
        assert "queue" not in doc
        counters = doc["analyzer"]["counters"]
        assert counters["events_processed"] == doc["events_ingested"]

    cut = documents[0]
    chosen = CheckpointStore(tmp_path / "chosen")
    chosen.save(tenant, cut, seq=cut["events_ingested"])
    second = build_service(checkpoint_store=chosen)
    second_sigs = signatures(second)
    assert second.restore_all() == 1
    second.pump(bucket[cut["events_ingested"]:], tenant=tenant)
    second.flush()
    assert second.sessions[tenant].events_analyzed == len(bucket)
    assert sorted(first_sigs[:cut["reports_emitted"]] + second_sigs) \
        == sorted(straight_sigs)


def test_async_checkpoint_resume_matches_straight_run(
    build_service, stream_events, tmp_path
):
    """Kill-and-resume through the pump router replays to the same
    per-tenant reports as one uninterrupted run.  Checkpoint after a
    *quiesce*, never a flush — flush is an end-of-stream operation."""
    def sink(service):
        sigs = []
        service.on_report(
            lambda t, r: sigs.append((t, report_signature(r)))
        )
        return sigs

    straight = build_service()
    straight_sigs = sink(straight)
    for event in stream_events:
        straight.submit(
            event, tenant=bucket_tenant(event.tenant, TENANTS)
        )
    straight.flush()
    straight.shutdown()

    cut = len(stream_events) // 2
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store)
    first_sigs = sink(first)
    for event in stream_events[:cut]:
        first.submit(
            event, tenant=bucket_tenant(event.tenant, TENANTS)
        )
    # Quiesce (pumps finish what was accepted, nothing is frozen),
    # persist, then kill: close the pumps without ever flushing.
    first.drain()
    first.checkpoint_all()
    for live in first.sessions.values():
        live.close()

    second = build_service(checkpoint_store=store)
    second_sigs = sink(second)
    assert second.restore_all() == len(first.sessions)
    for event in stream_events[cut:]:
        second.submit(
            event, tenant=bucket_tenant(event.tenant, TENANTS)
        )
    second.flush()
    combined = first_sigs + second_sigs
    assert sorted(combined) == sorted(straight_sigs)
    assert second.stats().events_analyzed == len(stream_events)
    second.shutdown()


def test_resume_from_offsets_over_passes_matches_straight_run(
    build_service, stream_events, tmp_path
):
    """A restored tenant resumes at ``events_ingested + events_shed``,
    counted over its passes laid end to end (what ``repro serve
    --resume`` does): every event is analyzed once, and the two
    processes' pages are the straight run's."""
    passes = 2
    buckets = partition(stream_events)

    def sink(service):
        sigs = []
        service.on_report(
            lambda t, r: sigs.append((t, report_signature(r)))
        )
        return sigs

    straight = build_service()
    straight_sigs = sink(straight)
    drive_producers(straight, buckets, PRODUCERS, passes=passes)
    straight.flush()

    # Kill each tenant at a different point of its two passes: inside
    # the first, at the seam, inside the second.
    store = CheckpointStore(tmp_path)
    first = build_service(checkpoint_store=store)
    first_sigs = sink(first)
    cuts = {}
    for index, (key, stream) in enumerate(buckets.items()):
        cuts[key] = (index + 1) * len(stream) * passes // (TENANTS + 1)
        for event in (stream * passes)[:cuts[key]]:
            first.submit(event, tenant=key)
    first.drain()
    first.checkpoint_all()
    for live in first.sessions.values():
        live.close()

    second = build_service(checkpoint_store=store)
    second_sigs = sink(second)
    assert second.restore_all() == TENANTS
    offsets = {
        key: live.events_ingested + live.events_shed
        for key, live in second.sessions.items()
    }
    assert offsets == cuts
    drive_producers(
        second, buckets, PRODUCERS, passes=passes, offsets=offsets,
    )
    second.flush()
    assert sorted(first_sigs + second_sigs) == sorted(straight_sigs)
    assert second.stats().events_analyzed == passes * len(stream_events)


# ---------------------------------------------------------------------------
# Wakeups: every wait ends on a notify, never on the defensive tick
# ---------------------------------------------------------------------------

def _within(seconds, work):
    """Run ``work`` on a daemon thread; fail if it is not done in
    ``seconds`` (far below the patched tick, so only a notify can
    have ended each wait)."""
    failures = []

    def run():
        try:
            work()
        except BaseException as error:  # re-raised below
            failures.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{work.__name__} stalled: lost wakeup"
    if failures:
        raise failures[0]


def test_no_lost_wakeup_the_tick_could_mask(
    build_session, build_service, build_analyzer, stream_events,
    monkeypatch,
):
    """With the defensive re-check at 60 s and the GIL switching every
    microsecond, a missed notify on any channel — the pump waiting for
    work, producers waiting for space, a quiesce waiting for idle —
    stalls the run past its deadline."""
    monkeypatch.setattr(repro.service.session, "_WAIT_TICK", 60.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # Round trips into an idle pump: each submit must wake it,
        # each quiesce must be woken by it.
        session = build_session(queue_capacity=64)
        trips = stream_events[:400]

        def round_trips():
            for event in trips:
                assert session.submit(event)
                session.quiesce()

        _within(30, round_trips)
        assert session.events_ingested == len(trips)
        assert session.events_analyzed == len(trips)

        # Backpressure: four producers, one per tenant, against a
        # two-slot queue, so producers park on the not-full channel
        # while pumps park waiting for work.
        buckets = partition(stream_events, tenants=4)
        service = build_service(queue_capacity=2)
        pumped = []  # list.append is atomic across pump threads
        service.on_report(
            lambda t, r: pumped.append((t, report_signature(r)))
        )

        def produce():
            drive_producers(service, buckets, 4)

        def flush():
            service.flush()

        _within(30, produce)
        _within(30, flush)
    finally:
        sys.setswitchinterval(interval)
    serial = Counter()
    for key, stream in buckets.items():
        live = service.sessions[key]
        assert live.events_ingested == len(stream)
        assert live.events_analyzed == len(stream)
        assert live.events_shed == 0
        analyzer = build_analyzer()
        analyzer.on_report(
            lambda r, key=key: serial.update([(key, report_signature(r))])
        )
        analyzer.feed(stream)
        analyzer.flush()
        analyzer.close()
    assert sum(serial.values()) > 0
    assert Counter(pumped) == serial


def _until(predicate):
    """Poll ``predicate`` until it holds (under ``_within``)."""
    def wait():
        while not predicate():
            time.sleep(0.001)
    return wait


def test_a_verb_wakes_blocked_producers_and_the_pump(
    build_session, stream_events, monkeypatch,
):
    """With the defensive re-check at 60 s: a producer blocked on a
    full queue is woken by the verb that takes the backlog, and the
    pump a verb held back is woken when the last verb lets go."""
    monkeypatch.setattr(repro.service.session, "_WAIT_TICK", 60.0)
    session = build_session(queue_capacity=4)
    events = stream_events[:12]
    producer = threading.Thread(
        target=lambda: [session.submit(event) for event in events],
        daemon=True,
    )
    def blocked_on_a_full_queue():
        return session.queued == 4 and session._full_waiters == 1

    with session.parked():
        producer.start()
        _within(30, _until(blocked_on_a_full_queue))
        assert session.quiesce() == 4
        _within(30, _until(blocked_on_a_full_queue))
    _within(30, _until(lambda: session.events_analyzed == len(events)))
    producer.join(30)
    assert not producer.is_alive()


# ---------------------------------------------------------------------------
# One owner for the analyzer
# ---------------------------------------------------------------------------

def test_the_analyzer_has_one_owner_at_a_time(
    build_service, stream_events, monkeypatch, tmp_path
):
    """Producers, periodic checkpoints, ``quiesce``, ``flush`` and
    ``parked`` all at once, with the GIL switching every 10 µs: no two
    threads are ever inside one session's ``_pump_step``, though both
    the pumps and the verbs' callers analyze."""
    step = TenantSession._pump_step
    guard = threading.Lock()
    inside, peak, owners = Counter(), Counter(), set()

    def counted_step(self, chunk):
        with guard:
            inside[self.tenant] += 1
            peak[self.tenant] = max(peak[self.tenant], inside[self.tenant])
            owners.add(
                threading.current_thread().name.startswith("gretel-pump-")
            )
        try:
            step(self, chunk)
        finally:
            with guard:
                inside[self.tenant] -= 1

    monkeypatch.setattr(TenantSession, "_pump_step", counted_step)
    buckets = partition(stream_events, 2)
    service = build_service(
        checkpoint_store=CheckpointStore(tmp_path), checkpoint_every=40,
        queue_capacity=16,
    )
    sessions = [service.session(key) for key in buckets]
    done = threading.Event()

    def control():
        while not done.is_set():
            for live in sessions:
                live.quiesce()
                with live.parked():
                    time.sleep(0)
                live.flush()

    def produce():
        drive_producers(service, buckets, 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    controller = threading.Thread(target=control, daemon=True)
    try:
        controller.start()
        _within(60, produce)
    finally:
        done.set()
        controller.join(30)
        sys.setswitchinterval(interval)
    assert not controller.is_alive()
    service.flush()
    assert service.checkpoints_written >= 2
    assert owners == {True, False}
    assert set(peak) == set(buckets)
    assert max(peak.values()) == 1
    for key, stream in buckets.items():
        live = service.sessions[key]
        assert live.events_analyzed == live.events_ingested == len(stream)


def test_a_verb_gets_the_analyzer_while_the_queue_stays_full(
    build_session, stream_events, monkeypatch
):
    """Every analysis refills the queue to capacity before it starts,
    so the queue is never empty between chunks; yet with the GIL
    switching every microsecond each control verb returns far inside
    the 60-s tick: a verb takes the backlog it finds instead of
    waiting for an empty queue."""
    monkeypatch.setattr(repro.service.session, "_WAIT_TICK", 60.0)
    feed = itertools.cycle(stream_events)
    step = TenantSession._pump_step

    def refilling_step(self, chunk):
        while self.queued < self.queue_capacity and self.submit(next(feed)):
            pass
        step(self, chunk)

    monkeypatch.setattr(TenantSession, "_pump_step", refilling_step)
    session = build_session(queue_capacity=64)
    drained = []

    def quiesce():
        drained.append(session.quiesce())

    def park():
        with session.parked():
            pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert session.submit(stream_events[0])
        # From the pump's first chunk on, the queue is full at every
        # chunk boundary.
        _within(30, _until(lambda: session.events_analyzed > 0))
        for verb in (quiesce, session.snapshot_state, session.flush, park,
                     quiesce):
            _within(30, verb)
    finally:
        session.seal()
        sys.setswitchinterval(interval)
    assert min(drained) >= session.queue_capacity
    session.quiesce()
    assert session.queued == 0
    assert session.events_analyzed == session.events_ingested


# ---------------------------------------------------------------------------
# Shutdown with producers still running
# ---------------------------------------------------------------------------

def test_shutdown_with_live_producers_neither_deadlocks_nor_leaks(
    build_service, stream_events
):
    service = build_service(queue_capacity=8)
    buckets = partition(stream_events)
    for key in buckets:
        service.session(key)
    release = threading.Event()

    def produce(key, stream):
        # Loop the slice until sealed: submit() returning False is
        # the producer's only stop signal.
        while True:
            for event in stream:
                if not service.submit(event, tenant=key):
                    return
            release.set()

    threads = [
        threading.Thread(target=produce, args=(key, stream))
        for key, stream in buckets.items()
    ]
    for thread in threads:
        thread.start()
    release.wait(timeout=60)  # let at least one full pass land
    service.shutdown()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for live in service.sessions.values():
        assert live.sealed
        assert not live.pump_alive
        assert live.queued == 0
        # Everything accepted before the seal was still analyzed.
        assert live.events_analyzed == live.events_ingested
    service.shutdown()  # idempotent


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------

def test_verify_async_inline_backend(library, stream_events):
    result = verify_async(
        stream_events, library,
        tenants=TENANTS, producers=2, config=CONFIG,
        queue_capacity=64,
    )
    assert result.ok
    assert (result.facts["reference_reports"]
            == result.facts["candidate_reports"] > 0)
    assert result.missing == [] and result.extra == []
    assert result.mismatches == []
    assert result.to_dict()["ok"] is True
    assert "EQUIVALENT" in result.summary()


def test_tampered_pump_trips_the_oracle(
    library, stream_events, monkeypatch
):
    # Swallow every claimed chunk: the pumps count the events but
    # never analyze them, so the async half emits no reports.  The
    # sync half never touches _pump_step and is unaffected.
    monkeypatch.setattr(
        TenantSession, "_pump_step", lambda self, chunk: None,
    )
    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_async(
            stream_events, library,
            tenants=TENANTS, producers=2, config=CONFIG,
        )
    result = excinfo.value.result
    assert result.layer == "async"
    # Every sync report is missing from the pump half, each carrying
    # its tenant as the signature's last element.
    assert len(result.missing) == result.facts["reference_reports"] > 0
    assert {sig[-1] for sig in result.missing} <= {
        f"tenant-{index}" for index in range(TENANTS)
    }
    assert any(
        line.startswith("counter: [tenant-") and "reports_emitted" in line
        for line in result.mismatches
    )


def test_verify_async_rejects_bad_arguments(library, stream_events):
    with pytest.raises(ValueError, match="tenants"):
        verify_async(stream_events, library, tenants=0, config=CONFIG)
    with pytest.raises(ValueError, match="producers"):
        verify_async(
            stream_events, library, producers=0, config=CONFIG,
        )


def test_producer_exception_surfaces_on_the_caller(
    build_service, stream_events, monkeypatch
):
    """A producer thread that dies must fail the replay on the calling
    thread, not leave a traceback on stderr and a short stream."""
    service = build_service()
    poisoned = stream_events[5]

    original = StreamingService.submit

    def submit(self, event, *, tenant=None):
        if event is poisoned:
            raise RuntimeError("front door blew up")
        return original(self, event, tenant=tenant)

    monkeypatch.setattr(StreamingService, "submit", submit)
    with pytest.raises(RuntimeError, match="front door blew up"):
        drive_producers(
            service, partition(stream_events[:50]), PRODUCERS,
        )


# ---------------------------------------------------------------------------
# Pump failure containment
# ---------------------------------------------------------------------------

def test_pump_death_seals_session_and_surfaces_on_flush(
    build_service, stream_events, monkeypatch
):
    def explode(self, chunk):
        raise RuntimeError("pipeline blew up")

    monkeypatch.setattr(TenantSession, "_pump_step", explode)
    service = build_service()
    service.submit(stream_events[0], tenant="acme")
    session = service.sessions["acme"]
    # Whichever thread analyzed the event (the pump, or this one in
    # quiesce) records the error, seals the door and stops the pump.
    session.quiesce()
    assert session.sealed
    assert service.submit(stream_events[1], tenant="acme") is False
    with pytest.raises(RuntimeError, match="tenant 'acme' analyzer failed"):
        session.flush()
    with pytest.raises(RuntimeError, match="tenant 'acme' analyzer failed"):
        service.shutdown()


def test_one_dead_pump_does_not_strand_the_other_tenants(
    build_service, stream_events, monkeypatch, tmp_path
):
    """``shutdown`` with one dead pump still flushes, checkpoints and
    closes every healthy tenant before raising the failure."""
    step = TenantSession._pump_step

    def poisoned_step(self, chunk):
        if self.tenant == "doomed":
            raise RuntimeError("pipeline blew up")
        step(self, chunk)

    monkeypatch.setattr(TenantSession, "_pump_step", poisoned_step)
    store = CheckpointStore(tmp_path)
    service = build_service(checkpoint_store=store)
    # The doomed tenant is created (and so flushed) first.
    service.submit(stream_events[0], tenant="doomed")
    service.pump(stream_events[:100], tenant="healthy")
    service.sessions["doomed"].quiesce()  # it has died by now

    with pytest.raises(RuntimeError, match="tenant 'doomed' analyzer failed"):
        service.shutdown()
    for live in service.sessions.values():
        assert live.pump_alive is False
    assert store.load_all()["healthy"]["events_ingested"] == 100
    # The dead tenant lost a claimed chunk: its state is not saved.
    assert sorted(store.load_all()) == ["healthy"]
