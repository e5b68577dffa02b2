"""Differential oracle: the pump router must change nothing.

The service's router (:class:`~repro.service.session.TenantSession`)
analyzes on one dedicated pump thread per tenant, never on the
submitter's thread.  Because each tenant keeps exactly **one**
consumer thread and producers deliver each tenant's events in order,
per-tenant event order is preserved — so the per-tenant report
multiset and the per-tenant ingest counters must be *identical* to
those of a single-threaded router that drains inline.
:func:`verify_async` turns that argument into an assertion:

* **sync half** — one :class:`repro.reference.session.SyncSession`
  per tenant bucket consumes its bucket on the calling thread;
* **pump half** — a ``StreamingService`` consumes the same stream
  from ``producers`` concurrent producer threads (each tenant owned
  by exactly one producer, so per-tenant delivery order is the stream
  order), is flushed through the quiesce barrier, and shut down.

Both halves must agree, per tenant, on the report multiset (compared
via :func:`repro.core.reports.report_signature`) and on the ingest
counters (``events_ingested`` / ``events_analyzed`` / ``events_shed``
/ ``reports_emitted``).  The oracle runs under the ``"block"``
policy — shedding is timing-dependent by design, so a shed-policy
replay is not deterministic and cannot be differentially compared.

The negative tests patch :meth:`TenantSession._pump_step` (the
documented tamper seam) to drop or duplicate an event and assert the
oracle trips.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.reports import report_signature
from repro.openstack.wire import WireEvent
from repro.oracle import (
    OracleResult,
    diff_counters,
    diff_multisets,
    settle,
)
from repro.service.manager import StreamingService

#: Per-session counters compared between the two halves.
COUNTER_FIELDS = (
    "events_ingested",
    "events_analyzed",
    "events_shed",
    "reports_emitted",
)

#: :func:`~repro.core.reports.report_signature` + ``(tenant,)``.
Signature = Tuple[object, ...]


def bucket_tenant(tenant: str, buckets: int) -> str:
    """Deterministically re-key a raw tenant id into ``buckets``
    service sessions (id-stable; replay tools re-bucket streams this
    way — the ``repro serve`` CLI uses the same function)."""
    raw = tenant.rsplit("-", 1)[-1]
    index = int(raw) if raw.isdigit() else 0
    return f"tenant-{index % buckets}"


def partition_tenants(
    events: Sequence[WireEvent], tenants: int
) -> Dict[str, List[WireEvent]]:
    """Stream order per bucket, buckets in first-appearance order."""
    buckets: Dict[str, List[WireEvent]] = {}
    for event in events:
        key = bucket_tenant(event.tenant, tenants)
        buckets.setdefault(key, []).append(event)
    return buckets


def drive_producers(
    service: StreamingService,
    buckets: Dict[str, List[WireEvent]],
    producers: int,
    passes: int = 1,
    offsets: Optional[Mapping[str, int]] = None,
) -> None:
    """Submit every bucket from ``producers`` concurrent threads.

    Each bucket is owned by exactly one producer, which replays it
    ``passes`` times in stream order — so per-tenant delivery order is
    the stream order however the threads interleave.  A tenant with
    an offset (a restored session's ``events_ingested +
    events_shed``) skips that many events of its ``passes`` replays
    laid end to end.  The sessions are created *before* the producers
    start.  Returns once every producer has finished; the first
    exception a producer raised is re-raised here rather than left on
    its thread.
    """
    owned: List[List[Tuple[str, List[WireEvent]]]] = [
        [] for _ in range(producers)
    ]
    for index, (tenant, stream) in enumerate(buckets.items()):
        service.session(tenant)
        owned[index % producers].append((tenant, stream))
    skip: Mapping[str, int] = offsets or {}
    failures: List[Exception] = []

    def produce(work: List[Tuple[str, List[WireEvent]]]) -> None:
        try:
            for tenant, stream in work:
                replay = itertools.chain.from_iterable(
                    itertools.repeat(stream, passes)
                )
                for event in itertools.islice(
                    replay, skip.get(tenant, 0), None
                ):
                    service.submit(event, tenant=tenant)
        except Exception as error:
            failures.append(error)  # re-raised on the caller below

    threads = [
        threading.Thread(
            target=produce, args=(work,),
            name=f"gretel-producer-{index}",
        )
        for index, work in enumerate(owned) if work
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def verify_async(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    *,
    tenants: int = 4,
    producers: int = 2,
    config: Optional[GretelConfig] = None,
    track_latency: bool = True,
    queue_capacity: int = 1024,
    strict: bool = True,
) -> OracleResult:
    """Prove the pump router is observably the reference sync router
    (see the module docstring for the two halves).

    A report signature here is
    :func:`~repro.core.reports.report_signature` with the tenant
    appended; a counter divergence is a
    ``counter: [tenant] <name> ...`` line in ``mismatches``.  Every
    session of both halves reads an empty metadata store (no caller
    has ever handed in a populated one), so Alg. 3 findings are empty
    on both.  ``strict`` is
    :func:`repro.oracle.settle`'s.
    """
    if tenants < 1:
        raise ValueError("tenants must be at least 1")
    if producers < 1:
        raise ValueError("producers must be at least 1")
    events = list(events)
    buckets = partition_tenants(events, tenants)

    # Inside the call only (tests/test_import_hygiene.py).
    from repro.reference.session import SyncSession

    service = StreamingService(
        library,
        config=config,
        track_latency=track_latency,
        queue_capacity=queue_capacity,
        policy="block",
    )

    def sink(signatures: List[Signature]) -> Any:
        return lambda tenant, report: signatures.append(
            report_signature(report) + (tenant,)
        )

    def counters(live: Any) -> Dict[str, int]:
        return {name: getattr(live, name) for name in COUNTER_FIELDS}

    # Sync half: single-threaded, bucket by bucket in stream order,
    # each bucket through its own reference session.
    sync_sigs: List[Signature] = []
    sync_counters: Dict[str, Dict[str, int]] = {}
    for tenant, stream in buckets.items():
        session = SyncSession(
            tenant, service.build_analyzer(),
            queue_capacity=queue_capacity, policy="block",
        )
        session.on_report(sink(sync_sigs))
        try:
            for event in stream:
                session.submit(event)
            session.flush()
            sync_counters[tenant] = counters(session)
        finally:
            session.close()

    # Pump half: the production service under concurrent producers.
    async_sigs: List[Signature] = []
    service.on_report(sink(async_sigs))
    try:
        drive_producers(service, buckets, producers)
        service.flush()
        async_counters = {
            live.tenant: counters(live)
            for live in service.sessions.values()
        }
    finally:
        service.shutdown()

    missing, extra = diff_multisets(sync_sigs, async_sigs)
    result = OracleResult(
        layer="async",
        reference="sync",
        candidate="pump",
        facts={
            "events": len(events),
            "tenants": tenants,
            "producers": producers,
            "reference_reports": len(sync_sigs),
            "candidate_reports": len(async_sigs),
        },
        missing=missing,
        extra=extra,
        mismatches=[
            line
            for tenant in sorted(set(sync_counters) | set(async_counters))
            for line in diff_counters(
                sync_counters.get(tenant, {}),
                async_counters.get(tenant, {}),
                scope=tenant,
            )
        ],
    )
    return settle(result, strict)
