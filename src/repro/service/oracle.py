"""Differential oracle: a killed and restarted service changes nothing.

:func:`verify_service` replays one stream, re-keyed into tenant
buckets, through two halves with the same configuration:

* **reference** — one :class:`repro.reference.session.SyncSession`
  per bucket, fed on the calling thread in stream order and flushed;
* **candidate** — a :class:`~repro.service.manager.StreamingService`
  fed by ``producers`` threads (:func:`drive_producers`) and killed
  at ``cuts`` evenly spaced interior points of every bucket.  At each
  cut the service drains; then, each session
  :meth:`~repro.service.session.TenantSession.parked`, it submits the
  bucket's last ``queue_capacity`` events before the cut, so every
  checkpoint analyzes a backlog as one under load does, and
  checkpoints the tenant.  The kill closes every session without a
  flush.  A fresh service over a fresh
  :class:`~repro.service.checkpoint.CheckpointStore` on the same
  directory comes back through ``restore_all()``, the path an operator
  restarts through, and resumes each bucket at ``resume_offsets``.

Per tenant, both halves must agree on the report multiset (compared
via :func:`repro.core.reports.report_signature`, tenant appended), the
four :data:`COUNTER_FIELDS`, :class:`~repro.core.analyzer.PipelineStats`
(its wall-clock ``analysis_seconds`` aside) and the final
``snapshot_state()``.  A restart that restores fewer sessions than
were checkpointed, or resumes a bucket anywhere but at its cut,
diverges too.  The oracle runs under ``"block"``: shedding is
timing-dependent by design, so a shed-policy replay cannot be
compared.  The negative
tests tamper with the candidate only: :meth:`TenantSession._pump_step`
(the documented seam), the restart path, or (``mutate``) each
persisted analyzer document.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.reports import report_signature
from repro.openstack.wire import WireEvent
from repro.oracle import OracleResult, diff_counters, diff_multisets, settle
from repro.service.checkpoint import CheckpointStore
from repro.service.manager import StreamingService
from repro.service.session import TenantSession

#: Per-session counters compared between the two halves.
COUNTER_FIELDS = (
    "events_ingested", "events_analyzed", "events_shed", "reports_emitted",
)

#: :func:`~repro.core.reports.report_signature` + ``(tenant,)``.
Signature = Tuple[object, ...]

StateMutator = Callable[[Dict[str, Any]], Dict[str, Any]]


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
    offsets: Optional[Mapping[str, int]] = None,
) -> None:
    """Submit every bucket from ``producers`` concurrent threads.

    Each bucket is owned by exactly one producer, which replays it in
    stream order — so per-tenant delivery order is the stream order
    however the threads interleave.  A tenant with an offset (a
    restored session's ``events_ingested + events_shed``) skips that
    many events of its bucket.  The sessions are created *before* the
    producers start.  Returns once every producer has finished; the first
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
                for event in stream[skip.get(tenant, 0):]:
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


def _cut_points(total: int, cuts: int) -> Tuple[int, ...]:
    """``cuts`` evenly spaced interior indices of a ``total``-event
    stream (never 0 or ``total`` — those are degenerate)."""
    if total < 2 or cuts < 1:
        return ()
    step = total / (cuts + 1)
    points = sorted(
        {min(total - 1, max(1, round(step * (i + 1))))
         for i in range(cuts)}
    )
    return tuple(points)


def _state_mismatches(reference: Any, candidate: Any,
                      path: str) -> List[str]:
    """One ``<path>.<key path> differs`` line per leaf where two
    ``snapshot_state()`` documents disagree (lists compare whole)."""
    if isinstance(reference, dict) and isinstance(candidate, dict):
        return [
            line
            for key in sorted(set(reference) | set(candidate), key=str)
            for line in _state_mismatches(
                reference.get(key), candidate.get(key), f"{path}.{key}"
            )
        ]
    return [] if reference == candidate else [f"{path} differs"]


def _observed(session: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """A finished session's counters (the four ingest counters and
    the pipeline stats) and its analyzer's state, without the one
    stat that legitimately differs between runs: the wall clock,
    which the state does not hold."""
    counters = {name: getattr(session, name) for name in COUNTER_FIELDS}
    counters.update(asdict(session.analyzer.stats()))
    del counters["analysis_seconds"]
    state = json.loads(json.dumps(session.analyzer.snapshot_state()))
    return counters, state


def verify_service(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    *,
    tenants: int = 4,
    producers: int = 2,
    cuts: int = 3,
    config: Optional[GretelConfig] = None,
    track_latency: bool = True,
    queue_capacity: int = TenantSession.QUEUE_CAPACITY,
    mutate: Optional[StateMutator] = None,
    strict: bool = True,
) -> OracleResult:
    """Prove a service killed and restarted through ``restore_all()``
    is observably the single-threaded reference on ``events`` (the two
    halves are in the module docstring).

    A counter divergence is a ``counter: [tenant] <name> ...`` line in
    ``mismatches``, a final-state one a ``[tenant] state.<key path>
    differs`` line, and a bad restart a ``restore: ...`` or ``resume:
    [tenant] ...`` line.  Every analyzer owns an empty metadata store,
    as a service tenant's does, so Alg. 3 finds no root cause on
    either half.  ``mutate`` edits each persisted analyzer document
    before the restart.  ``strict`` is :func:`repro.oracle.settle`'s.
    Raises :class:`ValueError` when no bucket has an interior cut
    (``cuts < 1`` or under 2 events): a verdict that restored nothing
    would check nothing.
    """
    if tenants < 1 or producers < 1:
        raise ValueError("tenants and producers must be at least 1")
    buckets = partition_tenants(events, tenants)
    points = {
        tenant: _cut_points(len(stream), cuts)
        for tenant, stream in buckets.items()
    }
    phases = max(map(len, points.values()), default=0)
    if not phases:
        raise ValueError(
            f"no interior cut point: cuts={cuts} on a {len(events)}-event "
            "stream (need cuts >= 1 and a tenant bucket of 2+ events)"
        )

    # Inside the call only (tests/test_import_hygiene.py).
    import tempfile

    from repro.reference.session import SyncSession

    reference_sigs: List[Signature] = []
    candidate_sigs: List[Signature] = []

    def sink(signatures: List[Signature]) -> Any:
        return lambda tenant, report: signatures.append(
            report_signature(report) + (tenant,)
        )

    reference = {}
    mismatches: List[str] = []
    restores = 0
    with tempfile.TemporaryDirectory(prefix="gretel-verify-") as root:

        def start() -> StreamingService:
            service = StreamingService(
                library, config=config, track_latency=track_latency,
                queue_capacity=queue_capacity, policy="block",
                checkpoint_store=CheckpointStore(root),
            )
            service.on_report(sink(candidate_sigs))
            return service

        service, offsets = start(), {}
        for tenant, stream in buckets.items():
            session = SyncSession(tenant, service.build_analyzer(),
                                  queue_capacity=queue_capacity)
            session.on_report(sink(reference_sigs))
            for event in stream:
                session.submit(event)
            session.flush()
            reference[tenant] = _observed(session)
        try:
            for phase in range(phases):
                cut = {
                    tenant: stops[phase] if phase < len(stops)
                    else len(buckets[tenant])
                    for tenant, stops in points.items()
                }
                held = {
                    tenant: max(offsets.get(tenant, 0),
                                at - queue_capacity)
                    for tenant, at in cut.items()
                }
                drive_producers(service, {
                    tenant: stream[:held[tenant]]
                    for tenant, stream in buckets.items()
                }, producers, offsets)
                service.drain()
                for tenant, stream in buckets.items():
                    with service.sessions[tenant].parked():
                        service.pump(stream[held[tenant]:cut[tenant]],
                                     tenant=tenant)
                        service.checkpoint(tenant)
                # The kill: no flush, so nothing pending is published.
                for live in service.sessions.values():
                    live.close()
                service = start()
                if mutate is not None:
                    store = service.checkpoints
                    for tenant, state in store.load_all().items():
                        state["analyzer"] = mutate(state["analyzer"])
                        store.save(tenant, state,
                                   seq=state["events_ingested"])
                restored = service.restore_all()
                restores += restored
                offsets = dict(service.resume_offsets)
                if restored != len(buckets):
                    mismatches.append(f"restore: {restored} of "
                                      f"{len(buckets)} sessions restored")
                mismatches += [
                    f"resume: [{tenant}] offset={offsets.get(tenant)!r} "
                    f"cut={at}"
                    for tenant, at in cut.items()
                    if offsets.get(tenant) != at
                ]
            drive_producers(service, buckets, producers, offsets)
        finally:
            service.shutdown()

    candidate = {
        tenant: _observed(live) for tenant, live in service.sessions.items()
    }
    absent: Tuple[Dict[str, Any], Dict[str, Any]] = ({}, {})
    for tenant in sorted(set(reference) | set(candidate)):
        (want, want_state), (have, have_state) = (
            reference.get(tenant, absent), candidate.get(tenant, absent)
        )
        mismatches += diff_counters(want, have, scope=tenant)
        mismatches += _state_mismatches(want_state, have_state,
                                        f"[{tenant}] state")
    missing, extra = diff_multisets(reference_sigs, candidate_sigs)
    result = OracleResult(
        layer="service", reference="sync", candidate="restarted",
        facts={
            "events": len(events),
            "tenants": tenants,
            "producers": producers,
            "cuts": phases,
            "restores": restores,
            "reference_reports": len(reference_sigs),
            "candidate_reports": len(candidate_sigs),
        },
        missing=missing, extra=extra, mismatches=mismatches,
    )
    return settle(result, strict)
