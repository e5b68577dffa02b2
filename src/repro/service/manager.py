"""The multi-tenant streaming service: sessions keyed by tenant.

:class:`StreamingService` owns one
:class:`~repro.service.session.TenantSession` per tenant id, building
each session's :class:`~repro.core.analyzer.GretelAnalyzer` from one
shared recipe (same library, metadata store, config and latency
switch for every tenant — tenants differ only in their stream,
exactly as one GRETEL deployment watches many clouds).

Every session has a dedicated pump thread (``docs/service.md``):
``submit()`` only routes and enqueues, so N producer threads ingest
concurrently and tenants drain in parallel.  Session creation,
checkpoint triggering and the stats rollup are thread-safe;
:meth:`flush` is a barrier that quiesces every pump.

Durability is opt-in: hand the service a
:class:`~repro.service.checkpoint.CheckpointStore` and it (a)
rehydrates any tenant that has a persisted checkpoint the first time
that tenant appears (unless built with ``restore=False``; see also
:meth:`StreamingService.restore_all`), and (b) re-checkpoints a
session every ``checkpoint_every`` accepted events (0 disables the
periodic trigger; explicit :meth:`StreamingService.checkpoint_all`
still works).  Because a session's state includes its ingest queue —
and a checkpoint pauses the tenant's pump at an event boundary — a
checkpoint never needs to force a drain first.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.state import StateError
from repro.monitoring.store import MetadataStore
from repro.openstack.wire import WireEvent
from repro.service.checkpoint import CheckpointStore
from repro.service.session import (
    ReportSink, TenantSession, _AtomicCounter,
)

#: Tenant bucket used when an event carries no tenant id.
DEFAULT_TENANT = "default"


@dataclass
class ServiceStats:
    """Aggregated counters across every live session.

    ``events_submitted`` counts every front-door offer;
    ``events_accepted`` only those that entered a queue.  The shed
    rate is their difference (``events_shed``) — no cross-referencing
    of per-session stats required.  Offers refused because the
    service was already shut down belong to no session; they are
    counted here (submitted and shed) so no drop goes unrecorded.
    """

    tenants: int = 0
    events_submitted: int = 0
    events_accepted: int = 0
    events_analyzed: int = 0
    events_shed: int = 0
    queued: int = 0
    reports: int = 0
    checkpoints_written: int = 0
    #: What the store's saves cost, cumulative: the size of every
    #: checkpoint written and the time its caller was stalled.
    checkpoint_bytes: int = 0
    checkpoint_seconds: float = 0.0
    sessions_restored: int = 0

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


class StreamingService:
    """Per-tenant analyzer sessions behind one submit() front door."""

    def __init__(
        self,
        library: FingerprintLibrary,
        *,
        store: Optional[MetadataStore] = None,
        config: Optional[GretelConfig] = None,
        track_latency: bool = True,
        queue_capacity: int = TenantSession.QUEUE_CAPACITY,
        policy: str = "block",
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 0,
        restore: bool = True,
        async_ingest: bool = True,
    ) -> None:
        # Residue, not an option: the ledger's service workload
        # (benchmarks/e2e/workloads.py) still passes this keyword, and
        # a PR may not edit the benchmark it is judged by.  It selects
        # nothing — there is one router — and goes with the next
        # benchmark PR.
        if async_ingest is not True:
            raise ValueError(
                "async_ingest accepts only True: every session is a "
                "pump session, and the inline-drain router is "
                "repro.reference.SyncSession (verify_async's reference)"
            )
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.library = library
        self._store = store
        self._config = config
        self._track_latency = track_latency
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.checkpoints = checkpoint_store
        self.checkpoint_every = checkpoint_every
        self.restore_on_start = restore
        self.sessions: Dict[str, TenantSession] = {}
        self.checkpoints_written = 0
        self.sessions_restored = 0
        #: Per-tenant ``events_ingested`` high-water mark at the last
        #: checkpoint; the periodic trigger fires on the delta.
        self._checkpoint_seq: Dict[str, int] = {}
        self._sinks: List[ReportSink] = []
        self._shut_down = False
        #: Offers refused after shutdown (lock-free: the reject path
        #: must stay as cheap as the shed path).
        self._rejected = _AtomicCounter()
        #: Serializes lazy session creation (producers race on first
        #: submit for a new tenant).
        self._session_lock = threading.Lock()
        #: Serializes checkpoint writes and the periodic trigger's
        #: check-then-write (reentrant: the trigger calls checkpoint).
        self._ckpt_lock = threading.RLock()

    # -- session lifecycle ----------------------------------------------

    def build_analyzer(self) -> GretelAnalyzer:
        """A fresh analyzer configured as every session's is
        (``verify_async`` hands these to its reference sessions)."""
        return GretelAnalyzer(
            self.library, store=self._store, config=self._config,
            track_latency=self._track_latency,
        )

    def session(self, tenant: str) -> TenantSession:
        """The live session for ``tenant``, created (and restored from
        its checkpoint, if one is persisted) on first use.  Creation
        is serialized, so racing producers agree on one session."""
        live = self.sessions.get(tenant)
        if live is not None:
            return live
        with self._session_lock:
            live = self.sessions.get(tenant)
            if live is not None:
                return live
            live = TenantSession(
                tenant,
                self.build_analyzer(),
                queue_capacity=self.queue_capacity,
                policy=self.policy,
            )
            for sink in self._sinks:
                live.on_report(sink)
            if self.checkpoints is not None and self.restore_on_start:
                try:
                    state = self.checkpoints.load(tenant)
                    if state is not None:
                        live.restore_state(state)
                        self.sessions_restored += 1
                except StateError:
                    live.close()  # refused: stop its pump, keep no session
                    raise
            self._checkpoint_seq[tenant] = live.events_ingested
            self.sessions[tenant] = live
        return live

    def _live_sessions(self) -> List[TenantSession]:
        """A stable view of the sessions (producers may be creating
        more while we iterate)."""
        with self._session_lock:
            return list(self.sessions.values())

    def on_report(self, sink: ReportSink) -> None:
        """Register a ``(tenant, report)`` consumer on every session —
        current and future.  Sinks fire on pump threads."""
        self._sinks.append(sink)
        for live in self._live_sessions():
            live.on_report(sink)

    # -- ingest ----------------------------------------------------------

    def submit(
        self, event: WireEvent, *, tenant: Optional[str] = None
    ) -> bool:
        """Route one event to its tenant's session; False iff shed.

        The explicit ``tenant`` overrides the event's own tenant id
        (replay tools re-bucket streams this way); events with neither
        land in the ``"default"`` session.  A shut-down service sheds
        everything (and creates no sessions); those offers are counted
        service-wide, in ``events_submitted`` and ``events_shed``.
        """
        if self._shut_down:
            self._rejected.bump()
            return False
        key = tenant or event.tenant or DEFAULT_TENANT
        try:
            live = self.sessions[key]
        except KeyError:
            live = self.session(key)
        accepted = live.submit(event)
        every = self.checkpoint_every
        # The unlocked pre-check keeps the hot path one subtraction.
        if accepted and every and (
            live.events_ingested - self._checkpoint_seq[key] >= every
        ):
            self._checkpoint_if_due(key, live)
        return accepted

    def pump(self, events: Any, *, tenant: Optional[str] = None) -> int:
        """Submit an iterable of events; returns the accepted count."""
        accepted = 0
        for event in events:
            if self.submit(event, tenant=tenant):
                accepted += 1
        return accepted

    # -- durability -------------------------------------------------------

    def _checkpoint_if_due(self, key: str, live: TenantSession) -> None:
        """Fire the periodic checkpoint once a tenant's accepted-event
        delta crosses ``checkpoint_every`` (``submit`` pre-checks it
        unlocked).  The locked re-check makes racing producers write
        one checkpoint, not several."""
        with self._ckpt_lock:
            due = live.events_ingested - self._checkpoint_seq[key]
            if due >= self.checkpoint_every:
                self.checkpoint(key)

    def checkpoint(self, tenant: str) -> None:
        """Persist one tenant's session state now.

        Only a tenant that actually has a live session can be
        checkpointed; an unknown tenant raises ``KeyError`` instead of
        silently creating (and checkpoint-restoring) an empty session.
        """
        if self.checkpoints is None:
            raise ValueError("service has no checkpoint store")
        try:
            live = self.sessions[tenant]
        except KeyError:
            raise KeyError(
                f"unknown tenant {tenant!r}: no live session to "
                "checkpoint (submit to it first)"
            ) from None
        with self._ckpt_lock:
            self.checkpoints.save(
                tenant, live.snapshot_state(), seq=live.events_ingested
            )
            self.checkpoints_written += 1
            self._checkpoint_seq[tenant] = live.events_ingested

    def restore_all(self) -> int:
        """Resurrect every tenant with a persisted checkpoint now.

        Session restore is otherwise lazy (first ``submit`` for the
        tenant); a restarting replay calls this up front so tenants
        that never reappear in the remaining stream still get their
        pending analysis finished by the final :meth:`flush`.  Returns
        how many sessions were restored.
        """
        if self.checkpoints is None:
            raise ValueError("service has no checkpoint store")
        before = self.sessions_restored
        for tenant in self.checkpoints.tenants():
            self.session(tenant)
        return self.sessions_restored - before

    def checkpoint_all(self) -> int:
        """Persist every live session; returns how many were written."""
        live = self._live_sessions()
        for session in sorted(live, key=lambda s: s.tenant):
            self.checkpoint(session.tenant)
        return len(live)

    # -- draining ---------------------------------------------------------

    def drain(self) -> int:
        """Block until every pump has emptied its queue; returns the
        events the pumps analyzed while waiting."""
        return sum(live.quiesce() for live in self._live_sessions())

    def flush(self) -> None:
        """Drain and flush every session (end of replay): a barrier
        that quiesces each pump, then flushes its analyzer with the
        pump parked."""
        for live in self._live_sessions():
            live.flush()

    def shutdown(self) -> None:
        """Flush every session, checkpoint it if a store is attached,
        and stop its pump: the service's one terminal verb.

        Terminal and idempotent (:meth:`flush` is the barrier that
        keeps sessions usable).  The order matters with live
        producers: **seal first** (so queues stop growing and blocked
        producers wake), then per session flush/quiesce, checkpoint,
        stop the pump.  One tenant's
        failure (a dead pump re-raising out of its flush) must not
        strand the others: **every** session is closed, and only
        then is the first failure raised.
        """
        if self._shut_down:
            return
        self._shut_down = True
        sessions = self._live_sessions()
        for live in sessions:
            live.seal()
        failures: List[Exception] = []
        for live in sessions:
            try:
                live.flush()
                if self.checkpoints is not None:
                    self.checkpoint(live.tenant)
            except Exception as error:
                failures.append(error)
            finally:
                live.close()
        if failures:
            raise failures[0]

    # -- observability ----------------------------------------------------

    @property
    def events_submitted(self) -> int:
        """Every front-door offer, accepted or shed (all sessions,
        plus offers refused after shutdown)."""
        return self.stats().events_submitted

    @property
    def events_accepted(self) -> int:
        """Offers that actually entered a session queue."""
        return self.stats().events_accepted

    def stats(self) -> ServiceStats:
        stats = ServiceStats(
            events_shed=self._rejected.value,
            checkpoints_written=self.checkpoints_written,
            sessions_restored=self.sessions_restored,
        )
        if self.checkpoints is not None:
            stats.checkpoint_bytes = self.checkpoints.bytes_written
            stats.checkpoint_seconds = round(
                self.checkpoints.save_seconds, 6
            )
        for live in self._live_sessions():
            stats.tenants += 1
            stats.events_accepted += live.events_ingested
            stats.events_analyzed += live.events_analyzed
            stats.events_shed += live.events_shed
            stats.queued += live.queued
            stats.reports += live.reports_emitted
        stats.events_submitted = (
            stats.events_accepted + stats.events_shed
        )
        return stats
