"""The multi-tenant streaming service: sessions keyed by tenant.

:class:`StreamingService` owns one
:class:`~repro.service.session.TenantSession` per tenant id, building
each session's :class:`~repro.core.analyzer.GretelAnalyzer` from one
shared recipe (same library, config and latency switch for every
tenant — tenants differ only in their stream, exactly as one GRETEL
deployment watches many clouds).  Each analyzer owns a fresh
metadata store, so nothing a tenant reads lies outside its
checkpoint.

Every session has a dedicated pump thread (``docs/service.md``):
``submit()`` only routes and enqueues, so N producer threads ingest
concurrently and tenants drain in parallel.  Session creation,
checkpoint triggering and the stats rollup are thread-safe;
:meth:`flush` is a barrier that analyzes every session's queue.

Durability is opt-in: hand the service a
:class:`~repro.service.checkpoint.CheckpointStore` and it
re-checkpoints a session every ``checkpoint_every`` accepted events
(0 disables the periodic trigger; explicit
:meth:`StreamingService.checkpoint_all` still works).  A restart has
one way back, :meth:`StreamingService.restore_all`, called before the
first event; a session opened any other way starts fresh.  A
checkpoint takes the tenant's analyzer from its pump at an event
boundary and analyzes the tenant's backlog on the
checkpointing thread (the submitter's, for the periodic trigger)
before it saves, so a checkpoint holds analyzer state and no queued
events; the tenant's other producers keep enqueuing meanwhile.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.state import StateError
from repro.openstack.wire import WireEvent
from repro.service.checkpoint import CheckpointStore
from repro.service.session import ReportSink, TenantSession

#: Tenant bucket used when an event carries no tenant id.
DEFAULT_TENANT = "default"


@dataclass
class ServiceStats:
    """Aggregated counters across every live session.

    ``events_accepted`` counts the offers that entered a queue and
    ``events_shed`` those that did not.  ``events_submitted`` is
    derived, not counted: it is their sum, so ``submitted == accepted
    + shed`` holds by construction, and only a count kept by the
    producers themselves can show an offer lost between the two.
    Offers refused because the service was already shut down belong
    to no session; they are counted here (submitted and shed) so no
    drop goes unrecorded.
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
        config: Optional[GretelConfig] = None,
        track_latency: bool = True,
        queue_capacity: int = TenantSession.QUEUE_CAPACITY,
        policy: str = "block",
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 0,
        restore: bool = True,
        async_ingest: bool = True,
    ) -> None:
        # Residue, not options: the ledger's service workload
        # (benchmarks/e2e/workloads.py) still passes these keywords,
        # and a PR may not edit the benchmark it is judged by.  They
        # select nothing — there is one router and one restore — and
        # go with the next benchmark PR.
        if async_ingest is not True:
            raise ValueError(
                "async_ingest accepts only True: every session is a "
                "pump session, and the inline-drain router is "
                "repro.reference.SyncSession (verify_async's reference)"
            )
        if restore is not True:
            raise ValueError(
                "restore accepts only True: a service restores only "
                "through restore_all(), and a session opened without "
                "it starts fresh"
            )
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.library = library
        self._config = config
        self._track_latency = track_latency
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.checkpoints = checkpoint_store
        self.checkpoint_every = checkpoint_every
        self.sessions: Dict[str, TenantSession] = {}
        self.checkpoints_written = 0
        #: Where each restored tenant's stream resumes: every event
        #: its checkpoint had accepted or shed is not offered again.
        self.resume_offsets: Dict[str, int] = {}
        #: Per-tenant ``events_ingested`` high-water mark at the last
        #: checkpoint; the periodic trigger fires on the delta.
        self._checkpoint_seq: Dict[str, int] = {}
        self._sinks: List[ReportSink] = []
        #: Serializes session creation (producers race on first submit
        #: for a new tenant) with ``shutdown()``, and guards the two
        #: fields below.
        self._session_lock = threading.Lock()
        self._shut_down = False
        #: Offers refused because the service was shut down.
        self._rejected = 0
        #: Serializes checkpoint writes and the periodic trigger's
        #: check-then-write (reentrant: the trigger calls checkpoint).
        self._ckpt_lock = threading.RLock()

    # -- session lifecycle ----------------------------------------------

    def build_analyzer(self) -> GretelAnalyzer:
        """A fresh analyzer configured as every session's is, with its
        own empty metadata store (``verify_async`` hands these to its
        reference sessions)."""
        return GretelAnalyzer(
            self.library, config=self._config,
            track_latency=self._track_latency,
        )

    def session(self, tenant: str) -> TenantSession:
        """The live session for ``tenant``, opened fresh on first use.
        Creation is serialized, so racing producers agree on one
        session; a shut-down service opens none and raises
        ``RuntimeError``."""
        live = self.sessions.get(tenant) or self._open(tenant)
        if live is None:
            raise RuntimeError(
                f"service is shut down: no session for {tenant!r}"
            )
        return live

    def _open(self, tenant: str,
              state: Optional[Dict[str, Any]] = None
              ) -> Optional[TenantSession]:
        """Create ``tenant``'s session unless one is live, restoring
        ``state`` when :meth:`restore_all` hands one over; ``None``,
        creating nothing, once the service is shut down."""
        with self._session_lock:
            if self._shut_down:
                return None
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
            if state is not None:
                try:
                    live.restore_state(state)
                except StateError:
                    live.close()  # refused: stop its pump, keep no session
                    raise
                self.resume_offsets[tenant] = (
                    live.events_ingested + live.events_shed
                )
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
        current and future.  Sinks fire on pump threads, and on the
        threads that drain, flush or checkpoint a session."""
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
        everything and opens no session, an offer that raced
        ``shutdown()`` to open one included; those offers are counted
        service-wide, in ``events_submitted`` and ``events_shed``.
        """
        if self._shut_down:
            return self._refuse()
        key = tenant or event.tenant or DEFAULT_TENANT
        live = self.sessions.get(key) or self._open(key)
        if live is None:  # lost the race to shutdown()
            return self._refuse()
        accepted = live.submit(event)
        every = self.checkpoint_every
        # The unlocked pre-check keeps the hot path one subtraction.
        if accepted and every and (
            live.events_ingested - self._checkpoint_seq[key] >= every
        ):
            self._checkpoint_if_due(key, live)
        return accepted

    def _refuse(self) -> bool:
        """Count one offer a shut-down service refused; False."""
        with self._session_lock:
            self._rejected += 1
        return False

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
        silently creating an empty session.
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
            state = live.snapshot_state()
            # The document's watermark: producers may have enqueued
            # more while the snapshot analyzed its backlog.
            seq = state["events_ingested"]
            self.checkpoints.save(tenant, state, seq=seq)
            self.checkpoints_written += 1
            self._checkpoint_seq[tenant] = seq

    def restore_all(self) -> int:
        """Resurrect every tenant with a persisted checkpoint: the
        service's only restore.

        A restarting replay calls this before its first event, so each
        restored tenant's producer starts at
        :attr:`resume_offsets`, and a tenant that never reappears in the
        remaining stream still gets its pending analysis finished by
        the final :meth:`flush`.  Each checkpoint file is parsed once
        (:meth:`~repro.service.checkpoint.CheckpointStore.load_all`),
        and a directory holding one it cannot read is refused with
        :class:`StateError` before any session is restored.  Returns
        how many sessions were restored.
        """
        if self.checkpoints is None:
            raise ValueError("service has no checkpoint store")
        before = self.sessions_restored
        for tenant, state in self.checkpoints.load_all().items():
            if self._open(tenant, state) is None:
                raise RuntimeError("service is shut down: it restores "
                                   "no session")
        return self.sessions_restored - before

    @property
    def sessions_restored(self) -> int:
        """Sessions rehydrated from a checkpoint so far."""
        return len(self.resume_offsets)

    def checkpoint_all(self) -> int:
        """Persist every live session; returns how many were written."""
        live = self._live_sessions()
        for session in sorted(live, key=lambda s: s.tenant):
            self.checkpoint(session.tenant)
        return len(live)

    # -- draining ---------------------------------------------------------

    def drain(self) -> int:
        """Analyze what every session has queued, on this thread;
        returns the events analyzed meanwhile, by the pumps or by it."""
        return sum(live.quiesce() for live in self._live_sessions())

    def flush(self) -> None:
        """Drain and flush every session (end of replay): a barrier
        that takes each analyzer from its pump, analyzes the queue and
        flushes the analyzer on this thread."""
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
        failure (a dead session re-raising out of its flush) must not
        strand the others: **every** session is closed, and only
        then is the first failure raised.
        """
        with self._session_lock:
            if self._shut_down:
                return
            self._shut_down = True
            sessions = list(self.sessions.values())
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
            events_shed=self._rejected,
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
