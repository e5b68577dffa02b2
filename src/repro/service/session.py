"""One tenant's long-lived analyzer session.

A :class:`TenantSession` wraps one serial
:class:`~repro.core.analyzer.GretelAnalyzer`
with the three things a standing service needs that a batch drain
does not: a **bounded ingest queue**, an **explicit backpressure
policy** (``"block"`` / ``"shed"``), and **bounded retention** (after
every drain the analyzer's report log is handed off, so session
memory is bounded by α + queue capacity, not by events ingested).

Every session is a **pump session** (``docs/service.md``): a
dedicated daemon *pump thread* drains a thread-safe bounded queue in
``DEFAULT_PUMP_CHUNK``-event claims.  ``"block"`` producers wait on a
condition variable until the pump frees space (real backpressure —
the producer sleeps instead of analyzing someone else's backlog);
``"shed"`` rejections are counted under the same mutex that counts
the accepted events.

The analyzer has **one owner at a time**, the holder of the
session's analysis lock.  The pump holds it while it analyzes a
claimed chunk; a control verb — :meth:`parked`, :meth:`quiesce`,
:meth:`flush`, :meth:`snapshot_state`, :meth:`restore_state`,
:meth:`close` — holds it for the whole verb, and the pump claims
nothing while a verb holds or waits for it.  A claimed chunk is
always analyzed to completion, so every hand-over is an event
boundary.  A verb that needs the queue empty takes the backlog in one
hold of the session mutex and analyzes it itself, in order, while
producers keep enqueuing behind it; a snapshot is therefore the
analyzer's state after exactly the ``events_ingested`` it records.
Since events leave the queue in order and one owner analyzes them at
a time, per-tenant event order — and therefore the per-tenant report
multiset — is exactly that of the single-threaded inline router this
one replaced (:class:`repro.reference.session.SyncSession`, now the
reference half of :func:`repro.service.async_oracle.verify_async`).

Reports reach every registered sink at emit time, on the thread that
owns the analyzer (:meth:`on_report`): the pump, or the caller of a
verb, for the backlog it analyzes and the snapshots a flush freezes.
The session keeps none of them.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager, suppress
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Tuple,
)

from repro.core.analyzer import GretelAnalyzer
from repro.core.reports import FaultReport
from repro.core.state import StateError, decode_key, read_key
from repro.openstack.wire import WireEvent

#: Accepted backpressure policies.
POLICIES = ("block", "shed")

#: Events the pump claims per lock acquisition.  Also the control
#: verbs' latency bound: a verb waits at most one chunk for the
#: analyzer.
DEFAULT_PUMP_CHUNK = 512

#: Seconds between defensive re-checks while parked on a condition.
#: Every state change notifies its waiters; the timeout only bounds
#: the damage of a hypothetically missed wakeup.
_WAIT_TICK = 0.5

#: Seconds to wait for the pump thread to finish at close before
#: giving up (it is a daemon thread either way).
PUMP_JOIN_TIMEOUT = 120.0

ReportSink = Callable[[str, FaultReport], None]


class TenantSession:
    """Bounded-queue streaming session for one tenant (one cloud)."""

    #: Default depth, two pump claims.  A verb that drains (a
    #: checkpoint, a flush) analyzes what is queued on its caller's
    #: thread, so depth bounds that extra work: one queue's analysis.
    QUEUE_CAPACITY = 2 * DEFAULT_PUMP_CHUNK

    def __init__(
        self,
        tenant: str,
        analyzer: GretelAnalyzer,
        *,
        queue_capacity: int = QUEUE_CAPACITY,
        policy: str = "block",
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r} "
                f"(expected one of {POLICIES})"
            )
        self.tenant = tenant
        self.analyzer = analyzer
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.pump_chunk = min(DEFAULT_PUMP_CHUNK, queue_capacity)
        self.queue: Deque[WireEvent] = deque()
        self.events_ingested = 0
        self.events_analyzed = 0
        #: Offers dropped: shed policy, sealed, or dead.
        self.events_shed = 0
        self.reports_emitted = 0
        self._sinks: List[ReportSink] = []
        analyzer.on_report(self._on_report)
        # Coordination.  One mutex guards the queue, the counters and
        # the flags below; two conditions on it separate the wakeup
        # channels (producers waiting for space, the pump waiting for
        # work or for the verbs to finish).  Each is notified only
        # when someone may be waiting on it.
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._wake = threading.Condition(self._lock)
        #: Producers parked on ``_not_full``.
        self._full_waiters = 0
        #: The pump is parked on ``_wake`` for lack of work.  The
        #: producer that wakes it clears the flag, so one wait costs
        #: one notify however many events arrive meanwhile.
        self._pump_waiting = False
        #: The analyzer's owner: the pump for one chunk, or a control
        #: verb for the whole verb (reentrant: verbs nest).
        self._analysis = threading.RLock()
        #: Control verbs holding or waiting for ``_analysis``; the
        #: pump claims no chunk while it is non-zero.
        self._controls = 0
        self._sealed = False
        self._stopping = False
        #: The analysis failure that killed the session, if any.
        self._error: Optional[BaseException] = None
        self._pump = threading.Thread(
            target=self._pump_loop,
            daemon=True,
            name=f"gretel-pump-{tenant}",
        )
        self._pump.start()

    # -- report fan-out -------------------------------------------------

    def on_report(self, sink: ReportSink) -> None:
        """Register a ``(tenant, report)`` consumer.

        Sinks fire on the thread that owns the analyzer: the pump, or
        the caller of :meth:`quiesce`, :meth:`flush`,
        :meth:`snapshot_state` or :meth:`close`.  A sink shared across
        tenants must be thread-safe (``list.append`` is).
        """
        self._sinks.append(sink)

    def _on_report(self, report: FaultReport) -> None:
        self.reports_emitted += 1
        for sink in self._sinks:
            sink(self.tenant, report)

    # -- ingest ---------------------------------------------------------

    def submit(self, event: WireEvent) -> bool:
        """Offer one event; returns False iff it was shed (or sealed).

        ``"block"`` waits on a condition variable until the pump (or a
        draining verb) frees space — the stall *is* the backpressure;
        ``"shed"`` rejects a full queue.  A sealed or dead session
        sheds everything.  Every offer is one short hold of the session
        mutex, which counts it accepted or shed, and it notifies the
        pump only when the pump is waiting for work.
        """
        capacity = self.queue_capacity
        queue = self.queue
        with self._lock:
            if len(queue) >= capacity and self.policy == "block":
                self._full_waiters += 1
                try:
                    while not self._sealed and len(queue) >= capacity:
                        self._not_full.wait(_WAIT_TICK)
                finally:
                    self._full_waiters -= 1
            if self._sealed or len(queue) >= capacity:
                self.events_shed += 1
                return False
            queue.append(event)
            self.events_ingested += 1
            if self._pump_waiting:
                self._pump_waiting = False
                self._wake.notify()
        return True

    # -- the analyzer's owners -------------------------------------------

    def _pump_loop(self) -> None:
        """The per-tenant consumer: claim a chunk, analyze, repeat.

        The pump takes the analyzer in the same hold of the mutex that
        claims a chunk, and lets it go in the hold that counts the
        chunk analyzed, so a verb that gets the analyzer next sees
        every claimed event analyzed and counted.  The chunk is
        claimed with one C call, so the mutex is held for O(1)
        bytecodes, once per chunk.
        """
        queue = self.queue
        popleft = deque.popleft
        analysis = self._analysis
        chunk: List[WireEvent] = []
        while True:
            with self._lock:
                if chunk:
                    self.events_analyzed += len(chunk)
                    analysis.release()
                while not self._stopping and (self._controls or not queue):
                    # Producers wake an idle pump; the last verb out
                    # wakes one it held back.
                    self._pump_waiting = not self._controls
                    self._wake.wait(_WAIT_TICK)
                    self._pump_waiting = False
                if self._stopping:
                    return
                # Never blocks: a verb counts itself in ``_controls``
                # before it takes the analyzer and uncounts itself only
                # after it lets go.
                analysis.acquire()
                claim = min(len(queue), self.pump_chunk)
                chunk = list(map(popleft, itertools.repeat(queue, claim)))
                if self._full_waiters:
                    self._not_full.notify_all()
            try:
                self._pump_step(chunk)
            except BaseException as error:  # noqa: B036 - no silent death
                self._die(error)
                analysis.release()
                return

    def _pump_step(self, chunk: List[WireEvent]) -> None:
        """Analyze one chunk of the queue, in order, on the owner's
        thread (the pump's, or a draining verb's).

        The documented tamper seam: the oracles' negative tests patch
        this to drop or duplicate an event and assert the oracle
        trips.
        """
        self.analyzer.feed(chunk)
        self.analyzer.shed_logs()

    def _die(self, error: BaseException) -> None:
        """Record an analysis failure and stop the session: the
        analyzer may hold a half-analyzed chunk, so it takes no more
        events (every later submit sheds) and the control verbs
        re-raise the failure."""
        with self._lock:
            self._error = error
            self._sealed = True
            self._stopping = True
            self._not_full.notify_all()
            self._wake.notify_all()

    @contextmanager
    def _owned(self) -> Iterator[None]:
        """Own the analyzer for the block, waiting at most for the
        chunk the pump is analyzing; the pump claims nothing until the
        last verb lets go."""
        with self._lock:
            self._controls += 1
        try:
            with self._analysis:
                yield
        finally:
            with self._lock:
                self._controls -= 1
                if not self._controls:
                    self._wake.notify()

    def _drain(self) -> Tuple[int, int]:
        """Analyze the backlog on the calling thread, which owns the
        analyzer; returns ``events_ingested`` and ``events_shed`` as
        of the backlog's take, so the analyzer has then analyzed
        exactly that many events.

        The backlog is taken in one hold of the mutex, so producers
        refill the queue while it is analyzed, and never wait for it.
        A dead session's queue is left as it is.  A failure kills the
        session (:meth:`_die`) and is raised.
        """
        with self._lock:
            counts = (self.events_ingested, self.events_shed)
            if self._error is not None:
                return counts
            backlog = list(self.queue)
            self.queue.clear()
            if self._full_waiters:
                self._not_full.notify_all()
        if backlog:
            try:
                self._pump_step(backlog)
            except BaseException as error:
                self._die(error)
                raise
            with self._lock:
                self.events_analyzed += len(backlog)
        return counts

    # -- control verbs ----------------------------------------------------

    @contextmanager
    def parked(self) -> Iterator[None]:
        """Own the analyzer for the block: the pump stops at an event
        boundary and claims nothing until the block ends.

        Re-raises an earlier analysis failure on the calling thread.
        Nestable with the other verbs.  Producers may still enqueue
        (and block on a full queue); nothing is analyzed.
        """
        with self._owned():
            if self._error is not None:
                raise RuntimeError(
                    f"tenant {self.tenant!r} analyzer failed"
                ) from self._error
            yield

    def quiesce(self) -> int:
        """Analyze what is queued now, on the calling thread; returns
        the events analyzed since the call (by the pump or by it).

        The per-tenant half of the service-wide drain/flush barrier.
        A dead session counts as quiesced: its failure, this call's
        own included, surfaces through :meth:`parked`, :meth:`flush`
        and :meth:`snapshot_state`.
        """
        before = self.events_analyzed
        with self._owned(), suppress(Exception):
            self._drain()
        return self.events_analyzed - before

    def flush(self) -> None:
        """Analyze the queue, then freeze pending pipeline snapshots,
        all on the calling thread while it owns the analyzer."""
        with self.parked():
            self._drain()
            self.analyzer.flush()
            # Hand off the report log (already fanned out).
            self.analyzer.shed_logs()

    def seal(self) -> None:
        """Close the front door: every later submit is counted shed.

        Blocked producers wake and return ``False``.  Events already
        accepted stay queued and will still be analyzed.  Idempotent.
        """
        with self._lock:
            self._sealed = True
            self._not_full.notify_all()

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def pump_alive(self) -> bool:
        """Whether the pump thread is running."""
        return self._pump.is_alive()

    def close(self) -> None:
        """Seal, analyze what was accepted, stop the pump, release the
        analyzer.  Idempotent, and raises no analysis failure."""
        with self._owned():
            self.seal()
            self.quiesce()
            with self._lock:
                self._stopping = True
                self._wake.notify_all()
            self._pump.join(PUMP_JOIN_TIMEOUT)
            self.analyzer.close()

    @property
    def queued(self) -> int:
        """Events accepted but not yet analyzed."""
        return len(self.queue)

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Freeze the session JSON-serializably, backlog analyzed first.

        Owning the analyzer, the calling thread analyzes what is
        queued (at most ``queue_capacity`` events), so the document is
        the analyzer's state after exactly the ``events_ingested`` it
        records, and carries no queue; producers keep enqueuing behind
        the backlog meanwhile.  Reports that backlog publishes fire on
        this thread.  Reports are outputs, not in-flight state; the
        analyzer state carries everything needed to finish the stream
        bit-identically.  The queue's capacity and policy are the
        restoring service's to choose, and stay out: every key
        written here is one :meth:`restore_state` reads.
        """
        with self.parked():
            ingested, shed = self._drain()
            return {
                "tenant": self.tenant,
                "events_ingested": ingested,
                "events_shed": shed,
                "reports_emitted": self.reports_emitted,
                "analyzer": self.analyzer.snapshot_state(),
            }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a freshly built session for the same tenant.

        Every field is read before any is installed, and the analyzer
        restores all or nothing: a refusal leaves the session as it
        was.  The restored session has analyzed all it ingested, so
        anything this session had queued is dropped.  The envelope's
        tag covers this document.
        """
        tenant = read_key(state, "tenant", str)
        if tenant != self.tenant:
            raise StateError(
                f"session state is for tenant {tenant!r}, this session "
                f"is {self.tenant!r}", "tenant",
            )
        ingested, shed, emitted = [
            read_key(state, name, int)
            for name in ("events_ingested", "events_shed",
                         "reports_emitted")
        ]
        with self.parked():
            decode_key(state, "analyzer", self.analyzer.restore_state)
            with self._lock:
                self.queue.clear()
                self.events_ingested = ingested
                self.events_analyzed = ingested
                self.events_shed = shed
                self.reports_emitted = emitted
                if self._full_waiters:
                    self._not_full.notify_all()
