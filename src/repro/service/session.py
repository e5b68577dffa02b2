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
``"shed"`` rejections are counted lock-free (one GIL-atomic C-level
increment, no lock acquired on the reject path).  Because each tenant
keeps exactly one consumer thread, per-tenant event order — and
therefore the per-tenant report multiset — is exactly that of the
single-threaded inline router this one replaced
(:class:`repro.reference.session.SyncSession`, now the reference half
of :func:`repro.service.async_oracle.verify_async`).

The control verbs — :meth:`parked`, :meth:`quiesce`, :meth:`seal`,
:meth:`close` — are serialized by a per-session state lock, and
every point where the pump can park is an event boundary: no event
is ever half-analyzed, so ``snapshot_state`` / ``restore_state`` park
the pump around the state transfer and checkpointing a live tenant
is race-free.

Reports reach every registered sink at emit time, on the *pump
thread* (:meth:`on_report`); the session keeps none of them.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional,
    Tuple, cast,
)

from repro.core.analyzer import GretelAnalyzer
from repro.core.reports import FaultReport
from repro.core.state import (
    StateError,
    decode_events,
    decode_key,
    encode_events,
    read_key,
)
from repro.openstack.wire import WireEvent

#: Accepted backpressure policies.
POLICIES = ("block", "shed")

#: Events the pump claims per lock acquisition.  Also the pause
#: latency bound: a pause request waits at most one chunk.
DEFAULT_PUMP_CHUNK = 512

#: Seconds between defensive re-checks while parked on a condition.
#: Every state change notifies its waiters; the timeout only bounds
#: the damage of a hypothetically missed wakeup.
_WAIT_TICK = 0.5

#: Seconds to wait for the pump thread to finish at close before
#: giving up (it is a daemon thread either way).
PUMP_JOIN_TIMEOUT = 120.0

ReportSink = Callable[[str, FaultReport], None]


class _AtomicCounter:
    """A GIL-atomic increment-only counter (the lock-free shed path).

    ``itertools.count.__next__`` is a single C call — two racing
    :meth:`bump` calls cannot interleave under CPython's GIL — and
    ``__reduce__`` exposes the pending value without consuming it.
    No lock is ever acquired.
    """

    __slots__ = ("_count",)

    def __init__(self, start: int = 0) -> None:
        self._count = itertools.count(start)

    def bump(self) -> None:
        next(self._count)

    @property
    def value(self) -> int:
        reduced = cast(
            Tuple[Any, Tuple[int, ...]], self._count.__reduce__()
        )
        return reduced[1][0]


class TenantSession:
    """Bounded-queue streaming session for one tenant (one cloud)."""

    #: Default depth, two pump claims: the queue is checkpointed state,
    #: so depth is backlog a loaded save serializes (docs/service.md).
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
        self._shed = _AtomicCounter()
        self.reports_emitted = 0
        self._sinks: List[ReportSink] = []
        self._sealed = False
        analyzer.on_report(self._on_report)
        # Pump machinery.  One mutex guards the queue and the
        # ingest/analyzed counters; three conditions on it separate
        # the wakeup channels (producers waiting for space, the pump
        # waiting for work, control threads waiting for idle/parked).
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        #: Serializes the control verbs (parked/snapshot/restore/
        #: flush/close) against each other across threads.
        self._state_lock = threading.RLock()
        self._pump_busy = False
        self._pause_requests = 0
        self._paused = False
        self._stopping = False
        self._pump_error: Optional[BaseException] = None
        self._pump = threading.Thread(
            target=self._pump_loop,
            daemon=True,
            name=f"gretel-pump-{tenant}",
        )
        self._pump.start()

    # -- report fan-out -------------------------------------------------

    def on_report(self, sink: ReportSink) -> None:
        """Register a ``(tenant, report)`` consumer.

        Sinks fire on the pump thread; a sink shared across tenants
        must be thread-safe (``list.append`` is).
        """
        self._sinks.append(sink)

    def _on_report(self, report: FaultReport) -> None:
        self.reports_emitted += 1
        for sink in self._sinks:
            sink(self.tenant, report)

    # -- ingest ---------------------------------------------------------

    def submit(self, event: WireEvent) -> bool:
        """Offer one event; returns False iff it was shed (or sealed).

        ``"block"`` waits on a condition variable until the pump
        frees space — the stall *is* the backpressure; ``"shed"``
        rejects a full queue without touching the lock (one
        GIL-atomic counter bump).  A sealed or pump-dead session
        sheds everything.
        """
        capacity = self.queue_capacity
        if self._sealed or (
            self.policy == "shed" and len(self.queue) >= capacity
        ):
            # Lock-free reject path: reading a deque's length and
            # bumping the shed counter are both single C calls.
            self._shed.bump()
            return False
        with self._not_full:
            while (
                self.policy == "block"
                and len(self.queue) >= capacity
                and not self._sealed
            ):
                self._not_full.wait(_WAIT_TICK)
            # Sealed while waiting, or ("shed") filled since the
            # lock-free look.
            if self._sealed or len(self.queue) >= capacity:
                self._shed.bump()
                return False
            self.queue.append(event)
            self.events_ingested += 1
            self._wake.notify()
        return True

    def flush(self) -> None:
        """Drain the queue, then freeze pending pipeline snapshots.

        Quiesces the pump, parks it, flushes the analyzer on the
        calling thread, and resumes — so a flush never interleaves
        with in-flight analysis.
        """
        with self._state_lock:
            self.quiesce()
            with self.parked():
                self.analyzer.flush()
                # Hand off the report log (already fanned out).
                self.analyzer.shed_logs()

    # -- pump machinery --------------------------------------------------

    def _pump_loop(self) -> None:
        """The per-tenant consumer: claim a chunk, analyze, repeat.

        The single consumer thread is what preserves per-tenant event
        order; a claimed chunk is always analyzed to completion, so
        every park point is an event boundary.
        """
        queue = self.queue
        while True:
            with self._lock:
                self._pump_busy = False
                self._idle.notify_all()
                while True:
                    if self._pause_requests and not self._stopping:
                        self._paused = True
                        self._idle.notify_all()
                        self._wake.wait(_WAIT_TICK)
                        continue
                    self._paused = False
                    if queue or self._stopping:
                        break
                    self._wake.wait(_WAIT_TICK)
                if not queue and self._stopping:
                    self._idle.notify_all()
                    return
                claim = min(len(queue), self.pump_chunk)
                chunk = [queue.popleft() for _ in range(claim)]
                self._pump_busy = True
                self._not_full.notify_all()
            try:
                self._pump_step(chunk)
            except BaseException as error:  # noqa: B036 - no silent death
                with self._lock:
                    self._pump_error = error
                    self._sealed = True
                    self._stopping = True
                    self._pump_busy = False
                    self._paused = False
                    self._not_full.notify_all()
                    self._idle.notify_all()
                return
            with self._lock:
                self.events_analyzed += len(chunk)

    def _pump_step(self, chunk: List[WireEvent]) -> None:
        """Analyze one claimed chunk on the pump thread.

        The documented tamper seam: the ``verify_async`` negative
        tests patch this to drop or duplicate an event and assert the
        oracle trips.
        """
        self.analyzer.feed(chunk)
        self.analyzer.shed_logs()

    @contextmanager
    def parked(self) -> Iterator[None]:
        """Hold the pump parked at an event boundary for the block.

        Blocks until the pump is parked, and re-raises a pump-thread
        failure on the calling thread.  Nestable, and serialized with
        the other control verbs by the per-session state lock.  While
        parked, producers may still enqueue (and block on a full
        queue); the pump claims nothing.
        """
        with self._state_lock:
            with self._lock:
                self._pause_requests += 1
                self._wake.notify_all()
                while not (
                    (self._paused or self._stopping)
                    and not self._pump_busy
                ):
                    self._idle.wait(_WAIT_TICK)
            try:
                if self._pump_error is not None:
                    raise RuntimeError(
                        f"tenant {self.tenant!r} pump thread died"
                    ) from self._pump_error
                yield
            finally:
                with self._lock:
                    self._pause_requests -= 1
                    if not self._pause_requests:
                        self._wake.notify_all()

    def quiesce(self) -> int:
        """Block until the queue is empty and the pump is idle;
        returns the events analyzed while waiting.

        The per-tenant half of the service-wide drain/flush barrier.
        A sealed-and-stopped (or dead) pump counts as quiesced — the
        error, if any, surfaces via :meth:`flush` / :meth:`parked`.
        """
        with self._lock:
            before = self.events_analyzed
            while (self.queue or self._pump_busy) and not (
                self._stopping and self._pump_error is not None
            ):
                if self._stopping and not self._pump.is_alive() \
                        and not self._pump_busy:
                    break
                self._idle.wait(_WAIT_TICK)
            return self.events_analyzed - before

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
        """Seal, drain what was accepted, stop the pump, release the
        analyzer.  Idempotent."""
        with self._state_lock:
            with self._lock:
                self._sealed = True
                self._stopping = True
                self._wake.notify_all()
                self._not_full.notify_all()
            self._pump.join(PUMP_JOIN_TIMEOUT)
            self.analyzer.close()

    @property
    def events_shed(self) -> int:
        """Events dropped (shed policy, sealed, or pump-dead)."""
        return self._shed.value

    @property
    def queued(self) -> int:
        """Events accepted but not yet analyzed."""
        return len(self.queue)

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Freeze the session — queue included — JSON-serializably.

        The pump is paused around the snapshot (an event boundary),
        so no drain is needed first.  Reports are outputs, not
        in-flight state; the analyzer state carries everything needed
        to finish the stream bit-identically.
        """
        with self.parked():
            # Producers still enqueue while the pump is parked.
            with self._lock:
                queued = list(self.queue)
                ingested = self.events_ingested
                analyzed = self.events_analyzed
            return {
                "tenant": self.tenant,
                "policy": self.policy,
                "queue_capacity": self.queue_capacity,
                "queue": encode_events(queued),
                "events_ingested": ingested,
                "events_analyzed": analyzed,
                "events_shed": self.events_shed,
                "reports_emitted": self.reports_emitted,
                "analyzer": self.analyzer.snapshot_state(),
            }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a freshly built session for the same tenant.

        Every field is read before any is installed, and the analyzer
        restores all or nothing: a refusal leaves the session as it
        was.  The envelope's tag covers this document.
        """
        tenant = read_key(state, "tenant", str)
        if tenant != self.tenant:
            raise StateError(
                f"session state is for tenant {tenant!r}, this session "
                f"is {self.tenant!r}", "tenant",
            )
        queue = decode_key(state, "queue", decode_events)
        ingested, analyzed, shed, emitted = [
            read_key(state, name, int)
            for name in ("events_ingested", "events_analyzed",
                         "events_shed", "reports_emitted")
        ]
        with self.parked():
            decode_key(state, "analyzer", self.analyzer.restore_state)
            with self._lock:
                self.queue.clear()
                self.queue.extend(queue)
                self.events_ingested = ingested
                self.events_analyzed = analyzed
                self._shed = _AtomicCounter(shed)
                self.reports_emitted = emitted
                self._wake.notify_all()
