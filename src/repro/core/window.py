"""The dual-buffer sliding window and its snapshot mechanism.

§5.3.1 / §6: GRETEL keeps a sliding window of α messages.  On
detecting an anomaly it slides the window ahead by α/2 messages and
waits for the event receiver to fill the remaining α/2, so the frozen
snapshot holds both the past and the future of the faulty message.
The implementation mirrors the paper's dual-buffer trick: a deque of
the most recent α events with two logical pointers α apart; freezing
is a copy of the deque once enough post-fault events arrived.

Multiple overlapping faults are supported: each fault registers its
own pending snapshot, and each snapshot completes after its own α/2
subsequent events (or a flush).  Pending snapshots are stored as
absolute due positions (the ``appended`` count at which they freeze),
which makes the per-event cost a single front-of-list comparison and
lets :meth:`SlidingWindow.append_batch` ingest whole fault-free runs
with one C-level ``deque.extend`` — the mechanism behind the sharded
analyzer's batched event loop (:mod:`repro.core.parallel`).

When an ``encode_batch`` callable is supplied, the window keeps a
symbol string fragment per event (empty for filtered events) aligned
with the event deque, and frozen snapshots carry the pre-encoded view
so operation detection can slice symbols instead of re-encoding the
context buffer on every adaptive-growth iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.state import StateError, require_state
from repro.openstack.wire import WireEvent

#: Signature of a batch symbol encoder: one symbol fragment per event,
#: ``""`` for events excluded from matching (noise / pruned RPCs).
BatchEncoder = Callable[[Sequence[WireEvent]], List[str]]


@dataclass
class Snapshot:
    """A frozen window of events centered on one faulty message."""

    fault: WireEvent
    events: List[WireEvent]
    fault_index: int           # position of the fault inside ``events``
    #: Optional pre-encoded symbol fragment per event (parallel to
    #: ``events``; ``""`` marks an event excluded from matching).  Set
    #: by windows constructed with an ``encode_batch`` callable.
    encoded: Optional[List[str]] = None

    def __len__(self) -> int:
        return len(self.events)

    def bounds(self, radius: int) -> Tuple[int, int]:
        """Index range of events within ``radius`` of the fault."""
        lo = max(0, self.fault_index - radius)
        hi = min(len(self.events), self.fault_index + radius + 1)
        return lo, hi

    def window(self, radius: int) -> List[WireEvent]:
        """Events within ``radius`` positions of the fault (the context
        buffer's current extent)."""
        lo, hi = self.bounds(radius)
        return self.events[lo:hi]

    def covers_all(self, radius: int) -> bool:
        """Whether ``radius`` already spans the whole snapshot."""
        return (self.fault_index - radius <= 0
                and self.fault_index + radius + 1 >= len(self.events))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable rendering (checkpoint/restore protocol)."""
        return {
            "fault": self.fault.to_dict(),
            "events": [event.to_dict() for event in self.events],
            "fault_index": self.fault_index,
            "encoded": (
                None if self.encoded is None else list(self.encoded)
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Snapshot":
        """Inverse of :meth:`to_dict`."""
        encoded = data["encoded"]
        return cls(
            fault=WireEvent.from_dict(data["fault"]),
            events=[WireEvent.from_dict(e) for e in data["events"]],
            fault_index=data["fault_index"],
            encoded=None if encoded is None else list(encoded),
        )


class SlidingWindow:
    """Dual-buffer sliding window of the α most recent events."""

    def __init__(self, alpha: int,
                 encode_batch: Optional[BatchEncoder] = None):
        if alpha < 2:
            raise ValueError("alpha must be at least 2")
        self.alpha = alpha
        self._events: Deque[WireEvent] = deque(maxlen=alpha)
        self._encode = encode_batch
        self._encoded: Optional[Deque[str]] = (
            deque(maxlen=alpha) if encode_batch is not None else None
        )
        #: (fault, due ``appended`` count, fault symbol fragment); dues
        #: are non-decreasing because every fault waits the same α/2.
        self._pending: List[Tuple[WireEvent, int, str]] = []
        self.snapshots_taken = 0
        self.appended = 0

    def append(self, event: WireEvent) -> List[Snapshot]:
        """Add one event; returns any snapshots that completed."""
        self._events.append(event)
        if self._encoded is not None:
            self._encoded.append(self._encode([event])[0])
        self.appended += 1
        completed: List[Snapshot] = []
        while self._pending and self._pending[0][1] <= self.appended:
            fault, _, fault_symbol = self._pending.pop(0)
            completed.append(self._freeze(fault, fault_symbol))
        return completed

    def append_batch(self, events: Sequence[WireEvent]) -> List[Snapshot]:
        """Add a FIFO run of events in one step.

        Equivalent to calling :meth:`append` per event (snapshots
        freeze at exactly the same positions), but fault-free spans
        between due points are ingested with a single ``deque.extend``
        and symbol encoding happens once per batch.  Fault *marking*
        stays with the caller: split the run at each fault so
        :meth:`mark_fault` lands at the right position.
        """
        completed: List[Snapshot] = []
        total = len(events)
        if not total:
            return completed
        encoded = self._encode(events) if self._encode is not None else None
        base = self.appended
        start = 0
        while self._pending and self._pending[0][1] <= base + total:
            fault, due, fault_symbol = self._pending.pop(0)
            cut = due - base
            if cut > start:
                self._events.extend(events[start:cut])
                if encoded is not None:
                    self._encoded.extend(encoded[start:cut])
                start = cut
            self.appended = base + start
            completed.append(self._freeze(fault, fault_symbol))
        if start < total:
            self._events.extend(events[start:])
            if encoded is not None:
                self._encoded.extend(encoded[start:])
        self.appended = base + total
        return completed

    def live_events(self) -> List[WireEvent]:
        """A copy of the current window contents, oldest first.

        Public view for consumers that need the live window — e.g. the
        serial performance-fault context (§5.3.1), which is exactly the
        α events ending at the most recently appended one.
        """
        return list(self._events)

    def mark_fault(self, fault: WireEvent) -> None:
        """Register a fault; its snapshot freezes after α/2 more events."""
        fault_symbol = (
            self._encode([fault])[0] if self._encode is not None else ""
        )
        self._pending.append((fault, self.appended + self.alpha // 2,
                              fault_symbol))

    def flush(self) -> List[Snapshot]:
        """Force-freeze all pending snapshots (end of stream)."""
        completed = [self._freeze(fault, fault_symbol)
                     for fault, _, fault_symbol in self._pending]
        self._pending.clear()
        return completed

    def _freeze(self, fault: WireEvent, fault_symbol: str = "") -> Snapshot:
        events = list(self._events)
        encoded = list(self._encoded) if self._encoded is not None else None
        try:
            fault_index = next(
                i for i, e in enumerate(events) if e.seq == fault.seq
            )
        except StopIteration:
            # The fault scrolled out (pathologically bursty stream);
            # anchor at the window start so analysis can still proceed.
            fault_index = 0
            events = [fault] + events
            if encoded is not None:
                encoded = [fault_symbol] + encoded
        self.snapshots_taken += 1
        return Snapshot(fault=fault, events=events,
                        fault_index=fault_index, encoded=encoded)

    @property
    def pending_snapshots(self) -> int:
        """Snapshots still waiting for their post-fault half."""
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._events)

    # -- state lifecycle (see repro.core.state) -------------------------

    STATE_FMT = "sliding-window/v1"

    def snapshot_state(self) -> Dict[str, Any]:
        """Versioned, JSON-serializable rendering of the live window.

        Pre-encoded symbol fragments are serialized verbatim (they are
        PUA code-point strings, JSON-safe) rather than re-derived on
        restore: the encoder is deterministic, but carrying the exact
        strings keeps the restore path trivially bit-identical.
        """
        return {
            "fmt": self.STATE_FMT,
            "alpha": self.alpha,
            "appended": self.appended,
            "snapshots_taken": self.snapshots_taken,
            "events": [event.to_dict() for event in self._events],
            "encoded": (
                None if self._encoded is None else list(self._encoded)
            ),
            "pending": [
                {
                    "fault": fault.to_dict(),
                    "due": due,
                    "symbol": fault_symbol,
                }
                for fault, due, fault_symbol in self._pending
            ],
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a freshly constructed window of the same α."""
        require_state(state, self.STATE_FMT)
        if state["alpha"] != self.alpha:
            raise StateError(
                f"window state has alpha={state['alpha']}, "
                f"this window has alpha={self.alpha}"
            )
        events = [WireEvent.from_dict(e) for e in state["events"]]
        self._events.clear()
        self._events.extend(events)
        if self._encoded is not None:
            self._encoded.clear()
            if state["encoded"] is not None:
                self._encoded.extend(state["encoded"])
            elif events:
                # State captured by a non-encoding window: re-derive
                # the fragments with this window's encoder.
                assert self._encode is not None
                self._encoded.extend(self._encode(events))
        self._pending = [
            (
                WireEvent.from_dict(entry["fault"]),
                entry["due"],
                entry["symbol"],
            )
            for entry in state["pending"]
        ]
        self.appended = state["appended"]
        self.snapshots_taken = state["snapshots_taken"]
